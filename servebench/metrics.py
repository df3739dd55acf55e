"""Pure summary rules of the benchmark: percentiles, failures, reconciliation, coverage.

Nothing here touches the server or the library, so the rules are unit-tested
at smoke scale (``servebench/test_servebench.py``).
"""

from __future__ import annotations

import statistics
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

#: The tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10
#: ... and never goes above this percentile.
TAIL_PERCENTILE_CAP = 95


def p50(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 for an empty sample)."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> tuple[float, float]:
    """The highest percentile, up to p95, with at least ten samples beyond it.

    Returns ``(value, percentile)`` by nearest rank.  On a sorted sample of
    ``N`` values the value at 1-based rank ``N - 10`` has exactly ten samples
    above it; the rank is lowered to that of p95 once ``N`` exceeds 200.
    The rule moves smoothly with ``N`` (no jump between fixed p90/p95/p99
    rungs when the sample count changes by one between runs).  The cap keeps
    the tail off the few cold misses a Zipf replay makes in total however
    long it runs: the tenth-slowest of those ~20 computes swings 30% from run
    to run, while p95 lands on the slow hits and moves with them.  Samples of
    ten or fewer report their maximum as the 100th percentile.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_SAMPLES_BEYOND:
        return float(ordered[-1]), 100.0
    capped = -(-count * TAIL_PERCENTILE_CAP // 100)
    rank = min(count - TAIL_SAMPLES_BEYOND, capped)
    return float(ordered[rank - 1]), 100.0 * rank / count


@dataclass(frozen=True)
class Outcome:
    """One timed operation as the load generator saw it.

    ``statuses`` holds one HTTP status per request of the operation (0 for a
    connection error); ``matches`` is whether every response body equalled
    the in-process oracle.
    """

    statuses: tuple[int, ...]
    matches: bool

    @property
    def ok(self) -> bool:
        """Every request answered 2xx and every body matched the oracle."""
        return self.matches and all(200 <= status < 300 for status in self.statuses)


@dataclass(frozen=True)
class FailureCount:
    """Attempted and failed operations of one run."""

    attempted: int
    failed: int

    @property
    def error_rate(self) -> float:
        """Failed over attempted (0.0 when nothing was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0


def count_failures(outcomes: Sequence[Outcome]) -> FailureCount:
    """Count non-2xx, connection errors and oracle mismatches against attempts."""
    failed = sum(1 for outcome in outcomes if not outcome.ok)
    return FailureCount(attempted=len(outcomes), failed=failed)


@dataclass
class Reconciliation:
    """Client-side counts checked against one ``GET /stats`` snapshot."""

    problems: list[str] = field(default_factory=list)
    duplicate_misses: int = 0

    @property
    def ok(self) -> bool:
        """Whether every counter matched."""
        return not self.problems


def reconcile(
    stats: Mapping,
    sent_paths: Mapping[str, int],
    statuses: Mapping[int, int],
    lookups: int,
    hits_seen: int,
    distinct_keys: int,
    invalidated_seen: int | None = None,
) -> Reconciliation:
    """Reconcile what the client sent and saw with the server's ``/stats``.

    ``sent_paths`` and ``statuses`` cover every request answered before the
    ``/stats`` call being checked; the server counts that call among its
    endpoints but not yet among its answered requests.  ``lookups`` is the
    number of answered requests that consult the result cache, ``hits_seen``
    those answered with ``cached: true``, and ``distinct_keys`` the distinct
    cache keys among them.  ``duplicate_misses`` — misses beyond one per
    distinct key, i.e. computes wasted on a key already being or already
    computed — is derived from these counts.
    """
    result = Reconciliation()
    server = stats["server"]
    cache = stats["cache"]
    answered = sum(statuses.values())
    if server["requests"] != answered:
        result.problems.append(f"server requests {server['requests']} != sent {answered}")
    expected_status = {str(status): count for status, count in statuses.items() if count}
    if dict(server["responses_by_status"]) != expected_status:
        result.problems.append(
            f"status counts {server['responses_by_status']} != client {expected_status}"
        )
    expected_paths = {path: count for path, count in sent_paths.items() if count}
    expected_paths["/stats"] = expected_paths.get("/stats", 0) + 1
    if dict(server["endpoints"]) != expected_paths:
        result.problems.append(f"endpoints {server['endpoints']} != client {expected_paths}")
    if cache["hits"] + cache["misses"] != lookups:
        result.problems.append(
            f"hits + misses {cache['hits']} + {cache['misses']} != lookups {lookups}"
        )
    if cache["hits"] != hits_seen:
        result.problems.append(f"cache hits {cache['hits']} != cached responses {hits_seen}")
    result.duplicate_misses = cache["misses"] - distinct_keys
    if result.duplicate_misses < 0:
        result.problems.append(
            f"misses {cache['misses']} below the {distinct_keys} distinct keys sent"
        )
    if invalidated_seen is not None and cache["invalidations"] != invalidated_seen:
        result.problems.append(
            f"invalidations {cache['invalidations']} != client-seen {invalidated_seen}"
        )
    return result


def coverage(requests: Sequence[tuple[float, float]]) -> float:
    """Median over requests of traced stage time divided by request wall time.

    Each entry is ``(stage_seconds, wall_seconds)`` for one traced request;
    a value near 1 means the spans account for the request's whole time.
    """
    ratios = [stage / wall for stage, wall in requests if wall > 0]
    return p50(ratios)
