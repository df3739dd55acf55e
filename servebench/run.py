"""Served end-to-end benchmark of ``mani-rank serve``.

Run from the repository root::

    python3 servebench/run.py --workload zipf-replay --seed 1 --seconds 10 --trace 0

Each run spawns a fresh server with a fresh cache directory on loopback,
drives it closed loop for ``--seconds`` with pre-encoded request bodies,
checks every response against an in-process oracle, reconciles the client's
counts with ``GET /stats`` and prints a report followed by one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which adds an in-process traced replay of the same inputs).

Workloads (all closed loop; why each was chosen):

``zipf-replay``
    The ``perf_cache`` universe (18 keys) under Zipf(1.1), 2 clients, an
    8-entry memory tier over a disk tier.  The realistic skewed mix: mostly
    warm hits, so decode, profile build, fingerprint, encode and the cache
    tiers dominate; the working set exceeds the memory tier (eviction, disk
    promotion) and two clients expose concurrent duplicate misses.
``cold-misses``
    Every request a distinct n=200/m=500 profile, methods in rotation at
    delta=0.1, memory-only cache, 1 client.  Compute dominates: seed,
    Make-MR-Fair, local repair and payload assembly.
``stream-churn``
    One n=200/m=500 fair-borda streaming profile; each round slides the
    window with ``POST /update`` then reads ``GET /consensus``, 1 client.
    Writes beside reads on one cache: every read recomputes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from servebench.metrics import (  # noqa: E402 - needs the root on sys.path
    FailureCount,
    Outcome,
    Reconciliation,
    count_failures,
    p50,
    reconcile,
    tail,
)

#: Server spawns per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Requests (rounds, for streaming) the traced replay runs per workload.
TRACED_REQUESTS = {"zipf-replay": 120, "cold-misses": 12, "stream-churn": 20}
#: Operations made before the timed phase, per second of it: several times
#: today's rate.  The sources are endless; a faster server reads past this
#: and the rest is made on demand.
PREPARED_PER_SECOND = {"zipf-replay": 200, "cold-misses": 12, "stream-churn": 30}
#: Attempts at a reconciled ``/stats`` snapshot: the server counts a request
#: only after its connection closes, which may trail the client's EOF.
STATS_ATTEMPTS = 25

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Served metrics that apply to one workload each (or are 0 when healthy),
#: so they ride with the per-layer metrics rather than the bounded set.
SERVED_UNITS = {
    "hit_p50_ms": "ms",
    "update_p50_ms": "ms",
    "consensus_p50_ms": "ms",
    "error_rate": "ratio",
    "tail_percentile": "%",
    "cache.http.overhead_ms": "ms",
    "cache.store.hits": "count",
    "cache.store.misses": "count",
    "cache.store.memory_hits": "count",
    "cache.store.disk_hits": "count",
    "cache.store.evictions": "count",
    "cache.store.hit_rate": "ratio",
    "cache.store.duplicate_misses": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    from servebench.traced import COUNTERS, STAGES

    units = dict(SERVED_UNITS)
    for stage in STAGES:
        units[f"{stage}_ms"] = "ms"
        units[f"{stage}.calls"] = "count"
    units.update({name: "count/call" for name in COUNTERS})
    units["trace.coverage"] = "ratio"
    units["trace.requests"] = "count"
    return units


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    end_to_end: dict[str, float]
    served: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    traced: dict[str, float] = field(default_factory=dict)


@dataclass
class Served:
    """The timed phase of one run and the ``/stats`` snapshot after it."""

    results: list
    elapsed: float
    setup_s: float
    stats: dict
    reconciliation: Reconciliation
    rss_mib: float

    def seconds(self) -> list[float]:
        """Wall seconds of every timed operation."""
        return [result.ended - result.started for result in self.results]


def serve(
    work: Path,
    seconds: float,
    server_args: Callable[[Path], list[str]],
    untimed: Sequence,
    operation: Callable[[int], Sequence],
    clients: int,
    reconciler: Callable,
) -> Served:
    """Measure set-up, run the timed phase, and reconcile the counters.

    ``operation(index)`` gives the requests of timed operation ``index``.
    ``reconciler(results, stats, sent_paths, statuses)`` returns a
    :class:`~servebench.metrics.Reconciliation`; ``/stats`` is re-read until
    it reconciles or the attempts run out.
    """
    from servebench.client import Server, Tally, closed_loop, exchange

    setup = []
    for probe in range(SETUP_SAMPLES - 1):
        name = f"setup-{probe}"
        with Server(ROOT, work / f"{name}.log", server_args(work / name), Tally()) as server:
            setup.append(server.setup_s)
    tally = Tally()
    with Server(ROOT, work / "served.log", server_args(work / "served"), tally) as server:
        setup.append(server.setup_s)
        for request in untimed:
            status, body = exchange(server.address, request, tally)
            if status != 200:
                raise RuntimeError(f"untimed {request.path} answered {status}: {body[:200]!r}")
        results, elapsed = closed_loop(server.address, operation, clients, seconds, tally)
        for _ in range(STATS_ATTEMPTS):
            sent_paths, statuses = dict(tally.paths), dict(tally.statuses)
            stats = server.stats()
            reconciliation = reconciler(results, stats, sent_paths, statuses)
            if reconciliation.ok:
                break
            time.sleep(0.02)
        rss = server.peak_rss_mib()
    return Served(results, elapsed, statistics.median(setup), stats, reconciliation, rss)


def _parse(body: bytes) -> dict | None:
    try:
        value = json.loads(body)
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


def _summarise(served: Served, outcomes: list[Outcome]) -> tuple[dict, dict, FailureCount]:
    """End-to-end metrics plus the served counters every workload reports."""
    failures = count_failures(outcomes)
    seconds = served.seconds()
    tail_s, tail_percentile = tail(seconds)
    cache = served.stats["cache"]
    end_to_end = {
        "setup_s": served.setup_s,
        "throughput_rps": (failures.attempted - failures.failed) / served.elapsed
        if served.elapsed > 0
        else 0.0,
        "p50_ms": 1000.0 * p50(seconds),
        "tail_ms": 1000.0 * tail_s,
        "peak_rss_mib": served.rss_mib,
    }
    common = {
        "error_rate": failures.error_rate,
        "tail_percentile": tail_percentile,
        "cache.store.hits": cache["hits"],
        "cache.store.misses": cache["misses"],
        "cache.store.memory_hits": cache["memory_hits"],
        "cache.store.disk_hits": cache["disk_hits"],
        "cache.store.evictions": cache["evictions"],
        "cache.store.hit_rate": cache["hit_rate"],
        "cache.store.duplicate_misses": served.reconciliation.duplicate_misses,
    }
    return end_to_end, common, failures


class AggregateOracle:
    """Reference payload and cache-key digest per distinct ``/aggregate`` body."""

    def __init__(self, queries: Sequence[bytes]) -> None:
        """Bind the workload's request bodies; references are computed on demand."""
        self._queries = queries
        self._references: dict[int, tuple[dict, str]] = {}

    def __call__(self, index: int) -> tuple[dict, str]:
        """``compute_consensus_payload`` and the digest for query ``index``."""
        if index not in self._references:
            from repro.cache.fingerprint import cache_key
            from repro.cache.service import compute_consensus_payload
            from repro.io.serialization import candidate_table_from_dict, ranking_set_from_dict

            query = json.loads(self._queries[index])
            table = candidate_table_from_dict(query["candidates"])
            rankings = ranking_set_from_dict(query["rankings"])
            method, delta = query["method"], query["delta"]
            self._references[index] = (
                compute_consensus_payload(rankings, table, method=method, delta=delta),
                cache_key(rankings, table, method=method, delta=delta).digest,
            )
        return self._references[index]


def run_aggregate_workload(
    work: Path,
    seconds: float,
    queries: Sequence[bytes],
    query_of: Callable[[int], int],
    clients: int,
    server_args: Callable[[Path], list[str]],
    traced_cache: Callable[[], object] | None,
    traced_requests: int,
) -> RunResult:
    """Run either of the two ``POST /aggregate`` workloads.

    Timed operation ``i`` posts ``queries[query_of(i)]``.
    """
    from servebench.client import post

    def operation(index: int) -> list:
        return [post("/aggregate", queries[query_of(index)])]

    def reconciler(results, stats, sent_paths, statuses):
        answered = [
            body for body in (_parse(r.bodies[0]) for r in results if r.statuses == [200]) if body
        ]
        return reconcile(
            stats,
            sent_paths,
            statuses,
            lookups=len(answered),
            hits_seen=sum(1 for body in answered if body["cached"]),
            distinct_keys=len({body["key"] for body in answered}),
        )

    served = serve(work, seconds, server_args, [], operation, clients, reconciler)
    oracle = AggregateOracle(queries)
    outcomes, hit_seconds = [], []
    for result in served.results:
        body = _parse(result.bodies[0]) if result.statuses == [200] else None
        matches = False
        if body is not None:
            payload, digest = oracle(query_of(result.index))
            matches = body.get("result") == payload and body.get("key") == digest
            if body.get("cached"):
                hit_seconds.append(result.ended - result.started)
        outcomes.append(Outcome(tuple(result.statuses), matches))
    end_to_end, common, failures = _summarise(served, outcomes)
    run = RunResult(
        end_to_end=end_to_end,
        served={
            **common,
            "hit_p50_ms": 1000.0 * p50(hit_seconds),
            "update_p50_ms": 0.0,
            "consensus_p50_ms": 0.0,
        },
        attempted=failures.attempted,
        failed=failures.failed,
        problems=list(served.reconciliation.problems),
    )
    if traced_cache is not None:
        from servebench.traced import Tracer, traced_aggregate

        tracer = Tracer()
        cache = traced_cache()
        traced_hits = []
        for position in range(min(traced_requests, len(served.results))):
            index = query_of(position)
            response = traced_aggregate(tracer, cache, queries[index])
            payload, digest = oracle(index)
            if response["result"] != payload or response["key"] != digest:
                run.problems.append(f"traced payload of query {index} differs from the oracle")
            if response["cached"]:
                traced_hits.append(position)
        run.traced = tracer.summary()
        # HTTP overhead: served class p50 minus traced stage-sum p50, on warm
        # hits where the workload has them, else on every request.
        served_class = hit_seconds if hit_seconds and traced_hits else served.seconds()
        traced_class = tracer.stage_sum_p50_ms(traced_hits if hit_seconds and traced_hits else None)
        run.served["cache.http.overhead_ms"] = 1000.0 * p50(served_class) - traced_class
    return run


def run_zipf(work: Path, seed: int, seconds: float, trace: bool) -> RunResult:
    """``zipf-replay``: 18 keys under Zipf(1.1), 2 clients, memory tier of 8 over disk."""
    from repro.cache.store import ResultCache

    from servebench import inputs

    queries = inputs.zipf_queries(seed)
    stream = inputs.zipf_stream(seed, len(queries))
    stream.extend_to(int(seconds * PREPARED_PER_SECOND["zipf-replay"]))
    return run_aggregate_workload(
        work,
        seconds,
        queries,
        stream.__getitem__,
        clients=2,
        server_args=lambda directory: ["--memory-capacity", "8", "--cache-dir", str(directory)],
        traced_cache=(
            (lambda: ResultCache(memory_capacity=8, directory=work / "traced-cache"))
            if trace
            else None
        ),
        traced_requests=TRACED_REQUESTS["zipf-replay"],
    )


def run_cold(work: Path, seed: int, seconds: float, trace: bool) -> RunResult:
    """``cold-misses``: every request a distinct profile, memory-only cache, 1 client."""
    from repro.cache.store import ResultCache

    from servebench import inputs

    queries = inputs.cold_queries(seed)
    queries.extend_to(int(seconds * PREPARED_PER_SECOND["cold-misses"]))
    return run_aggregate_workload(
        work,
        seconds,
        queries,
        lambda index: index,
        clients=1,
        server_args=lambda directory: [],
        traced_cache=ResultCache if trace else None,
        traced_requests=TRACED_REQUESTS["cold-misses"],
    )


def _stream_events(body: dict, table, op: str) -> list:
    """The ``add`` or ``remove`` list of an ``/update`` body as stream events."""
    from repro.streaming.replay import StreamEvent, resolve_order

    return [StreamEvent(op, tuple(resolve_order(r, table))) for r in body.get(op, [])]


def run_stream(work: Path, seed: int, seconds: float, trace: bool) -> RunResult:
    """``stream-churn``: sliding-window ``/update`` then ``/consensus``, 1 client."""
    from repro.cache.store import ResultCache
    from repro.io.serialization import candidate_table_from_dict
    from repro.streaming.engine import StreamingConsensusEngine
    from repro.streaming.service import StreamingConsensusService

    from servebench import inputs
    from servebench.client import get, post

    stream = inputs.stream_inputs(seed)
    stream.slides.extend_to(int(seconds * PREPARED_PER_SECOND["stream-churn"]))
    read = get("/consensus")

    def operation(index: int) -> list:
        return [post("/update", stream.slides[index]), read]

    def reconciler(results, stats, sent_paths, statuses):
        reads = [_parse(r.bodies[1]) for r in results if r.statuses == [200, 200]]
        updates = [_parse(r.bodies[0]) for r in results if r.statuses[:1] == [200]]
        reads = [body for body in reads if body]
        return reconcile(
            stats,
            sent_paths,
            statuses,
            lookups=len(reads),
            hits_seen=sum(1 for body in reads if body["cached"]),
            distinct_keys=len({body["key"] for body in reads}),
            invalidated_seen=sum(body["invalidated"] for body in updates if body),
        )

    served = serve(
        work,
        seconds,
        lambda directory: [],
        [post("/update", stream.initial)],
        operation,
        1,
        reconciler,
    )

    # Oracle: an in-process engine replay of the same events, from the same bytes.
    initial = json.loads(stream.initial)
    table = candidate_table_from_dict(initial["candidates"])

    engine = StreamingConsensusEngine(table, method=initial["method"], delta=initial["delta"])
    engine.add_rankings([list(e.order) for e in _stream_events(initial, table, "add")])
    references = []
    outcomes, update_seconds, consensus_seconds = [], [], []
    for result in served.results:
        slide = json.loads(stream.slides[result.index])
        engine.add_rankings([list(e.order) for e in _stream_events(slide, table, "add")])
        engine.remove_rankings([list(e.order) for e in _stream_events(slide, table, "remove")])
        references.append(engine.consensus())
        version = engine.profile_version
        matches = False
        if result.statuses == [200, 200]:
            update, read = _parse(result.bodies[0]), _parse(result.bodies[1])
            matches = (
                update is not None
                and read is not None
                and update.get("profile_version") == version
                and update.get("n_rankings") == inputs.N_RANKINGS
                and read.get("profile_version") == version
                and read.get("result") == references[-1]
            )
            update_seconds.append(result.request_seconds[0])
            consensus_seconds.append(result.request_seconds[1])
        outcomes.append(Outcome(tuple(result.statuses), matches))
    end_to_end, common, failures = _summarise(served, outcomes)
    run = RunResult(
        end_to_end=end_to_end,
        served={
            **common,
            "hit_p50_ms": 0.0,
            "update_p50_ms": 1000.0 * p50(update_seconds),
            "consensus_p50_ms": 1000.0 * p50(consensus_seconds),
        },
        attempted=failures.attempted,
        failed=failures.failed,
        problems=list(served.reconciliation.problems),
    )
    if trace:
        from servebench.traced import Tracer, traced_stream_round

        tracer = Tracer()
        traced_engine = StreamingConsensusEngine(
            table, method=initial["method"], delta=initial["delta"]
        )
        service = StreamingConsensusService(traced_engine, cache=ResultCache())
        service.update(add=_stream_events(initial, table, "add"))
        rounds = min(TRACED_REQUESTS["stream-churn"], len(served.results))
        for index in range(rounds):
            _, read = traced_stream_round(tracer, service, stream.slides[index])
            if read["result"] != references[index]:
                run.problems.append(f"traced consensus of round {index} differs from the oracle")
            if index == 0 and read["result"] != traced_engine.rebuild_reference():
                run.problems.append("streamed consensus differs from compute_consensus_payload")
        run.traced = tracer.summary()
        run.served["cache.http.overhead_ms"] = 1000.0 * p50(served.seconds()) - (
            tracer.stage_sum_p50_ms()
        )
    return run


WORKLOADS = {"zipf-replay": run_zipf, "cold-misses": run_cold, "stream-churn": run_stream}


def machine_stamp() -> str:
    """CPU count and the Python and numpy versions the run used."""
    import numpy

    return (
        f"cpus={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}"
    )


def report(workload: str, seed: int, run: RunResult, metrics: dict) -> list[str]:
    """Human-readable lines: stamp, counts, problems, and every metric with its unit."""
    lines = [
        f"servebench {workload} seed={seed} {machine_stamp()}",
        f"operations attempted={run.attempted} failed={run.failed} "
        f"tail=p{run.served['tail_percentile']:.1f}",
    ]
    lines.extend(f"PROBLEM: {problem}" for problem in run.problems)
    lines.extend(
        f"  {name:<40} {entry['value']:>14.4f} {entry['unit']}" for name, entry in metrics.items()
    )
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    """Run one workload and print the report and the JSON result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".servebench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = WORKLOADS[args.workload](work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        values = {**run.served, **run.traced}
        units = per_layer_units()
    else:
        values = run.end_to_end
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    shown = dict(metrics)
    if not args.trace:
        # The served counters are measured on every run; show them too.
        shown.update(
            (name, {"value": float(run.served[name]), "unit": unit})
            for name, unit in SERVED_UNITS.items()
            if name in run.served
        )
    for line in report(args.workload, args.seed, run, shown):
        print(line)
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
