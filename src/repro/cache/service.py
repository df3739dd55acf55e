"""Cached consensus computation wired through the aggregation registry.

:func:`compute_consensus_payload` is the single compute path: it resolves any
registered method (``fair-borda``, ``fair-borda-insertion``, paper labels
A1–B4, ...), optionally appends a local-repair strategy, and assembles the
full JSON-safe response — consensus order and names, PD loss, parity scores,
the paper-style fairness row, and the method diagnostics.  The CLI
``aggregate`` command and the HTTP endpoints both print/serve projections of
this one payload, so cached and cold responses can be compared bit-for-bit.

:class:`ConsensusCacheService` wraps the compute path with the
content-addressed :class:`~repro.cache.store.ResultCache`: equal queries
(under the invariances of :mod:`repro.cache.fingerprint`) are served from
cache, and every response carries its key digest plus a ``cached`` flag.

A payload is encoded once: :func:`consensus_json` returns its canonical JSON
bytes, which the cache stores and the HTTP server splices into its responses
(:class:`Answer`).  The dict-returning entry points parse those bytes afresh
on every call, so a caller that mutates its dict cannot alter the cache.
"""

from __future__ import annotations

import json
import time
from collections.abc import Mapping
from dataclasses import dataclass

from repro.cache.fingerprint import CacheKey, cache_key
from repro.cache.store import ResultCache
from repro.core.candidates import CandidateTable
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.fair.registry import canonical_fair_method_name, get_fair_method
from repro.fair.seeded import SeededFairAggregator
from repro.fairness.parity import parity_scores
from repro.fairness.pd_loss import pd_loss
from repro.fairness.report import fairness_row
from repro.fairness.thresholds import FairnessThresholds
from repro.io.serialization import canonical_json

__all__ = [
    "Answer",
    "ConsensusCacheService",
    "compute_consensus_payload",
    "consensus_json",
    "resolve_method",
]


def resolve_method(method: str, strategy: str | None = None):
    """Instantiate a registered method, optionally with a local-repair strategy.

    Mirrors the CLI contract: ``strategy`` requires a seeded method (the
    baselines and Fair-Kemeny do not run the local-search repair).
    """
    aggregator = get_fair_method(method)
    if strategy is not None:
        if not isinstance(aggregator, SeededFairAggregator):
            raise AggregationError(
                f"a local-repair strategy requires a seeded method (Fair-Borda, "
                f"Fair-Copeland, ...); {aggregator.name!r} does not run the "
                "local-search repair"
            )
        aggregator = aggregator.with_local_repair(strategy)
    return aggregator


def consensus_json(
    rankings: RankingSet,
    table: CandidateTable,
    method: str = "fair-borda",
    strategy: str | None = None,
    delta: FairnessThresholds | float | Mapping[str, float] = 0.1,
) -> bytes:
    """Compute one consensus query end-to-end; return its canonical JSON bytes.

    The bytes are :func:`~repro.io.serialization.canonical_json` of the
    payload, the exact text the cache keeps in memory and embeds in its disk
    blobs.
    """
    thresholds = FairnessThresholds.coerce(delta)
    aggregator = resolve_method(method, strategy)
    result = aggregator.aggregate_with_diagnostics(rankings, table, thresholds)
    consensus = result.ranking
    payload = {
        "method": canonical_fair_method_name(method),
        "method_label": aggregator.name,
        "strategy": strategy,
        "delta": {
            "default": thresholds.default,
            "per_entity": thresholds.per_entity,
        },
        "consensus": {
            "order": consensus.to_list(),
            "names": [table.name_of(candidate) for candidate in consensus],
        },
        "unaware_order": (
            result.unaware_ranking.to_list() if result.unaware_ranking else None
        ),
        "pd_loss": pd_loss(rankings, consensus),
        "parity": parity_scores(consensus, table),
        "fairness": fairness_row(consensus, table),
        "diagnostics": result.diagnostics,
    }
    return canonical_json(payload).encode()


def compute_consensus_payload(
    rankings: RankingSet,
    table: CandidateTable,
    method: str = "fair-borda",
    strategy: str | None = None,
    delta: FairnessThresholds | float | Mapping[str, float] = 0.1,
) -> dict:
    """Compute one consensus query end-to-end and return the JSON-safe payload.

    The payload is :func:`consensus_json` parsed back, so a freshly computed
    payload, its memory-cached copy, and its disk-round-tripped copy compare
    equal with ``==`` — the bit-identity contract the cache benchmarks
    assert.
    """
    return json.loads(
        consensus_json(rankings, table, method=method, strategy=strategy, delta=delta)
    )


@dataclass(frozen=True)
class Answer:
    """One answered consensus query, with the payload still encoded.

    ``key`` is the cache-key digest, ``cached`` whether the payload was
    replayed from the cache, and ``result`` the payload's canonical JSON
    bytes as the cache stores them.
    """

    key: str
    cached: bool
    result: bytes

    def to_dict(self) -> dict:
        """The ``{"key", "cached", "result"}`` response with a freshly parsed result."""
        return {"key": self.key, "cached": self.cached, "result": json.loads(self.result)}


class ConsensusCacheService:
    """Content-addressed consensus serving: compute once, replay from cache.

    Parameters
    ----------
    cache:
        The two-tier result store; defaults to a memory-only LRU so the
        service works without any configuration.
    """

    def __init__(self, cache: ResultCache | None = None) -> None:
        """See the class docstring for the parameter contract."""
        self._cache = cache if cache is not None else ResultCache()

    @property
    def cache(self) -> ResultCache:
        """The underlying result cache."""
        return self._cache

    def aggregate(
        self,
        rankings: RankingSet,
        table: CandidateTable,
        method: str = "fair-borda",
        strategy: str | None = None,
        delta: FairnessThresholds | float | Mapping[str, float] = 0.1,
    ) -> dict:
        """Serve one consensus query, computing it only on a cache miss.

        Returns ``{"key": <digest>, "cached": <bool>, "result": <payload>}``
        where ``result`` is exactly the :func:`compute_consensus_payload`
        value — byte-identical whether it was computed now or replayed, and
        parsed afresh for this call.  This is :meth:`lookup` on the query's
        key, then :meth:`compute` on a miss: one counted cache lookup per
        query.
        """
        key = cache_key(rankings, table, method=method, strategy=strategy, delta=delta)
        answer = self.lookup(key.digest) or self.compute(key, rankings, table, delta)
        return answer.to_dict()

    def lookup(self, digest: str) -> Answer | None:
        """Answer from the cache entry at ``digest``, or ``None`` on a miss.

        One counted :meth:`ResultCache.get_bytes`; a hit is an
        :class:`Answer` with ``cached`` true.
        """
        data = self._cache.get_bytes(digest)
        if data is None:
            return None
        return Answer(digest, True, data)

    def compute(
        self,
        key: CacheKey,
        rankings: RankingSet,
        table: CandidateTable,
        delta: FairnessThresholds | float | Mapping[str, float] = 0.1,
    ) -> Answer:
        """Compute the query ``key`` addresses, store it, and answer uncached.

        ``key`` must be :func:`cache_key` of these inputs and ``delta``; the
        cache is not consulted, so a caller pairs this with one
        :meth:`lookup` that missed.
        """
        # The strategy is canonicalised inside the key; compute with the same
        # normalised name so equivalent spellings produce identical payloads.
        started = time.perf_counter()
        data = consensus_json(
            rankings,
            table,
            method=key.method,
            strategy=key.strategy,
            delta=delta,
        )
        elapsed = time.perf_counter() - started
        # The observed compute cost rides in the entry's metadata across
        # tiers; every later hit adds it to recompute_seconds_saved.
        digest = key.digest
        self._cache.put_bytes(digest, data, compute_seconds=elapsed)
        return Answer(digest, False, data)

    def stats(self) -> dict:
        """JSON-safe snapshot of the cache counters."""
        return self._cache.stats().to_dict()

    def health(self) -> dict:
        """Liveness view for ``/healthz``: overall status plus disk degradation.

        The service stays *live* (and bit-identical: compute always works,
        memory tier always admits) even when the disk tier is broken — the
        breaker merely degrades persistence, so health reports ``degraded``
        rather than failing.
        """
        stats = self._cache.stats()
        return {
            "disk_degraded": stats.disk_degraded,
            "breaker_state": stats.breaker_state,
            "disk_errors": stats.disk_errors,
        }
