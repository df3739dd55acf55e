"""Content-addressed consensus cache and the ``mani-rank serve`` front-end.

Every ``aggregate``/fairness query used to recompute from scratch even though
the Mallows-grid and case-study workloads replay identical (profile, method,
strategy, Δ) queries constantly.  This package closes that gap with three
layers:

:mod:`repro.cache.fingerprint`
    Content-addressed cache keys: SHA-256 fingerprints of the ranking-set
    content (order-insensitive across construction orders), the candidate
    table's group schema, and the normalised (method, strategy, Δ) triple.

:mod:`repro.cache.store`
    A memory LRU over an optional disk tier (JSON blobs written through
    :mod:`repro.io.serialization`) with hit/miss/eviction/expiry counters
    reported as a :class:`~repro.cache.store.CacheStats` snapshot.  Opt-in
    TTL expiry covers both tiers through an injectable clock.

:mod:`repro.cache.resilience`
    The failure-containment primitives the serving stack runs on: retry with
    backoff around the disk tier, a circuit breaker that degrades the cache
    to memory-only service under persistent disk faults, admission control
    with load shedding, latency recording, and the injectable clock behind
    every HTTP deadline.

:mod:`repro.cache.service` / :mod:`repro.cache.http`
    :class:`~repro.cache.service.ConsensusCacheService` computes or replays
    full consensus payloads through the aggregation registry (every
    registered method is servable), and the asyncio HTTP front-end exposes
    it as ``mani-rank serve`` with ``/aggregate``, ``/fairness`` and
    ``/stats`` endpoints.

Cached results are bit-identical to cold computation — enforced by
``benchmarks/test_perf_cache.py``, which also commits hit-rate and
latency-percentile baselines under a Zipf query popularity distribution.
"""

from __future__ import annotations

from repro.cache.fingerprint import (
    CacheKey,
    cache_key,
    fingerprint_candidate_table,
    fingerprint_ranking_set,
)
from repro.cache.http import ConsensusHTTPServer, run_server
from repro.cache.resilience import (
    AdmissionController,
    AsyncClock,
    CircuitBreaker,
    LatencyRecorder,
    RetryPolicy,
    ServerLimits,
)
from repro.cache.service import ConsensusCacheService, compute_consensus_payload
from repro.cache.store import CacheStats, DiskTier, LocalFilesystem, ResultCache

__all__ = [
    "AdmissionController",
    "AsyncClock",
    "CacheKey",
    "CacheStats",
    "CircuitBreaker",
    "ConsensusCacheService",
    "ConsensusHTTPServer",
    "DiskTier",
    "LatencyRecorder",
    "LocalFilesystem",
    "ResultCache",
    "RetryPolicy",
    "ServerLimits",
    "cache_key",
    "compute_consensus_payload",
    "fingerprint_candidate_table",
    "fingerprint_ranking_set",
    "run_server",
]
