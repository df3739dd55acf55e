"""Streaming consensus wired into the content-addressed result cache.

:class:`StreamingConsensusService` pairs a
:class:`~repro.streaming.engine.StreamingConsensusEngine` with the two-tier
:class:`~repro.cache.store.ResultCache` from the batch serving stack:

* :meth:`aggregate` serves the current profile's consensus under the exact
  batch cache key — the engine's incrementally-maintained fingerprint slots
  straight into :class:`~repro.cache.fingerprint.CacheKey`, so a streamed
  result and a batch result for the same profile share one content address.
  :meth:`answer` is the same lookup with the payload left as the canonical
  JSON bytes the cache stores, which the HTTP server splices into its
  response.
* :meth:`update` applies an add/remove batch and then *invalidates* every
  cache entry served for the old profile, recording the new profile version
  in the cache stats (``invalidations`` / ``profile_version`` counters) so
  dashboards can distinguish invalidation from LRU eviction.

All entry points are serialised behind one lock: the HTTP front-end calls
into the service from an executor thread per request.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

from repro.cache.fingerprint import CacheKey, fingerprint_thresholds
from repro.cache.service import Answer
from repro.cache.store import ResultCache
from repro.exceptions import ValidationError
from repro.streaming.engine import StreamingConsensusEngine
from repro.streaming.replay import StreamEvent

__all__ = ["StreamingConsensusService"]


class StreamingConsensusService:
    """Thread-safe streaming facade: update, invalidate, serve from cache.

    Parameters
    ----------
    engine:
        The streaming consensus engine holding the live profile.
    cache:
        The result cache shared with the batch serving path; defaults to a
        memory-only LRU.
    """

    def __init__(
        self, engine: StreamingConsensusEngine, cache: ResultCache | None = None
    ) -> None:
        """See the class docstring for the parameter contract."""
        self._engine = engine
        self._cache = cache if cache is not None else ResultCache()
        self._lock = threading.Lock()
        self._live: set[str] = set()

    @property
    def engine(self) -> StreamingConsensusEngine:
        """The underlying streaming engine."""
        return self._engine

    @property
    def cache(self) -> ResultCache:
        """The underlying result cache."""
        return self._cache

    def describe(self) -> dict:
        """JSON-safe snapshot of the engine configuration and profile state."""
        with self._lock:
            return {
                "method": self._engine.method,
                "strategy": self._engine.strategy,
                "delta": {
                    "default": self._engine.thresholds.default,
                    "per_entity": self._engine.thresholds.per_entity,
                },
                "n_rankings": self._engine.n_rankings,
                "profile_version": self._engine.profile_version,
                "profile": self._engine.profile_fingerprint,
            }

    def update(
        self,
        add: Sequence[StreamEvent] = (),
        remove: Sequence[StreamEvent] = (),
    ) -> dict:
        """Apply one add/remove batch, then invalidate the old profile's entries.

        ``add`` and ``remove`` are :class:`StreamEvent` sequences (the ``op``
        field is ignored here; membership in the batch decides the
        direction).  Adds are applied before removes, so a batch may submit
        and retract within one call.  Every cache entry served for the
        previous profile is invalidated, keyed on the new profile version.
        """
        if not add and not remove:
            raise ValidationError(
                "an update must add or remove at least one ranking"
            )
        with self._lock:
            if add:
                labels = [event.label for event in add]
                self._engine.add_rankings(
                    [list(event.order) for event in add],
                    weights=[event.weight for event in add],
                    labels=labels if any(label is not None for label in labels) else None,
                )
            if remove:
                self._engine.remove_rankings(
                    [list(event.order) for event in remove],
                    weights=[event.weight for event in remove],
                )
            invalidated = self._cache.invalidate(
                self._live, profile_version=self._engine.profile_version
            )
            self._live.clear()
            return {
                "profile_version": self._engine.profile_version,
                "n_rankings": self._engine.n_rankings,
                "added": len(add),
                "removed": len(remove),
                "invalidated": invalidated,
                "profile": self._engine.profile_fingerprint,
            }

    def aggregate(self) -> dict:
        """Serve the current profile's consensus, computing on a cache miss.

        Returns ``{"key", "cached", "result", "profile_version"}``:
        :meth:`answer` with the payload parsed afresh for this call.
        """
        answer, profile_version = self.answer()
        return {**answer.to_dict(), "profile_version": profile_version}

    def answer(self) -> tuple[Answer, int]:
        """Answer the current profile's consensus query, computing on a cache miss.

        Returns the :class:`~repro.cache.service.Answer` and the profile
        version it answers for.  The key is built from the engine's
        incremental fingerprint, so it is identical to the batch
        :func:`repro.cache.fingerprint.cache_key` of a rebuilt profile —
        cached entries are shared across the streaming and batch paths, and
        invalidated (not merely evicted) on profile change.
        """
        with self._lock:
            profile = self._engine.profile_fingerprint
            if profile is None:
                raise ValidationError(
                    "the streaming profile is empty; POST /update with "
                    "rankings before requesting a consensus"
                )
            key = CacheKey(
                profile=profile,
                schema=self._engine.schema_fingerprint,
                method=self._engine.method,
                strategy=self._engine.strategy,
                thresholds=fingerprint_thresholds(self._engine.thresholds),
            )
            digest = key.digest
            data = self._cache.get_bytes(digest)
            cached = data is not None
            if data is None:
                started = time.perf_counter()
                data = self._engine.consensus_json()
                # Report the observed compute cost so the shared cache's
                # recompute_seconds_saved counts streamed entries too.
                self._cache.put_bytes(
                    digest, data, compute_seconds=time.perf_counter() - started
                )
            self._live.add(digest)
            return Answer(digest, cached, data), self._engine.profile_version

    def repair(self) -> dict:
        """Warm-started update-and-repair of the current profile (uncached).

        The repaired order is a fast approximation refreshed from the
        previous consensus; it intentionally bypasses the cache, which only
        stores exact batch-identical payloads.
        """
        with self._lock:
            return {
                "result": self._engine.repair(),
                "profile_version": self._engine.profile_version,
            }

    def stats(self) -> dict:
        """JSON-safe snapshot of the cache counters."""
        return self._cache.stats().to_dict()
