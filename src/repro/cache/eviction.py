"""Pluggable eviction policies for the memory tier of :class:`ResultCache`.

The PR 6 cache hard-coded an :class:`~collections.OrderedDict` LRU, which is
blind to recompute cost: under the Zipf replay a capacity eviction happily
throws away a ``fair-borda-insertion`` n=200 payload (hundreds of
milliseconds to recompute) to keep a 10 ms Borda entry.  This module turns
the replacement decision into a policy object so cost-aware and
recency-based policies compete under the same measured replay
(``benchmarks/test_perf_eviction.py``), with the committed baseline deciding
what ships.

Two implementations:

``lru`` (:class:`LRUPolicy`)
    The retained reference — bit-identical to the pre-refactor
    ``OrderedDict`` behaviour (admissions and hits refresh recency, the
    least-recently-used entry is the victim).  Property tests pin the
    refactored cache to a from-scratch simulation of the old code on
    randomized traces (``tests/cache/test_eviction.py``).

``cost-aware`` (:class:`CostAwarePolicy`)
    GreedyDual-Size-Frequency with unit sizes: each entry's priority is
    ``L + compute_seconds x (frequency + 1)`` where ``L`` is the inflation
    clock (the priority of the last victim) and ``frequency`` is the entry's
    lifetime hit count.  Expensive, frequently-replayed payloads outlive
    cheap ones; ageing happens through ``L`` instead of per-entry decay, so
    every operation is O(log n) via a lazy-deletion heap.  The cost and
    frequency ride in each stored payload's metadata envelope, so disk
    promotions and process restarts keep them.

Policies only track *ordering metadata*; the payloads themselves stay in
:class:`~repro.cache.store.ResultCache`, which calls ``on_admit``/``on_hit``/
``victim``/``remove`` under its own lock (policies need no locking of their
own).  ``remove`` covers explicit invalidation (the streaming engine's
profile updates) and TTL expiry as well as test teardown, so every policy
must tolerate removals of digests it is still tracking.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from collections import OrderedDict

__all__ = [
    "CostAwarePolicy",
    "EvictionPolicy",
    "LRUPolicy",
    "available_policies",
    "create_policy",
]


class EvictionPolicy(abc.ABC):
    """Replacement strategy for the memory tier, keyed by content digest.

    The cache owns the payloads and the capacity bound; the policy only
    answers "which entry goes next?".  Contract:

    - ``on_admit(digest, cost, frequency)`` — the digest entered the memory
      tier (fresh store or disk promotion), or was re-stored while already
      resident (which must refresh it, matching the pre-refactor LRU).
      ``cost`` is the entry's observed ``compute_seconds`` and ``frequency``
      its lifetime hit count, both carried in the payload's metadata.
    - ``on_hit(digest, cost, frequency)`` — a memory hit; ``frequency`` has
      already been incremented by the cache.
    - ``victim()`` — choose, forget, and return the digest to evict.  Only
      called while at least one tracked digest remains.
    - ``remove(digest)`` — the digest left the tier outside eviction
      (invalidation or TTL expiry); unknown digests are a no-op.
    """

    #: Registry name; also reported as ``CacheStats.policy``.
    name: str = "abstract"

    @abc.abstractmethod
    def on_admit(self, digest: str, cost: float, frequency: int) -> None:
        """Track a digest admitted into (or refreshed in) the memory tier."""

    @abc.abstractmethod
    def on_hit(self, digest: str, cost: float, frequency: int) -> None:
        """Record a memory hit on a tracked digest."""

    @abc.abstractmethod
    def victim(self) -> str:
        """Select, forget, and return the next digest to evict."""

    @abc.abstractmethod
    def remove(self, digest: str) -> None:
        """Forget a digest removed outside eviction (no-op when unknown)."""


class LRUPolicy(EvictionPolicy):
    """Least-recently-used — bit-identical to the pre-refactor ``OrderedDict``.

    Admissions and hits move the digest to the most-recent end; the victim is
    the least-recent end.  This is the reference policy the property tests
    pin against a simulation of the original hard-coded implementation.
    """

    name = "lru"

    def __init__(self) -> None:
        """Start with an empty recency order."""
        self._order: OrderedDict[str, None] = OrderedDict()

    def on_admit(self, digest: str, cost: float, frequency: int) -> None:
        """Insert (or refresh) the digest at the most-recent end."""
        self._order[digest] = None
        self._order.move_to_end(digest)

    def on_hit(self, digest: str, cost: float, frequency: int) -> None:
        """Refresh the digest to the most-recent end."""
        self._order.move_to_end(digest)

    def victim(self) -> str:
        """Pop and return the least-recently-used digest."""
        return self._order.popitem(last=False)[0]

    def remove(self, digest: str) -> None:
        """Forget the digest if tracked."""
        self._order.pop(digest, None)


class CostAwarePolicy(EvictionPolicy):
    """GreedyDual-Size-Frequency replacement (unit sizes).

    Priority of an entry: ``L + cost x (frequency + 1)``, where ``L`` is the
    inflation clock — it jumps to the victim's priority on every eviction, so
    long-untouched entries age relative to fresh ones without per-entry
    decay.  ``frequency + 1`` counts the admission itself as one use, so a
    never-hit expensive entry still outranks a never-hit cheap one.

    Entries stored without an observed cost (``compute_seconds`` 0.0, e.g. a
    raw :meth:`ResultCache.put`) all share priority ``L`` and degrade to
    FIFO among themselves — the policy only adds value when the caller
    reports costs, as the consensus services do.

    Frequency is remembered across evictions (*ghost* use counts, the trick
    the CAR/ARC family uses): without it, a popular-but-cheap query restarts
    at frequency zero after every capacity eviction and can never re-earn
    residency against pinned expensive entries, so the policy would lose
    cost-weighted hit mass to plain LRU on exactly the Zipf traces it is
    meant to win.  The ghost table is bounded: when it fills, forgotten
    digests that are no longer resident are dropped oldest-first.

    Implementation: a min-heap of ``(priority, sequence, digest)`` with lazy
    deletion — stale heap rows (priority no longer current, or digest no
    longer tracked) are skipped during :meth:`victim`.  The sequence number
    makes equal-priority ties FIFO and keeps the ordering deterministic.
    """

    name = "cost-aware"

    #: Bound on the ghost frequency table (non-resident digests remembered).
    GHOST_LIMIT = 65536

    def __init__(self) -> None:
        """Start with an empty heap and the inflation clock at zero."""
        self._inflation = 0.0
        self._priority: dict[str, float] = {}
        self._heap: list[tuple[float, int, str]] = []
        self._sequence = itertools.count()
        self._uses: dict[str, int] = {}

    def _observe(self, digest: str, frequency: int) -> int:
        """Bump and return the digest's lifetime use count (ghost-retained).

        The count never drops below the cache-reported ``frequency + 1`` (the
        admission counts as one use), so a cache restart with envelope
        metadata and a long-lived policy agree on the floor.
        """
        uses = max(self._uses.get(digest, 0) + 1, frequency + 1)
        if digest not in self._uses and len(self._uses) >= self.GHOST_LIMIT:
            stale = [
                ghost
                for ghost in self._uses
                if ghost not in self._priority
            ][: self.GHOST_LIMIT // 2]
            for ghost in stale:
                del self._uses[ghost]
        self._uses[digest] = uses
        return uses

    def _reprioritise(self, digest: str, cost: float, frequency: int) -> None:
        """Recompute the digest's priority and push the fresh heap row."""
        priority = self._inflation + cost * self._observe(digest, frequency)
        self._priority[digest] = priority
        heapq.heappush(self._heap, (priority, next(self._sequence), digest))

    def on_admit(self, digest: str, cost: float, frequency: int) -> None:
        """Price the admitted (or refreshed) digest at the current clock."""
        self._reprioritise(digest, cost, frequency)

    def on_hit(self, digest: str, cost: float, frequency: int) -> None:
        """Raise the digest's priority for its new frequency."""
        self._reprioritise(digest, cost, frequency)

    def victim(self) -> str:
        """Evict the minimum-priority digest and advance the inflation clock."""
        while True:
            priority, _, digest = heapq.heappop(self._heap)
            if self._priority.get(digest) == priority:
                del self._priority[digest]
                # GDSF ageing: future admissions start at the evicted
                # priority, so resident-but-idle entries lose ground.
                self._inflation = priority
                return digest

    def remove(self, digest: str) -> None:
        """Forget the digest; its heap rows go stale and are skipped later."""
        self._priority.pop(digest, None)


#: Registry of constructible policies (``ResultCache(policy=<name>)``).
_POLICIES: dict[str, type[EvictionPolicy]] = {
    LRUPolicy.name: LRUPolicy,
    CostAwarePolicy.name: CostAwarePolicy,
}


def available_policies() -> tuple[str, ...]:
    """The registered policy names, in registration order."""
    return tuple(_POLICIES)


def create_policy(policy: str | EvictionPolicy) -> EvictionPolicy:
    """Coerce a policy name or instance into a fresh/usable policy object."""
    if isinstance(policy, EvictionPolicy):
        return policy
    try:
        return _POLICIES[policy]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(
            f"unknown eviction policy {policy!r} (choose from: {known})"
        ) from None
