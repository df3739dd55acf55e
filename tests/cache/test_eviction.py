"""Eviction-policy suite: LRU bit-identity, cost-aware semantics, TTL.

The ``lru`` policy is pinned to a from-scratch simulation of the pre-refactor
``OrderedDict`` memory tier on randomized traces — same hit/miss sequence,
same eviction order, same survivors — so the refactor provably changed
nothing for the default configuration.  TTL expiry runs entirely on the
injected :class:`~tests.cache.faults.ManualClock` (no wall-clock reads), and
the satellite regression tests cover the two accounting bugfixes (``stats()``
listing errors, construction-sweep breaker feed) plus the pressure-derived
``Retry-After`` computation.
"""

from __future__ import annotations

import asyncio
import random
from collections import OrderedDict

import pytest

from repro.cache.eviction import (
    CostAwarePolicy,
    LRUPolicy,
    available_policies,
    create_policy,
)
from repro.cache.http import ConsensusHTTPServer
from repro.cache.resilience import CLOSED, OPEN, CircuitBreaker, RetryPolicy
from repro.cache.store import ResultCache
from tests.cache.faults import FlakyFilesystem, GateService, ManualClock, eacces, enospc


def payload(tag: int) -> dict:
    return {"tag": tag, "consensus": list(range(tag, tag + 3))}


def instant_retry(attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(attempts=attempts, sleep=lambda _: None)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_available_policies(self):
        assert available_policies() == ("lru", "cost-aware")

    def test_create_policy_by_name_and_instance(self):
        assert isinstance(create_policy("lru"), LRUPolicy)
        assert isinstance(create_policy("cost-aware"), CostAwarePolicy)
        instance = LRUPolicy()
        assert create_policy(instance) is instance

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            create_policy("mru")
        with pytest.raises(ValueError, match="unknown eviction policy"):
            ResultCache(policy="nope")

    def test_removed_clock_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            create_policy("clock")
        with pytest.raises(ValueError, match="unknown eviction policy"):
            ResultCache(policy="clock")

    def test_stats_reports_the_policy_name(self):
        assert ResultCache(policy="cost-aware").stats().policy == "cost-aware"
        assert ResultCache().stats().policy == "lru"


# ----------------------------------------------------------------------
# lru: bit-identical to the pre-refactor OrderedDict implementation
# ----------------------------------------------------------------------
class LegacyLRUMemoryTier:
    """From-scratch simulation of the pre-refactor ``OrderedDict`` memory tier.

    Mirrors the PR 6 ``ResultCache`` memory path verbatim: ``put`` inserts and
    ``move_to_end``s, then ``popitem(last=False)`` while over capacity; a hit
    ``move_to_end``s.  The eviction order is recorded so traces can compare
    sequences, not just final membership.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.memory: OrderedDict[str, dict] = OrderedDict()
        self.evicted: list[str] = []
        self.hits = 0
        self.misses = 0

    def put(self, digest: str, value: dict) -> None:
        self.memory[digest] = value
        self.memory.move_to_end(digest)
        while len(self.memory) > self.capacity:
            victim, _ = self.memory.popitem(last=False)
            self.evicted.append(victim)

    def get(self, digest: str) -> dict | None:
        if digest in self.memory:
            self.memory.move_to_end(digest)
            self.hits += 1
            return self.memory[digest]
        self.misses += 1
        return None


class TestLRUPinnedToLegacyBehaviour:
    @pytest.mark.parametrize("seed", range(8))
    def test_policy_victim_sequence_matches_ordereddict(self, seed):
        """Drive the bare policy and an OrderedDict through one random trace."""
        rng = random.Random(seed)
        keys = [f"k{index}" for index in range(12)]
        policy = LRUPolicy()
        reference: OrderedDict[str, None] = OrderedDict()
        victims: list[tuple[str, str]] = []
        for _ in range(400):
            action = rng.random()
            digest = rng.choice(keys)
            if action < 0.45:
                policy.on_admit(digest, 0.0, 0)
                reference[digest] = None
                reference.move_to_end(digest)
            elif action < 0.8 and digest in reference:
                policy.on_hit(digest, 0.0, 1)
                reference.move_to_end(digest)
            elif reference:
                victims.append((policy.victim(), reference.popitem(last=False)[0]))
        assert victims, "trace never evicted; rebalance the action mix"
        for actual, expected in victims:
            assert actual == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_cache_trace_matches_legacy_cache(self, seed):
        """Random put/get traces: same hits, misses, evictions, survivors."""
        rng = random.Random(1000 + seed)
        capacity = rng.randint(2, 6)
        cache = ResultCache(memory_capacity=capacity, policy="lru")
        legacy = LegacyLRUMemoryTier(capacity)
        keys = [f"k{index}" for index in range(10)]
        for step in range(500):
            digest = rng.choice(keys)
            if rng.random() < 0.4:
                value = payload(step)
                cache.put(digest, value)
                legacy.put(digest, value)
            else:
                assert cache.get(digest) == legacy.get(digest)
        stats = cache.stats()
        assert stats.hits == legacy.hits
        assert stats.misses == legacy.misses
        assert stats.evictions == len(legacy.evicted)
        assert stats.memory_entries == len(legacy.memory)
        for digest in keys:  # identical survivors serve identical payloads
            assert cache.get(digest) == legacy.get(digest)


# ----------------------------------------------------------------------
# cost-aware semantics
# ----------------------------------------------------------------------
class TestCostAwarePolicy:
    def test_expensive_entries_outlive_cheap_ones(self):
        cache = ResultCache(memory_capacity=2, policy="cost-aware")
        cache.put("cheap", payload(1), compute_seconds=0.01)
        cache.put("pricey", payload(2), compute_seconds=10.0)
        cache.put("newcomer", payload(3), compute_seconds=0.01)
        assert cache.get("cheap") is None  # lowest priority lost the slot
        assert cache.get("pricey") == payload(2)
        assert cache.get("newcomer") == payload(3)

    def test_frequency_raises_priority(self):
        policy = CostAwarePolicy()
        policy.on_admit("hot", 1.0, 0)
        policy.on_admit("cold", 1.0, 0)
        policy.on_hit("hot", 1.0, 5)  # priority 6.0 vs cold's 1.0
        assert policy.victim() == "cold"

    def test_inflation_ages_resident_entries(self):
        policy = CostAwarePolicy()
        policy.on_admit("old", 2.0, 0)  # priority 2.0 at L=0
        policy.on_admit("doomed", 1.0, 0)
        assert policy.victim() == "doomed"  # L jumps to 1.0
        policy.on_admit("fresh", 1.5, 0)  # priority 1.0 + 1.5 = 2.5 > old's 2.0
        assert policy.victim() == "old"

    def test_saved_seconds_accumulate_per_hit(self):
        cache = ResultCache(policy="cost-aware")
        cache.put("a", payload(1), compute_seconds=2.5)
        cache.get("a")
        cache.get("a")
        stats = cache.stats()
        assert stats.recompute_seconds_saved == pytest.approx(5.0)
        assert stats.memory_cost_seconds == pytest.approx(2.5)

    def test_cost_metadata_survives_the_disk_round_trip(self, tmp_path):
        ResultCache(directory=tmp_path).put("a", payload(1), compute_seconds=3.0)
        reopened = ResultCache(directory=tmp_path, policy="cost-aware")
        assert reopened.get("a") == payload(1)
        assert reopened.stats().recompute_seconds_saved == pytest.approx(3.0)
        assert reopened.stats().memory_cost_seconds == pytest.approx(3.0)


# ----------------------------------------------------------------------
# TTL expiry (ManualClock only — no wall-clock reads)
# ----------------------------------------------------------------------
class TestTTLExpiry:
    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(ttl=0)
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(ttl=-5)

    @pytest.mark.parametrize("policy", available_policies())
    def test_expired_memory_entry_is_a_counted_miss_that_recomputes(self, policy):
        clock = ManualClock()
        cache = ResultCache(policy=policy, ttl=60.0, clock=clock)
        cache.put("a", payload(1))
        clock.advance(59.9)
        assert cache.get("a") == payload(1)  # still fresh
        clock.advance(0.2)
        assert cache.get("a") is None  # aged out: miss, recompute
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.misses == 1
        assert stats.memory_entries == 0
        cache.put("a", payload(2))  # the recompute stores a fresh entry
        assert cache.get("a") == payload(2)

    def test_expired_disk_entry_is_a_counted_miss_and_the_blob_is_deleted(
        self, tmp_path
    ):
        clock = ManualClock()
        cache = ResultCache(
            memory_capacity=1, directory=tmp_path, ttl=60.0, clock=clock
        )
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # evicts a from memory; disk still holds it
        clock.advance(61.0)
        assert cache.get("a") is None  # disk blob aged out too
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.disk_hits == 0
        assert not (tmp_path / "a.json").exists()  # no stale resurrection later

    def test_memory_and_disk_expiry_of_one_entry_counts_once(self, tmp_path):
        clock = ManualClock()
        cache = ResultCache(directory=tmp_path, ttl=30.0, clock=clock)
        cache.put("a", payload(1))
        clock.advance(31.0)
        assert cache.get("a") is None
        assert cache.get("a") is None  # already gone everywhere: plain miss
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.misses == 2
        assert not (tmp_path / "a.json").exists()

    def test_future_stamped_blob_is_clamped_not_immortal(self, tmp_path):
        writer_clock = ManualClock(start=5000.0)
        ResultCache(directory=tmp_path, clock=writer_clock).put("a", payload(1))
        reader_clock = ManualClock(start=0.0)  # monotonic clock restarted
        cache = ResultCache(directory=tmp_path, ttl=10.0, clock=reader_clock)
        assert cache.get("a") == payload(1)  # clamped to "freshly stored"
        reader_clock.advance(10.0)
        assert cache.get("a") is None  # ...so it still expires after one TTL
        assert cache.stats().expirations == 1

    def test_ttl_stamp_survives_promotion(self, tmp_path):
        clock = ManualClock()
        cache = ResultCache(
            memory_capacity=1, directory=tmp_path, ttl=60.0, clock=clock
        )
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # a lives on disk only
        clock.advance(40.0)
        assert cache.get("a") == payload(1)  # promoted with its original stamp
        clock.advance(25.0)  # 65 s after the put, 25 s after promotion
        assert cache.get("a") is None  # TTL measures age since compute
        assert cache.stats().expirations == 1


# ----------------------------------------------------------------------
# invalidate / breaker degradation across policies
# ----------------------------------------------------------------------
class TestPolicyObservesInvalidate:
    @pytest.mark.parametrize("policy", available_policies())
    def test_invalidated_digests_leave_the_policy_too(self, policy):
        cache = ResultCache(memory_capacity=2, policy=policy)
        cache.put("a", payload(1), compute_seconds=1.0)
        cache.put("b", payload(2), compute_seconds=1.0)
        assert cache.invalidate(["b"]) == 1
        cache.put("c", payload(3), compute_seconds=1.0)  # refills the freed slot
        cache.put("d", payload(4), compute_seconds=1.0)  # one real eviction (a)
        stats = cache.stats()
        # A policy still tracking the invalidated "b" would burn an extra
        # victim() round on the stale digest and over-count evictions.
        assert stats.evictions == 1
        assert stats.invalidations == 1
        assert cache.get("a") is None
        assert cache.get("c") == payload(3)
        assert cache.get("d") == payload(4)

    @pytest.mark.parametrize("policy", available_policies())
    def test_policies_serve_memory_only_while_the_breaker_is_open(
        self, tmp_path, policy
    ):
        fs = FlakyFilesystem()
        clock = ManualClock()
        cache = ResultCache(
            memory_capacity=4,
            directory=tmp_path,
            retry=instant_retry(),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_after=3600.0, clock=clock
            ),
            fs=fs,
            policy=policy,
            ttl=120.0,
            clock=clock,
        )
        fs.fail_always("write_text", enospc())
        cache.put("a", payload(1), compute_seconds=1.0)  # disk store fails: opens
        assert cache.breaker.state == OPEN
        assert cache.get("a") == payload(1)  # memory tier still serves
        clock.advance(121.0)
        assert cache.get("a") is None  # TTL expiry skips the dead disk tier
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.disk_degraded is True
        assert stats.policy == policy


# ----------------------------------------------------------------------
# satellite regressions: stats accounting, construction sweep, Retry-After
# ----------------------------------------------------------------------
class TestStatsAccountingFixes:
    def test_stats_listing_errors_are_counted_in_the_same_snapshot(self, tmp_path):
        fs = FlakyFilesystem()
        cache = ResultCache(
            directory=tmp_path,
            retry=instant_retry(),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_after=3600.0, clock=ManualClock()
            ),
            fs=fs,
        )
        fs.fail_always("glob", eacces())
        stats = cache.stats()
        # Pre-fix, this very snapshot reported disk_errors == 0 (the errors
        # were popped after construction) and the breaker never learned.
        assert stats.disk_errors >= 1
        assert stats.breaker_state == OPEN
        assert stats.disk_degraded is True
        assert stats.disk_entries == 0
        assert stats.disk_bytes == 0

    def test_stats_poll_does_not_consume_the_half_open_probe(self, tmp_path):
        fs = FlakyFilesystem()
        clock = ManualClock()
        cache = ResultCache(
            directory=tmp_path,
            retry=instant_retry(),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_after=10.0, clock=clock
            ),
            fs=fs,
        )
        fs.fail_always("write_text", enospc())
        cache.put("a", payload(1))
        assert cache.breaker.state == OPEN
        fs.heal("write_text")
        clock.advance(11.0)  # recovery window elapsed: one probe available
        assert cache.stats().breaker_state == OPEN  # poll must not take it
        cache.put("b", payload(2))  # the probe goes to a real disk write
        assert cache.breaker.state == CLOSED

    def test_construction_sweep_errors_feed_the_breaker(self, tmp_path):
        fs = FlakyFilesystem()
        fs.fail_always("glob", eacces())  # the startup temp-file sweep fails
        cache = ResultCache(
            directory=tmp_path,
            retry=instant_retry(),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_after=3600.0, clock=ManualClock()
            ),
            fs=fs,
        )
        # Pre-fix the error was counted but the breaker started closed.
        assert cache.breaker.state == OPEN
        assert cache.stats().disk_errors == 1


class TestDerivedRetryAfter:
    def test_floor_is_one_second_without_latency_samples(self):
        server = ConsensusHTTPServer(GateService(), port=0)
        assert server._retry_after_seconds() == 1

    def test_scales_with_p90_and_queue_depth(self):
        server = ConsensusHTTPServer(GateService(), port=0)
        for _ in range(10):
            server._latency.record(2.5)  # p90 = 2.5 s
        assert server._retry_after_seconds() == 3  # ceil((0 queued + 1) x 2.5)

        async def fill_queue():
            assert await server._admission.acquire()  # beyond max_inflight the
            for _ in range(64 - 1):  # rest of the budget...
                await server._admission.acquire()
            queueing = [
                asyncio.ensure_future(server._admission.acquire())
                for _ in range(2)  # ...two callers park in the queue
            ]
            await asyncio.sleep(0)
            assert server._admission.queued == 2
            hint = server._retry_after_seconds()
            for future in queueing:
                future.cancel()
            return hint

        assert asyncio.run(fill_queue()) == 8  # ceil((2 queued + 1) x 2.5)

    def test_shed_response_carries_the_derived_hint(self, tiny_table, tiny_rankings):
        from repro.io.serialization import (
            candidate_table_to_dict,
            ranking_set_to_dict,
        )
        from tests.cache.faults import http_request, yield_until

        body = {
            "rankings": ranking_set_to_dict(tiny_rankings),
            "candidates": candidate_table_to_dict(tiny_table),
        }

        async def main():
            service = GateService()
            server = ConsensusHTTPServer(
                service, port=0, max_inflight=1, queue_depth=0
            )
            for _ in range(10):
                server._latency.record(2.0)  # p90 = 2 s, empty queue: hint 2
            host, port = await server.start()
            serve_task = asyncio.create_task(server.serve())
            try:
                blocked = asyncio.create_task(
                    http_request(host, port, "POST", "/aggregate", body)
                )
                await yield_until(lambda: service.started.is_set())
                status, headers, _ = await http_request(
                    host, port, "POST", "/aggregate", body
                )
                service.gate.set()
                await blocked
            finally:
                server.request_stop()
                await serve_task
            return status, headers

        status, headers = asyncio.run(main())
        assert status == 503
        assert headers["retry-after"] == "2"
