"""Memory-tier suite: LRU bit-identity, work conservation, old blobs, TTL.

The memory tier is pinned to a from-scratch simulation of an
``OrderedDict`` LRU tier on randomized traces — same hit/miss sequence, same
recency order after every step, same eviction order, same survivors — with
and without a disk tier, so disk promotions and invalidations are covered
too.  ``recompute_seconds_saved`` is pinned by a work-conservation trace,
and blobs written in older disk layouts are served through
:meth:`ResultCache.get`.  TTL expiry runs entirely on the injected
:class:`~tests.cache.faults.ManualClock` (no wall-clock reads), and
regression tests cover the two accounting bugfixes (``stats()`` listing
errors, construction-sweep breaker feed) plus the pressure-derived
``Retry-After`` computation.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import OrderedDict

import pytest

from repro.cache.http import ConsensusHTTPServer
from repro.cache.resilience import CLOSED, OPEN, CircuitBreaker, RetryPolicy
from repro.cache.store import ResultCache
from tests.cache.faults import FlakyFilesystem, GateService, ManualClock, eacces, enospc


def payload(tag: int) -> dict:
    return {"tag": tag, "consensus": list(range(tag, tag + 3))}


def instant_retry(attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(attempts=attempts, sleep=lambda _: None)


# ----------------------------------------------------------------------
# LRU: bit-identical to a from-scratch OrderedDict simulation
# ----------------------------------------------------------------------
class LegacyLRUMemoryTier:
    """From-scratch simulation of an ``OrderedDict`` LRU memory tier.

    Mirrors the ``ResultCache`` memory path: ``put`` inserts and
    ``move_to_end``s, then ``popitem(last=False)`` while over capacity; a hit
    ``move_to_end``s.  With ``disk=True`` every put is also kept in a disk
    dict, and a memory miss on a digest the disk holds is a disk hit that is
    admitted like a put (the promotion); ``invalidate`` pops the digest from
    both.  The eviction order is recorded so traces can compare sequences,
    not just final membership.
    """

    def __init__(self, capacity: int, disk: bool = False) -> None:
        self.capacity = capacity
        self.memory: OrderedDict[str, dict] = OrderedDict()
        self.disk: dict[str, dict] | None = {} if disk else None
        self.evicted: list[str] = []
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def _admit(self, digest: str, value: dict) -> None:
        self.memory[digest] = value
        self.memory.move_to_end(digest)
        while len(self.memory) > self.capacity:
            victim, _ = self.memory.popitem(last=False)
            self.evicted.append(victim)

    def put(self, digest: str, value: dict) -> None:
        self._admit(digest, value)
        if self.disk is not None:
            self.disk[digest] = value

    def get(self, digest: str) -> dict | None:
        if digest in self.memory:
            self.memory.move_to_end(digest)
            self.hits += 1
            return self.memory[digest]
        if self.disk is not None and digest in self.disk:
            self.hits += 1
            self.disk_hits += 1
            self._admit(digest, self.disk[digest])
            return self.memory[digest]
        self.misses += 1
        return None

    def invalidate(self, digest: str) -> bool:
        present = self.memory.pop(digest, None) is not None
        if self.disk is not None:
            present = self.disk.pop(digest, None) is not None or present
        return present


class TestLRUPinnedToLegacyBehaviour:
    @pytest.mark.parametrize("seed", range(8))
    def test_victim_sequence_matches_ordereddict(self, seed, tmp_path):
        """Puts, hits, disk promotions and invalidations keep the same order."""
        rng = random.Random(seed)
        keys = [f"k{index}" for index in range(12)]
        cache = ResultCache(memory_capacity=4, directory=tmp_path)
        legacy = LegacyLRUMemoryTier(4, disk=True)
        invalidated = 0
        for step in range(400):
            action = rng.random()
            digest = rng.choice(keys)
            if action < 0.35:
                cache.put(digest, payload(step))
                legacy.put(digest, payload(step))
            elif action < 0.9:
                assert cache.get(digest) == legacy.get(digest)
            else:
                present = legacy.invalidate(digest)
                assert cache.invalidate([digest]) == int(present)
                invalidated += present
            # Same residents in the same recency order, so the same victims.
            assert list(cache._memory) == list(legacy.memory)
        stats = cache.stats()
        assert legacy.evicted and legacy.disk_hits and invalidated, (
            "trace never evicted, promoted or invalidated; rebalance the mix"
        )
        assert stats.evictions == len(legacy.evicted)
        assert stats.hits == legacy.hits
        assert stats.disk_hits == legacy.disk_hits
        assert stats.misses == legacy.misses
        assert stats.invalidations == invalidated

    @pytest.mark.parametrize("seed", range(8))
    def test_cache_trace_matches_legacy_cache(self, seed):
        """Random put/get traces: same hits, misses, evictions, survivors."""
        rng = random.Random(1000 + seed)
        capacity = rng.randint(2, 6)
        cache = ResultCache(memory_capacity=capacity)
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
# recompute_seconds_saved: work conservation and cost metadata
# ----------------------------------------------------------------------
class TestRecomputeSecondsSaved:
    @pytest.mark.parametrize("with_disk", [False, True], ids=["memory", "disk"])
    @pytest.mark.parametrize("seed", range(4))
    def test_work_conservation_on_a_random_trace(self, seed, with_disk, tmp_path):
        """Every hit saves exactly the compute cost its entry was stored with."""
        rng = random.Random(2000 + seed)
        keys = [f"k{index}" for index in range(10)]
        cache = ResultCache(
            memory_capacity=3, directory=tmp_path if with_disk else None
        )
        cost_of: dict[int, float] = {}  # payload tag -> its pinned compute cost
        served = 0.0

        def compute_and_put(digest: str, tag: int) -> None:
            cost_of[tag] = rng.uniform(0.001, 2.0)
            cache.put(digest, payload(tag), compute_seconds=cost_of[tag])

        for step in range(400):
            action = rng.random()
            digest = rng.choice(keys)
            if action < 0.15:
                compute_and_put(digest, step)
            elif action < 0.9:
                hit = cache.get(digest)
                if hit is None:  # a miss recomputes and stores, as services do
                    compute_and_put(digest, step)
                else:
                    served += cost_of[hit["tag"]]
            else:
                cache.invalidate([digest])
        stats = cache.stats()
        assert stats.hits and stats.evictions and stats.invalidations
        if with_disk:
            assert stats.disk_hits  # costs came back through the envelope too
        # Same costs added in the same order: equal to the last bit.
        assert stats.recompute_seconds_saved == served

    def test_saved_seconds_accumulate_per_hit(self):
        cache = ResultCache()
        cache.put("a", payload(1), compute_seconds=2.5)
        cache.get("a")
        cache.get("a")
        assert cache.stats().recompute_seconds_saved == pytest.approx(5.0)

    def test_cost_metadata_survives_the_disk_round_trip(self, tmp_path):
        ResultCache(directory=tmp_path).put("a", payload(1), compute_seconds=3.0)
        reopened = ResultCache(directory=tmp_path)
        assert reopened.get("a") == payload(1)
        assert reopened.stats().recompute_seconds_saved == pytest.approx(3.0)


# ----------------------------------------------------------------------
# blobs written in older layouts keep loading
# ----------------------------------------------------------------------
class TestOlderBlobLayouts:
    def write_blob(self, directory, digest, blob) -> None:
        (directory / f"{digest}.json").write_text(json.dumps(blob) + "\n")

    def test_envelope_with_frequency_is_served_with_its_metadata(self, tmp_path):
        self.write_blob(
            tmp_path,
            "a",
            {
                "meta": {"compute_seconds": 1.25, "frequency": 7, "stored_at": 100.0},
                "payload": payload(1),
            },
        )
        clock = ManualClock(start=130.0)
        cache = ResultCache(directory=tmp_path, ttl=60.0, clock=clock)
        assert cache.get("a") == payload(1)
        assert cache.stats().recompute_seconds_saved == pytest.approx(1.25)
        clock.advance(29.0)  # 59 s after the blob's stored_at
        assert cache.get("a") == payload(1)
        clock.advance(1.0)  # the blob's own stamp, not the load, drives TTL
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.recompute_seconds_saved == pytest.approx(2.5)

    def test_bare_pre_envelope_payload_loads_with_default_metadata(self, tmp_path):
        self.write_blob(tmp_path, "a", payload(1))
        clock = ManualClock(start=500.0)
        cache = ResultCache(directory=tmp_path, ttl=60.0, clock=clock)
        assert cache.get("a") == payload(1)
        stats = cache.stats()
        assert stats.disk_hits == 1
        assert stats.recompute_seconds_saved == 0.0  # priced as free
        clock.advance(59.0)  # stamped when loaded: fresh for one more TTL
        assert cache.get("a") == payload(1)
        clock.advance(1.0)
        assert cache.get("a") is None

    @pytest.mark.parametrize(
        "meta",
        [
            {"compute_seconds": 1.0, "stored_at": "soon"},
            {"compute_seconds": "slow", "stored_at": 10.0},
            {"compute_seconds": None, "stored_at": [1]},
            {"compute_seconds": 1.0, "stored_at": float("nan")},
            {"compute_seconds": float("inf"), "stored_at": 10.0},
        ],
        ids=["stored_at-text", "cost-text", "wrong-types", "nan", "infinity"],
    )
    def test_malformed_meta_falls_back_to_the_defaults(self, tmp_path, meta):
        self.write_blob(tmp_path, "a", {"meta": meta, "payload": payload(1)})
        clock = ManualClock(start=500.0)
        cache = ResultCache(directory=tmp_path, ttl=60.0, clock=clock)
        assert cache.get("a") == payload(1)
        stats = cache.stats()
        assert stats.disk_hits == 1
        assert stats.disk_corruptions == 0
        assert stats.recompute_seconds_saved == 0.0
        clock.advance(59.0)  # stored_at defaulted to the load time
        assert cache.get("a") == payload(1)
        clock.advance(1.0)  # ...so the entry still expires after one TTL
        assert cache.get("a") is None


# ----------------------------------------------------------------------
# TTL expiry (ManualClock only — no wall-clock reads)
# ----------------------------------------------------------------------
class TestTTLExpiry:
    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(ttl=0)
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(ttl=-5)

    def test_expired_memory_entry_is_a_counted_miss_that_recomputes(self):
        clock = ManualClock()
        cache = ResultCache(ttl=60.0, clock=clock)
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
# invalidate / breaker degradation
# ----------------------------------------------------------------------
class TestInvalidateAndBreaker:
    def test_invalidated_digests_free_their_memory_slot(self):
        cache = ResultCache(memory_capacity=2)
        cache.put("a", payload(1), compute_seconds=1.0)
        cache.put("b", payload(2), compute_seconds=1.0)
        assert cache.invalidate(["b"]) == 1
        cache.put("c", payload(3), compute_seconds=1.0)  # refills the freed slot
        cache.put("d", payload(4), compute_seconds=1.0)  # one real eviction (a)
        stats = cache.stats()
        # A tier still counting the invalidated "b" would evict one entry
        # too many and over-count evictions.
        assert stats.evictions == 1
        assert stats.invalidations == 1
        assert cache.get("a") is None
        assert cache.get("c") == payload(3)
        assert cache.get("d") == payload(4)

    def test_memory_tier_serves_alone_while_the_breaker_is_open(self, tmp_path):
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
