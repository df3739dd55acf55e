"""Tests for the two-tier result store: LRU eviction, disk tier, counters."""

from __future__ import annotations

import json

import pytest

from repro.cache.store import DiskTier, ResultCache
from repro.io.serialization import canonical_json


def payload(tag: int) -> dict:
    return {"tag": tag, "consensus": list(range(tag, tag + 3))}


class TestMemoryLRU:
    def test_eviction_at_capacity(self):
        cache = ResultCache(memory_capacity=2)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        cache.put("c", payload(3))
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.memory_entries == 2
        assert cache.get("a") is None  # memory-only cache: evicted means gone
        assert cache.get("b") == payload(2)
        assert cache.get("c") == payload(3)

    def test_lru_recency_order(self):
        cache = ResultCache(memory_capacity=2)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        assert cache.get("a") == payload(1)  # refresh a; b becomes the LRU entry
        cache.put("c", payload(3))
        assert cache.get("b") is None
        assert cache.get("a") == payload(1)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="memory_capacity"):
            ResultCache(memory_capacity=0)

    def test_unbounded_memory_never_evicts(self):
        cache = ResultCache(memory_capacity=None)
        for index in range(50):
            cache.put(str(index), payload(index))
        stats = cache.stats()
        assert stats.evictions == 0
        assert stats.memory_entries == 50


class TestDiskTier:
    def test_eviction_falls_back_to_disk(self, tmp_path):
        cache = ResultCache(memory_capacity=1, directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # evicts a from memory; disk still holds it
        assert cache.stats().evictions == 1
        assert cache.get("a") == payload(1)
        stats = cache.stats()
        assert stats.disk_hits == 1
        assert stats.memory_hits == 0

    def test_disk_promotion_back_into_memory(self, tmp_path):
        cache = ResultCache(memory_capacity=1, directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        assert cache.get("a") == payload(1)  # disk hit, promoted (evicting b)
        assert cache.get("a") == payload(1)  # now a memory hit
        stats = cache.stats()
        assert stats.disk_hits == 1
        assert stats.memory_hits == 1
        assert stats.evictions == 2

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("a", payload(1))
        assert list(tmp_path.glob("*.tmp")) == []
        blob = json.loads((tmp_path / "a.json").read_text())
        assert blob["payload"] == payload(1)
        assert set(blob["meta"]) == {"compute_seconds", "stored_at"}

    def test_blob_is_the_canonical_json_of_its_envelope(self, tmp_path):
        # The memory tier's bytes go into the blob verbatim; the file must
        # still be exactly the canonical encode of the envelope dict, so
        # cache directories stay valid across versions.
        stored = {"name": "Zoë", "share": 1 / 3, "order": [2, 0, 1], "none": None}
        cache = ResultCache(directory=tmp_path, clock=lambda: 12.5)
        cache.put("a", stored, compute_seconds=0.75)
        envelope = {"meta": {"compute_seconds": 0.75, "stored_at": 12.5}, "payload": stored}
        assert (tmp_path / "a.json").read_text() == canonical_json(envelope) + "\n"
        assert cache.get_bytes("a") == canonical_json(stored).encode()

    def test_persists_across_instances(self, tmp_path):
        ResultCache(directory=tmp_path).put("a", payload(1))
        reopened = ResultCache(directory=tmp_path)
        assert reopened.get("a") == payload(1)
        assert reopened.stats().disk_hits == 1

    def test_truncated_blob_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(memory_capacity=1, directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # push a out of memory
        blob = tmp_path / "a.json"
        blob.write_text(blob.read_text()[:7])  # truncate mid-JSON
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.disk_corruptions == 1
        assert stats.misses == 1
        assert not blob.exists()  # quarantined so the slot heals
        cache.put("a", payload(1))  # recompute path stores cleanly again
        assert ResultCache(directory=tmp_path).get("a") == payload(1)

    def test_non_object_blob_is_discarded(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.path_for("x").write_text('["not", "an", "object"]')
        assert tier.load("x") is None
        assert tier.pop_corruptions() == 1
        assert not tier.path_for("x").exists()

    def test_size_counters(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        stats = cache.stats()
        assert stats.disk_entries == 2
        assert stats.disk_bytes == sum(
            path.stat().st_size for path in tmp_path.glob("*.json")
        )


class TestStatsAccuracy:
    def test_counter_accuracy_over_a_scripted_sequence(self, tmp_path):
        cache = ResultCache(memory_capacity=2, directory=tmp_path)
        assert cache.get("a") is None  # miss
        cache.put("a", payload(1))
        assert cache.get("a") == payload(1)  # memory hit
        cache.put("b", payload(2))
        cache.put("c", payload(3))  # evicts a
        assert cache.get("a") == payload(1)  # disk hit (promotes, evicting b)
        assert cache.get("b") == payload(2)  # disk hit again (promotes, evicting c)
        assert cache.get("missing") is None  # miss
        stats = cache.stats()
        assert stats.hits == 3
        assert stats.memory_hits == 1
        assert stats.disk_hits == 2
        assert stats.misses == 2
        assert stats.evictions == 3
        assert stats.requests == 5
        assert stats.hit_rate == pytest.approx(3 / 5)

    def test_stats_to_dict_round_trip(self):
        cache = ResultCache()
        cache.put("a", payload(1))
        cache.get("a")
        cache.get("b")
        as_dict = cache.stats().to_dict()
        assert as_dict["hits"] == 1
        assert as_dict["misses"] == 1
        assert as_dict["requests"] == 2
        assert as_dict["hit_rate"] == pytest.approx(0.5)
        assert as_dict["memory_entries"] == 1

    def test_empty_cache_hit_rate_is_zero(self):
        assert ResultCache().stats().hit_rate == 0.0


class TestInvalidation:
    def test_invalidate_removes_entries_from_both_tiers(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        removed = cache.invalidate(["a", "b", "unknown"], profile_version=7)
        assert removed == 2
        assert cache.get("a") is None and cache.get("b") is None
        assert not (tmp_path / "a.json").exists()
        stats = cache.stats()
        assert stats.invalidations == 2
        assert stats.profile_version == 7

    def test_invalidation_is_distinct_from_eviction(self):
        cache = ResultCache(memory_capacity=1)
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # evicts a
        cache.invalidate(["b"])
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.invalidations == 1
        assert stats.profile_version == 0  # unchanged when not given

    def test_invalidating_unknown_digests_is_a_counted_no_op(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        assert cache.invalidate(["missing"], profile_version=3) == 0
        stats = cache.stats()
        assert stats.invalidations == 0
        assert stats.profile_version == 3

    def test_duplicate_digests_invalidate_once(self):
        cache = ResultCache()
        cache.put("a", payload(1))
        assert cache.invalidate(["a", "a"]) == 1
        assert cache.stats().invalidations == 1

    def test_memory_only_cache_invalidates(self):
        cache = ResultCache()
        cache.put("a", payload(1))
        assert cache.invalidate(["a"]) == 1
        assert cache.get("a") is None
