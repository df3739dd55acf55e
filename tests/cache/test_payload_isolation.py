"""A caller that mutates a returned payload must not change what the cache serves.

Every dict-returning entry point — :meth:`ResultCache.get`,
:meth:`ConsensusCacheService.aggregate` and
:meth:`StreamingConsensusService.aggregate` — hands out a payload parsed
afresh from the stored canonical bytes, so reversing a returned consensus
order or overwriting its PD loss leaves the next answer untouched, on a
miss's response and on a hit's alike.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.cache.service import compute_consensus_payload
from repro.cache.store import ResultCache
from repro.io.csv_io import read_candidate_table, read_ranking_set
from repro.streaming import StreamEvent, StreamingConsensusEngine, StreamingConsensusService

DATA = Path(__file__).resolve().parents[2] / "examples" / "data"
DELTA = 0.35


def vandalise(payload: dict) -> None:
    """The mutation that used to leak into the cache: reverse the order, fake the loss."""
    payload["consensus"]["order"].reverse()
    payload["pd_loss"] = -1


@pytest.fixture(params=[None, "disk"], ids=["memory-only", "with-disk"])
def cache(request, tmp_path):
    return ResultCache(directory=tmp_path / "cache" if request.param else None)


@pytest.fixture(scope="module")
def example_profile():
    table = read_candidate_table(DATA / "candidates.csv")
    return read_ranking_set(DATA / "rankings.csv", table), table


class TestResultCache:
    def test_mutating_the_put_payload_does_not_reach_the_cache(self, cache):
        payload = {"consensus": {"order": [3, 1, 0, 2]}, "pd_loss": 0.25}
        cache.put("a", payload)
        vandalise(payload)
        assert cache.get("a") == {"consensus": {"order": [3, 1, 0, 2]}, "pd_loss": 0.25}

    def test_mutating_a_hit_does_not_reach_the_next_hit(self, cache):
        cache.put("a", {"consensus": {"order": [3, 1, 0, 2]}, "pd_loss": 0.25})
        vandalise(cache.get("a"))
        assert cache.get("a") == {"consensus": {"order": [3, 1, 0, 2]}, "pd_loss": 0.25}


class TestConsensusCacheService:
    def test_miss_then_hit(self, example_profile):
        rankings, table = example_profile
        fresh = compute_consensus_payload(rankings, table, delta=DELTA)
        service = api.open_cache()
        miss = service.aggregate(rankings, table, delta=DELTA)
        assert miss["cached"] is False
        vandalise(miss["result"])
        hit = service.aggregate(rankings, table, delta=DELTA)
        assert hit["cached"] is True
        assert hit["result"] == fresh
        assert hit["result"]["pd_loss"] >= 0

    def test_hit_then_hit(self, example_profile, tmp_path):
        rankings, table = example_profile
        fresh = compute_consensus_payload(rankings, table, delta=DELTA)
        service = api.open_cache(tmp_path / "cache")
        service.aggregate(rankings, table, delta=DELTA)
        first = service.aggregate(rankings, table, delta=DELTA)
        vandalise(first["result"])
        second = service.aggregate(rankings, table, delta=DELTA)
        assert second["cached"] is True
        assert second["result"] == fresh


class TestStreamingConsensusService:
    @pytest.fixture
    def streaming(self, tiny_table, cache):
        rng = np.random.default_rng(7)
        service = StreamingConsensusService(
            StreamingConsensusEngine(tiny_table, delta=DELTA), cache=cache
        )
        service.update(
            add=[StreamEvent("add", tuple(int(c) for c in rng.permutation(6))) for _ in range(4)]
        )
        return service

    def test_miss_then_hit(self, streaming):
        fresh = streaming.engine.rebuild_reference()
        miss = streaming.aggregate()
        assert miss["cached"] is False
        vandalise(miss["result"])
        hit = streaming.aggregate()
        assert hit["cached"] is True
        assert hit["result"] == fresh

    def test_hit_then_hit(self, streaming):
        fresh = streaming.engine.rebuild_reference()
        streaming.aggregate()
        vandalise(streaming.aggregate()["result"])
        assert streaming.aggregate()["result"] == fresh

    def test_mutating_the_engine_consensus_does_not_reach_the_service(self, streaming):
        fresh = streaming.engine.rebuild_reference()
        vandalise(streaming.engine.consensus())
        assert streaming.engine.consensus() == fresh
        assert streaming.aggregate()["result"] == fresh
