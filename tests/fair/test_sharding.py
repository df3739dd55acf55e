"""Property tests for sharded Make-MR-Fair (:mod:`repro.fair.sharding`).

The contract is **bit-identity**: for every shard count, the sharded batch
equals the serial ``[make_mr_fair(r, ...) for r in rankings]`` loop
element-wise — same repaired orders, same swap counts, same corrected
entities, in input order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.exceptions import ValidationError
from repro.fair.make_mr_fair import make_mr_fair
from repro.fair.sharding import default_shard_count, make_mr_fair_sharded


@pytest.fixture(scope="module")
def table() -> CandidateTable:
    return CandidateTable(
        {
            "Gender": ["M", "M", "W", "W", "M", "M", "W", "W"],
            "Race": ["A", "B", "A", "B", "A", "B", "A", "B"],
        }
    )


def _random_batch(seed: int, size: int, n: int = 8) -> list[Ranking]:
    rng = np.random.default_rng(seed)
    return [Ranking(rng.permutation(n).tolist()) for _ in range(size)]


def _flat(results) -> list[tuple]:
    return [
        (r.ranking.to_list(), r.n_swaps, tuple(r.corrected_entities), r.converged)
        for r in results
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_sharded_equals_serial(self, table, seed, n_shards):
        batch = _random_batch(seed, size=7)
        serial = [make_mr_fair(r, table, 0.2) for r in batch]
        sharded = make_mr_fair_sharded(batch, table, 0.2, n_shards=n_shards)
        assert _flat(sharded) == _flat(serial)

    def test_default_shard_count_path(self, table):
        batch = _random_batch(seed=7, size=5)
        serial = [make_mr_fair(r, table, 0.2) for r in batch]
        assert _flat(make_mr_fair_sharded(batch, table, 0.2)) == _flat(serial)

    def test_more_shards_than_rankings_clamped(self, table):
        batch = _random_batch(seed=8, size=2)
        serial = [make_mr_fair(r, table, 0.2) for r in batch]
        sharded = make_mr_fair_sharded(batch, table, 0.2, n_shards=16)
        assert _flat(sharded) == _flat(serial)

    def test_max_swaps_forwarded(self, table):
        batch = _random_batch(seed=9, size=4)
        serial = [make_mr_fair(r, table, 0.2, max_swaps=64) for r in batch]
        sharded = make_mr_fair_sharded(batch, table, 0.2, max_swaps=64, n_shards=2)
        assert _flat(sharded) == _flat(serial)

    def test_exhausted_swap_budget_raises_from_workers(self, table):
        from repro.exceptions import AggregationError

        batch = _random_batch(seed=9, size=4)
        with pytest.raises(AggregationError, match="did not reach delta"):
            make_mr_fair_sharded(batch, table, 0.05, max_swaps=1, n_shards=2)


class TestValidation:
    def test_empty_batch(self, table):
        assert make_mr_fair_sharded([], table, 0.2) == []

    def test_non_ranking_item_rejected(self, table):
        with pytest.raises(ValidationError, match="item 1"):
            make_mr_fair_sharded([Ranking(range(8)), [0, 1]], table, 0.2)

    def test_bad_shard_count_rejected(self, table):
        with pytest.raises(ValidationError, match="n_shards"):
            make_mr_fair_sharded(_random_batch(0, 2), table, 0.2, n_shards=0)


class TestDefaultShardCount:
    def test_bounded_by_rankings_and_positive(self):
        assert default_shard_count(0) == 1
        assert default_shard_count(1) == 1
        assert 1 <= default_shard_count(1000) <= 1000
