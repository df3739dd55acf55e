"""Tests for the Ranking data structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import Ranking
from repro.exceptions import RankingError

permutations = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.permutations(list(range(n)))
)


class TestConstruction:
    def test_valid_permutation(self):
        ranking = Ranking([2, 0, 1])
        assert ranking.to_list() == [2, 0, 1]

    def test_identity(self):
        assert Ranking.identity(4).to_list() == [0, 1, 2, 3]

    def test_identity_requires_positive_n(self):
        with pytest.raises(RankingError):
            Ranking.identity(0)

    def test_empty_rejected(self):
        with pytest.raises(RankingError):
            Ranking([])

    def test_two_dimensional_rejected(self):
        with pytest.raises(RankingError):
            Ranking([[0, 1], [1, 0]])

    def test_duplicate_candidate_rejected(self):
        with pytest.raises(RankingError):
            Ranking([0, 1, 1])

    def test_out_of_range_candidate_rejected(self):
        with pytest.raises(RankingError):
            Ranking([0, 1, 3])

    def test_id_past_64_bits_is_a_ranking_error(self):
        with pytest.raises(RankingError, match=r"got values in \[0, 100000000000000000000\]"):
            Ranking([0, 10**20])

    def test_negative_candidate_rejected(self):
        with pytest.raises(RankingError):
            Ranking([0, -1, 1])

    def test_from_scores_descending(self):
        ranking = Ranking.from_scores([10.0, 30.0, 20.0])
        assert ranking.to_list() == [1, 2, 0]

    def test_from_scores_ascending(self):
        ranking = Ranking.from_scores([10.0, 30.0, 20.0], descending=False)
        assert ranking.to_list() == [0, 2, 1]

    def test_from_scores_tie_breaks_by_candidate_id(self):
        ranking = Ranking.from_scores([5.0, 5.0, 5.0])
        assert ranking.to_list() == [0, 1, 2]

    def test_from_scores_rejects_nan(self):
        with pytest.raises(RankingError):
            Ranking.from_scores([1.0, float("nan")])

    def test_from_scores_rejects_empty(self):
        with pytest.raises(RankingError):
            Ranking.from_scores([])

    def test_from_positions(self):
        ranking = Ranking.from_positions([2, 0, 1])  # candidate 1 is best
        assert ranking.to_list() == [1, 2, 0]

    def test_from_positions_invalid(self):
        with pytest.raises(RankingError):
            Ranking.from_positions([0, 0, 1])

    def test_random_is_permutation(self, rng):
        ranking = Ranking.random(25, rng)
        assert sorted(ranking.to_list()) == list(range(25))


class TestAccessors:
    def test_positions_are_inverse_of_order(self):
        ranking = Ranking([3, 1, 0, 2])
        for position, candidate in enumerate(ranking):
            assert ranking.position_of(candidate) == position
            assert ranking.candidate_at(position) == candidate

    def test_rank_of_is_one_based(self):
        ranking = Ranking([3, 1, 0, 2])
        assert ranking.rank_of(3) == 1
        assert ranking.rank_of(2) == 4

    def test_prefers(self):
        ranking = Ranking([3, 1, 0, 2])
        assert ranking.prefers(3, 2)
        assert not ranking.prefers(2, 3)

    def test_top(self):
        ranking = Ranking([3, 1, 0, 2])
        assert ranking.top(2).tolist() == [3, 1]

    def test_top_negative_raises(self):
        with pytest.raises(RankingError):
            Ranking([0, 1]).top(-1)

    def test_getitem(self):
        ranking = Ranking([3, 1, 0, 2])
        assert ranking[0] == 3

    def test_order_is_read_only(self):
        ranking = Ranking([0, 1, 2])
        with pytest.raises(ValueError):
            ranking.order[0] = 5

    def test_pairs_enumeration(self):
        ranking = Ranking([2, 0, 1])
        assert list(ranking.pairs()) == [(2, 0), (2, 1), (0, 1)]

    def test_repr_small_and_large(self):
        assert "Ranking(" in repr(Ranking([0, 1, 2]))
        assert "..." in repr(Ranking.identity(20))


class TestTransformations:
    def test_swap_returns_new_ranking(self):
        ranking = Ranking([0, 1, 2, 3])
        swapped = ranking.swap(0, 3)
        assert swapped.to_list() == [3, 1, 2, 0]
        assert ranking.to_list() == [0, 1, 2, 3]

    def test_move_to_new_position(self):
        ranking = Ranking([0, 1, 2, 3])
        moved = ranking.move(3, 0)
        assert moved.to_list() == [3, 0, 1, 2]

    def test_move_out_of_range(self):
        with pytest.raises(RankingError):
            Ranking([0, 1]).move(0, 5)

    def test_reversed(self):
        assert Ranking([0, 1, 2]).reversed().to_list() == [2, 1, 0]

    def test_restricted_to_preserves_relative_order(self):
        ranking = Ranking([4, 2, 0, 3, 1])
        assert ranking.restricted_to([0, 1, 4]) == [4, 0, 1]


class TestEqualityAndHash:
    def test_equal_rankings(self):
        assert Ranking([0, 2, 1]) == Ranking(np.array([0, 2, 1]))

    def test_unequal_rankings(self):
        assert Ranking([0, 2, 1]) != Ranking([0, 1, 2])

    def test_not_equal_to_other_type(self):
        assert Ranking([0, 1]) != [0, 1]

    def test_hash_consistency(self):
        assert hash(Ranking([1, 0])) == hash(Ranking([1, 0]))
        assert len({Ranking([1, 0]), Ranking([1, 0]), Ranking([0, 1])}) == 2


class TestProperties:
    @given(permutations)
    @settings(max_examples=50, deadline=None)
    def test_positions_inverse_property(self, order):
        ranking = Ranking(order)
        reconstructed = Ranking.from_positions(ranking.positions)
        assert reconstructed == ranking

    @given(permutations)
    @settings(max_examples=50, deadline=None)
    def test_reverse_is_involution(self, order):
        ranking = Ranking(order)
        assert ranking.reversed().reversed() == ranking

    @given(permutations, st.data())
    @settings(max_examples=50, deadline=None)
    def test_swap_is_involution(self, order, data):
        ranking = Ranking(order)
        if ranking.n_candidates < 2:
            return
        first = data.draw(st.integers(0, ranking.n_candidates - 1))
        second = data.draw(st.integers(0, ranking.n_candidates - 1))
        if first == second:
            return
        assert ranking.swap(first, second).swap(first, second) == ranking
