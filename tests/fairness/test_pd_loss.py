"""Tests for PD loss (Definition 9) and the Price of Fairness (Equation 13)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import RankingError
from repro.fairness.pd_loss import pd_loss, price_of_fairness


class TestPdLoss:
    def test_identical_base_rankings_and_consensus(self):
        rankings = RankingSet.from_orders([[0, 1, 2]] * 4)
        assert pd_loss(rankings, Ranking([0, 1, 2])) == 0.0

    def test_fully_reversed_consensus(self):
        rankings = RankingSet.from_orders([[0, 1, 2, 3]] * 2)
        assert pd_loss(rankings, Ranking([3, 2, 1, 0])) == 1.0

    def test_intermediate_value(self):
        rankings = RankingSet.from_orders([[0, 1, 2], [2, 1, 0]])
        # Any consensus disagrees with exactly 3 of the 6 base pairs.
        assert pd_loss(rankings, Ranking([0, 1, 2])) == pytest.approx(0.5)

    def test_single_candidate_is_zero(self):
        rankings = RankingSet.from_orders([[0]])
        assert pd_loss(rankings, Ranking([0])) == 0.0

    def test_universe_mismatch(self):
        rankings = RankingSet.from_orders([[0, 1, 2]])
        with pytest.raises(RankingError):
            pd_loss(rankings, Ranking([0, 1]))

    @given(
        st.lists(st.permutations(list(range(5))), min_size=1, max_size=6),
        st.permutations(list(range(5))),
    )
    @settings(max_examples=60, deadline=None)
    def test_pd_loss_in_unit_interval(self, orders, consensus_order):
        rankings = RankingSet.from_orders(orders)
        value = pd_loss(rankings, Ranking(list(consensus_order)))
        assert 0.0 <= value <= 1.0

    @given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_pd_loss_plus_reverse_is_one(self, orders):
        """Disagreements with a consensus and its reverse partition all pairs."""
        rankings = RankingSet.from_orders(orders)
        consensus = Ranking(list(range(5)))
        assert pd_loss(rankings, consensus) + pd_loss(
            rankings, consensus.reversed()
        ) == pytest.approx(1.0)

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=7),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_summed_kendall_tau(self, n, m, weighted, seed):
        """The precedence-matrix read equals the per-ranking Kendall tau sum
        over (pairs * m), exactly; weights do not enter Definition 9."""
        rng = np.random.default_rng(seed)
        rankings = RankingSet.from_orders(
            [rng.permutation(n).tolist() for _ in range(m)]
        )
        if weighted:
            rankings = rankings.with_weights(rng.uniform(0.1, 3.0, size=m).tolist())
        consensus = Ranking(rng.permutation(n).tolist())
        pairs = n * (n - 1) // 2
        expected = (
            int(rankings.kendall_tau_vector(consensus).sum()) / (pairs * m)
            if pairs
            else 0.0
        )
        assert pd_loss(rankings, consensus) == expected

    def test_builds_and_then_reuses_the_cached_precedence_matrix(self):
        rankings = RankingSet.from_orders([[0, 1, 2, 3], [3, 1, 0, 2], [1, 0, 3, 2]])
        consensus = Ranking([1, 0, 2, 3])
        first = pd_loss(rankings, consensus)
        matrix = rankings.precedence_matrix()
        assert pd_loss(rankings, consensus) == first
        assert rankings.precedence_matrix() is matrix

    def test_patched_sets_match_a_rebuild(self):
        """pd_loss on with_added / with_removed reads the patched matrix."""
        rng = np.random.default_rng(3)
        orders = [rng.permutation(7).tolist() for _ in range(6)]
        base = RankingSet.from_orders(orders[:4])
        base.precedence_matrix()
        added = base.with_added([Ranking(order) for order in orders[4:]])
        removed = added.with_removed([0, 2])
        consensus = Ranking(rng.permutation(7).tolist())
        assert pd_loss(added, consensus) == pd_loss(
            RankingSet.from_orders(orders), consensus
        )
        assert pd_loss(removed, consensus) == pd_loss(
            RankingSet.from_orders([orders[1], *orders[3:]]), consensus
        )


class TestPriceOfFairness:
    def test_zero_when_fair_equals_unaware(self):
        rankings = RankingSet.from_orders([[0, 1, 2], [0, 2, 1]])
        consensus = Ranking([0, 1, 2])
        assert price_of_fairness(rankings, consensus, consensus) == 0.0

    def test_positive_when_fair_consensus_is_farther(self):
        rankings = RankingSet.from_orders([[0, 1, 2]] * 3)
        unaware = Ranking([0, 1, 2])
        fair = Ranking([2, 1, 0])
        assert price_of_fairness(rankings, fair, unaware) == pytest.approx(1.0)

    def test_sign_reflects_ordering(self):
        rankings = RankingSet.from_orders([[0, 1, 2]] * 3)
        better = Ranking([0, 1, 2])
        worse = Ranking([1, 0, 2])
        assert price_of_fairness(rankings, worse, better) > 0
        assert price_of_fairness(rankings, better, worse) < 0
