"""Tests for the exact Kemeny aggregator (HiGHS MILP, checked against branch and bound)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.kemeny import KemenyAggregator, exact_kemeny
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.optimize.branch_and_bound import branch_and_bound_kemeny


class TestKemenyAggregator:
    def test_unanimous_rankings(self):
        rankings = RankingSet.from_orders([[2, 0, 3, 1]] * 4)
        assert KemenyAggregator().aggregate(rankings) == Ranking([2, 0, 3, 1])

    def test_single_candidate(self):
        rankings = RankingSet.from_orders([[0]])
        assert KemenyAggregator().aggregate(rankings) == Ranking([0])

    def test_backends_agree(self, tiny_rankings):
        milp = KemenyAggregator().aggregate_with_diagnostics(tiny_rankings)
        _, oracle_cost = branch_and_bound_kemeny(tiny_rankings.precedence_matrix())
        assert milp.diagnostics["backend"] == "milp"
        assert milp.diagnostics["objective"] == pytest.approx(oracle_cost)
        assert kemeny_objective(milp.ranking, tiny_rankings) == pytest.approx(oracle_cost)

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            KemenyAggregator(backend="branch-and-bound")

    def test_condorcet_winner_ranked_first(self):
        rankings = RankingSet.from_orders([[2, 0, 1], [2, 1, 0], [0, 2, 1]])
        assert KemenyAggregator().aggregate(rankings)[0] == 2

    def test_weighted_kemeny_follows_heavy_ranking(self):
        rankings = RankingSet.from_orders([[0, 1, 2], [2, 1, 0]], weights=[10.0, 1.0])
        aggregator = KemenyAggregator(weighted=True)
        assert aggregator.name == "Kemeny-Weighted"
        assert aggregator.aggregate(rankings) == Ranking([0, 1, 2])

    def test_exact_kemeny_convenience(self, tiny_rankings):
        assert exact_kemeny(tiny_rankings) == KemenyAggregator().aggregate(tiny_rankings)

    def test_objective_diagnostic_matches_recomputation(self, tiny_rankings):
        result = KemenyAggregator().aggregate_with_diagnostics(tiny_rankings)
        assert kemeny_objective(result.ranking, tiny_rankings) == pytest.approx(
            result.diagnostics["objective"]
        )

    @given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=7))
    @settings(max_examples=20, deadline=None)
    def test_kemeny_never_worse_than_borda_or_any_base(self, orders):
        """The exact consensus is at least as close to R as any heuristic pick."""
        from repro.aggregation.borda import BordaAggregator

        rankings = RankingSet.from_orders(orders)
        exact = KemenyAggregator().aggregate(rankings)
        exact_cost = kemeny_objective(exact, rankings)
        borda_cost = kemeny_objective(BordaAggregator().aggregate(rankings), rankings)
        assert exact_cost <= borda_cost + 1e-9
        for base in rankings:
            assert exact_cost <= kemeny_objective(base, rankings) + 1e-9
