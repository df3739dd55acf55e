"""Tests for the fairness-unaware aggregator registry and shared base class."""

from __future__ import annotations

import pytest

from repro.aggregation import available_aggregators, get_aggregator
from repro.aggregation.base import AggregationResult, RankAggregator
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError


class TestRegistry:
    def test_all_names_instantiate(self, tiny_rankings):
        for name in available_aggregators():
            aggregator = get_aggregator(name)
            consensus = aggregator.aggregate(tiny_rankings)
            assert isinstance(consensus, Ranking)
            assert consensus.n_candidates == tiny_rankings.n_candidates

    def test_lookup_is_case_insensitive(self):
        assert get_aggregator("BORDA").name == "Borda"

    def test_unknown_name_raises(self):
        with pytest.raises(AggregationError):
            get_aggregator("approval-voting")

    def test_constructor_kwargs_forwarded(self):
        aggregator = get_aggregator("kemeny", weighted=True)
        assert aggregator.name == "Kemeny-Weighted"
        rankings = RankingSet.from_orders([[0, 2, 1], [1, 2, 0]], weights=[3.0, 1.0])
        assert aggregator.aggregate(rankings) == Ranking([0, 2, 1])


class TestBaseClassContract:
    def test_every_registered_method_has_unique_name(self):
        names = [get_aggregator(name).name for name in available_aggregators()]
        assert len(names) == len(set(names))

    def test_result_wrapper_for_plain_ranking(self, tiny_rankings):
        class Trivial(RankAggregator):
            name = "Trivial"

            def _aggregate(self, rankings):
                return rankings[0]

        result = Trivial().aggregate_with_diagnostics(tiny_rankings)
        assert isinstance(result, AggregationResult)
        assert result.method == "Trivial"

    def test_invalid_input_type_rejected(self, tiny_rankings):
        class Trivial(RankAggregator):
            name = "Trivial"

            def _aggregate(self, rankings):
                return rankings[0]

        with pytest.raises(AggregationError):
            Trivial().aggregate("not a ranking set")  # type: ignore[arg-type]

    def test_repr_contains_name(self):
        assert "Borda" in repr(get_aggregator("borda"))
