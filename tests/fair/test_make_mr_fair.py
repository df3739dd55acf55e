"""Tests for the Make-MR-Fair post-processing algorithm (Algorithm 2)."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.exceptions import AggregationError
from repro.fair.make_mr_fair import make_mr_fair, make_mr_fair_reference
from repro.fairness.parity import mani_rank_satisfied, parity_scores
from repro.fairness.pd_loss import pd_loss
from repro.fairness.thresholds import FairnessThresholds


class TestBasicCorrection:
    def test_already_fair_ranking_is_unchanged(self, tiny_table):
        ranking = Ranking([0, 2, 4, 1, 5, 3])
        result = make_mr_fair(ranking, tiny_table, 1.0)
        assert result.ranking == ranking
        assert result.n_swaps == 0
        assert result.converged

    def test_biased_ranking_is_corrected(self, tiny_table, biased_ranking_for_tiny_table):
        result = make_mr_fair(biased_ranking_for_tiny_table, tiny_table, 0.35)
        assert mani_rank_satisfied(result.ranking, tiny_table, 0.35)
        assert result.n_swaps > 0

    def test_output_is_still_a_permutation(self, tiny_table, biased_ranking_for_tiny_table):
        result = make_mr_fair(biased_ranking_for_tiny_table, tiny_table, 0.35)
        assert sorted(result.ranking.to_list()) == list(range(6))

    def test_input_ranking_not_mutated(self, tiny_table, biased_ranking_for_tiny_table):
        original = biased_ranking_for_tiny_table.to_list()
        make_mr_fair(biased_ranking_for_tiny_table, tiny_table, 0.35)
        assert biased_ranking_for_tiny_table.to_list() == original

    def test_corrected_entities_recorded(self, tiny_table, biased_ranking_for_tiny_table):
        result = make_mr_fair(biased_ranking_for_tiny_table, tiny_table, 0.35)
        assert len(result.corrected_entities) == result.n_swaps
        assert set(result.corrected_entities) <= set(tiny_table.all_fairness_entities())

    def test_universe_mismatch_rejected(self, tiny_table):
        with pytest.raises(AggregationError):
            make_mr_fair(Ranking([0, 1]), tiny_table, 0.1)

    def test_per_entity_thresholds_respected(self, tiny_table, biased_ranking_for_tiny_table):
        thresholds = FairnessThresholds(1.0, {"Gender": 0.4})
        result = make_mr_fair(biased_ranking_for_tiny_table, tiny_table, thresholds)
        scores = parity_scores(result.ranking, tiny_table)
        assert scores["Gender"] <= 0.4 + 1e-9
        # Unconstrained entities may stay unfair.
        assert result.converged


class TestIncrementalReferenceEquivalence:
    """The incremental engine must replay the reference's exact swap sequence."""

    def _assert_identical(self, ranking, table, delta):
        try:
            reference = make_mr_fair_reference(ranking, table, delta)
            reference_error = None
        except AggregationError as error:
            reference, reference_error = None, str(error)
        try:
            fast = make_mr_fair(ranking, table, delta)
            fast_error = None
        except AggregationError as error:
            fast, fast_error = None, str(error)
        assert fast_error == reference_error
        if reference is not None:
            assert fast.ranking == reference.ranking
            assert fast.n_swaps == reference.n_swaps
            assert fast.corrected_entities == reference.corrected_entities
            assert fast.converged == reference.converged

    def test_identical_on_tiny_table(self, tiny_table, biased_ranking_for_tiny_table):
        for delta in (0.1, 0.35, 0.6):
            self._assert_identical(biased_ranking_for_tiny_table, tiny_table, delta)

    def test_identical_on_small_mallows_dataset(self, small_dataset):
        from repro.aggregation.borda import BordaAggregator

        seed = BordaAggregator().aggregate(small_dataset.rankings)
        for delta in (0.1, 0.3):
            self._assert_identical(seed, small_dataset.table, delta)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identical_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 24))
        values = [["x", "y"][int(v)] for v in rng.integers(0, 2, n - 2)] + ["x", "y"]
        rng.shuffle(values)
        table = CandidateTable(
            {"A": values, "B": [["u", "v"][i % 2] for i in range(n)]}
        )
        ranking = Ranking.random(n, rng)
        delta = float(rng.choice([0.15, 0.3, 0.5]))
        self._assert_identical(ranking, table, delta)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identical_under_per_entity_thresholds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 24))
        values = [["x", "y"][int(v)] for v in rng.integers(0, 2, n - 2)] + ["x", "y"]
        rng.shuffle(values)
        table = CandidateTable(
            {"A": values, "B": [["u", "v"][i % 2] for i in range(n)]}
        )
        ranking = Ranking.random(n, rng)
        # A random subset of the entities gets its own threshold; the rest
        # take the mapping's default, or 1.0 when it has none.
        delta = {
            entity: float(rng.choice([0.15, 0.3, 0.5, 1.0]))
            for entity in table.all_fairness_entities()
            if rng.random() < 0.7
        }
        if rng.random() < 0.5:
            delta["default"] = float(rng.choice([0.2, 0.4]))
        self._assert_identical(ranking, table, delta)

    @pytest.mark.parametrize(
        ("attribute", "order"),
        [
            # Reversing the fallback's promotion order changes the result.
            ("xyyxyyy", [2, 0, 1, 3, 5, 6, 4]),
            # Reversing its demotion order changes the result.
            ("yyyxxyy", [6, 0, 5, 3, 2, 1, 4]),
        ],
    )
    def test_identical_through_the_exhaustive_fallback(
        self, monkeypatch, attribute, order
    ):
        # Fixed inputs on which the cheap move pool stalls, so the engine
        # picks the best move of the exhaustive pool.  Moves tie there, so
        # the pool's order decides the swap, and the reference pins it.
        module = importlib.import_module("repro.fair.make_mr_fair")
        original = module._single_step_pairs
        exhaustive_calls = []

        def spy(state, entity, exhaustive=False):
            if exhaustive:
                exhaustive_calls.append(entity)
            return original(state, entity, exhaustive)

        monkeypatch.setattr(module, "_single_step_pairs", spy)
        table = CandidateTable(
            {"A": list(attribute), "B": [["u", "v"][i % 2] for i in range(7)]}
        )
        self._assert_identical(Ranking(order), table, 0.3)
        assert exhaustive_calls == ["intersection"]


class TestConvergenceProperties:
    def test_stricter_delta_costs_more_pd_loss(self, small_dataset):
        from repro.aggregation.borda import BordaAggregator

        seed = BordaAggregator().aggregate(small_dataset.rankings)
        losses = {}
        for delta in (0.5, 0.3, 0.1):
            corrected = make_mr_fair(seed, small_dataset.table, delta)
            losses[delta] = pd_loss(small_dataset.rankings, corrected.ranking)
        # The greedy correction is not provably monotone swap-by-swap, but a
        # clearly stricter threshold must not come out clearly cheaper.
        assert losses[0.5] <= losses[0.1] + 0.02

    def test_swap_budget_exhaustion_raises(self, tiny_table, biased_ranking_for_tiny_table):
        with pytest.raises(AggregationError):
            make_mr_fair(biased_ranking_for_tiny_table, tiny_table, 0.05, max_swaps=1)

    def test_infeasible_singleton_intersection_raises(self):
        table = CandidateTable({"A": ["x", "x", "y", "y"], "B": ["u", "v", "u", "v"]})
        # All intersectional groups are singletons -> IRP is always 1.
        with pytest.raises(AggregationError):
            make_mr_fair(Ranking([0, 1, 2, 3]), table, 0.5)

    def test_unbalanced_groups_converge(self, rng):
        values = ["a"] * 12 + ["b"] * 3 + ["c"] * 5
        rng.shuffle(values)
        table = CandidateTable({"X": values})
        for seed in range(3):
            ranking = Ranking.random(20, np.random.default_rng(seed))
            result = make_mr_fair(ranking, table, 0.15)
            assert mani_rank_satisfied(result.ranking, table, 0.15)

    @given(st.permutations(list(range(12))), st.sampled_from([0.15, 0.3, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_correction_reaches_threshold_on_balanced_table(self, order, delta):
        table = CandidateTable(
            {
                "Gender": ["M", "W"] * 6,
                "Race": ["A", "A", "B", "B", "C", "C"] * 2,
            }
        )
        result = make_mr_fair(Ranking(list(order)), table, delta)
        assert mani_rank_satisfied(result.ranking, table, delta)

    def test_three_attribute_table(self, rng):
        table = CandidateTable(
            {
                "Gender": ["M", "W"] * 8,
                "Race": (["A"] * 4 + ["B"] * 4) * 2,
                "Age": ["young"] * 8 + ["old"] * 8,
            }
        )
        ranking = Ranking.random(16, rng)
        result = make_mr_fair(ranking, table, 0.25)
        assert mani_rank_satisfied(result.ranking, table, 0.25)
