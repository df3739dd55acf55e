"""Tests for the fairness-preserving local Kemeny repair.

The repair's contract has three parts: (1) the engine-backed implementation
is *exactly* equivalent to the from-scratch reference (same swap sequence,
same final ranking, bit-identical objective); (2) the repair never leaves the
MANI-Rank-feasible region and never worsens the Kemeny objective; (3) the
``local_repair`` option of the seeded MFCR methods wires it in end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateTable
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.fair.local_repair import (
    fair_insertion_kemenization,
    fair_insertion_kemenization_reference,
    fair_local_kemenization,
    fair_local_kemenization_reference,
    fair_local_search,
)
from repro.fair.make_mr_fair import make_mr_fair
from repro.fair.registry import get_fair_method
from repro.fair.seeded import FairBordaAggregator
from repro.fairness.parity import mani_rank_satisfied


def _random_table(rng: np.random.Generator, n: int) -> CandidateTable:
    """Random candidate table where every attribute has >= 2 non-empty groups."""
    columns = {}
    for index in range(int(rng.integers(1, 3))):
        cardinality = int(rng.integers(2, 4))
        values = [f"v{v}" for v in range(cardinality)]
        values += [f"v{int(v)}" for v in rng.integers(0, cardinality, n - cardinality)]
        rng.shuffle(values)
        columns[f"P{index}"] = values
    return CandidateTable(columns)


def _draw_delta(rng: np.random.Generator, per_entity: bool):
    """A scalar threshold, or a mapping that gives P0 and the intersection
    their own limits (each entity's limit then enters the feasibility test)."""
    delta = float(rng.choice([0.2, 0.4, 0.6]))
    if not per_entity:
        return delta
    return {
        "default": delta,
        "P0": float(rng.choice([0.2, 0.4, 0.6])),
        CandidateTable.INTERSECTION: float(rng.choice([0.4, 0.6, 0.8])),
    }


_PER_ENTITY = pytest.mark.parametrize(
    "per_entity", [False, True], ids=["scalar", "per-entity"]
)


class TestEquivalenceWithReference:
    @_PER_ENTITY
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_engine_and_reference_agree(self, per_entity, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 22))
        table = _random_table(rng, n)
        rankings = RankingSet([Ranking.random(n, rng) for _ in range(int(rng.integers(2, 8)))])
        delta = _draw_delta(rng, per_entity)
        try:
            corrected = make_mr_fair(Ranking.random(n, rng), table, delta).ranking
        except AggregationError:
            # The random group structure can make delta infeasible; the
            # repair contract only concerns feasible inputs.
            return
        fast = fair_local_kemenization(rankings, corrected, table, delta)
        reference = fair_local_kemenization_reference(
            rankings, corrected, table, delta
        )
        assert fast.ranking == reference.ranking
        assert fast.n_swaps == reference.n_swaps
        assert fast.n_passes == reference.n_passes
        assert fast.objective == reference.objective
        assert fast.objective == kemeny_objective(fast.ranking, rankings)


class TestRepairGuarantees:
    def test_preserves_feasibility_and_objective(self, small_dataset):
        delta = 0.2
        corrected = make_mr_fair(
            Ranking.identity(small_dataset.table.n_candidates),
            small_dataset.table,
            delta,
        ).ranking
        repaired = fair_local_kemenization(
            small_dataset.rankings, corrected, small_dataset.table, delta
        )
        assert mani_rank_satisfied(repaired.ranking, small_dataset.table, delta)
        assert repaired.objective <= kemeny_objective(
            corrected, small_dataset.rankings
        )

    def test_no_feasible_improvement_is_identity(self, small_dataset):
        delta = 0.2
        corrected = make_mr_fair(
            Ranking.identity(small_dataset.table.n_candidates),
            small_dataset.table,
            delta,
        ).ranking
        first = fair_local_kemenization(
            small_dataset.rankings, corrected, small_dataset.table, delta
        )
        # A repaired ranking is a fixed point of the repair.
        second = fair_local_kemenization(
            small_dataset.rankings, first.ranking, small_dataset.table, delta
        )
        assert second.ranking == first.ranking
        assert second.n_swaps == 0

    def test_zero_pass_budget_returns_input(self, small_dataset):
        ranking = Ranking.identity(small_dataset.table.n_candidates)
        result = fair_local_kemenization(
            small_dataset.rankings, ranking, small_dataset.table, 1.0, max_passes=0
        )
        assert result.ranking == ranking
        assert result.n_swaps == 0

    def test_universe_mismatch_rejected(self, small_dataset):
        with pytest.raises(AggregationError):
            fair_local_kemenization(
                small_dataset.rankings, Ranking([0, 1]), small_dataset.table, 0.2
            )

    def test_trivial_threshold_reduces_to_local_kemenization(self, small_dataset):
        # With delta = 1 every ranking is feasible, so the repair must equal
        # plain local Kemenization.
        from repro.aggregation.local_search import local_kemenization

        initial = Ranking.identity(small_dataset.table.n_candidates)
        repaired = fair_local_kemenization(
            small_dataset.rankings, initial, small_dataset.table, 1.0
        )
        assert repaired.ranking == local_kemenization(
            small_dataset.rankings, initial
        )


class TestSeededWiring:
    def test_local_repair_option_keeps_feasibility_and_helps_objective(
        self, small_dataset
    ):
        delta = 0.2
        plain = FairBordaAggregator().aggregate_with_diagnostics(
            small_dataset.rankings, small_dataset.table, delta
        )
        repaired = FairBordaAggregator(
            local_repair=True
        ).aggregate_with_diagnostics(
            small_dataset.rankings, small_dataset.table, delta
        )
        assert mani_rank_satisfied(repaired.ranking, small_dataset.table, delta)
        assert "repair_swaps" in repaired.diagnostics
        assert repaired.diagnostics["repair_objective"] <= kemeny_objective(
            plain.ranking, small_dataset.rankings
        )

    def test_registry_exposes_repaired_variant(self, small_dataset):
        method = get_fair_method("fair-borda-repaired")
        assert method.name == "Fair-Borda+LK"
        consensus = method.aggregate(
            small_dataset.rankings, small_dataset.table, 0.2
        )
        assert mani_rank_satisfied(consensus, small_dataset.table, 0.2)


class TestInsertionRepair:
    @_PER_ENTITY
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_engine_and_reference_agree(self, per_entity, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 18))
        table = _random_table(rng, n)
        rankings = RankingSet([Ranking.random(n, rng) for _ in range(int(rng.integers(2, 8)))])
        delta = _draw_delta(rng, per_entity)
        try:
            corrected = make_mr_fair(Ranking.random(n, rng), table, delta).ranking
        except AggregationError:
            return
        fast = fair_insertion_kemenization(rankings, corrected, table, delta)
        reference = fair_insertion_kemenization_reference(
            rankings, corrected, table, delta
        )
        assert fast.ranking == reference.ranking
        assert fast.n_swaps == reference.n_swaps
        assert fast.n_moves == reference.n_moves
        assert fast.n_passes == reference.n_passes
        assert fast.objective == reference.objective
        assert fast.objective == kemeny_objective(fast.ranking, rankings)

    @_PER_ENTITY
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_never_worse_than_adjacent_repair_and_stays_feasible(
        self, per_entity, seed
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 18))
        table = _random_table(rng, n)
        rankings = RankingSet([Ranking.random(n, rng) for _ in range(int(rng.integers(2, 8)))])
        delta = _draw_delta(rng, per_entity)
        try:
            corrected = make_mr_fair(Ranking.random(n, rng), table, delta).ranking
        except AggregationError:
            return
        adjacent = fair_local_kemenization(rankings, corrected, table, delta)
        insertion = fair_insertion_kemenization(rankings, corrected, table, delta)
        assert insertion.objective <= adjacent.objective
        assert mani_rank_satisfied(insertion.ranking, table, delta)

    def test_zero_pass_budget_returns_input(self, small_dataset):
        ranking = Ranking.identity(small_dataset.table.n_candidates)
        result = fair_insertion_kemenization(
            small_dataset.rankings, ranking, small_dataset.table, 1.0, max_passes=0
        )
        assert result.ranking == ranking
        assert result.n_swaps == 0
        assert result.n_moves == 0

    def test_repaired_ranking_is_a_fixed_point(self, small_dataset):
        delta = 0.2
        corrected = make_mr_fair(
            Ranking.identity(small_dataset.table.n_candidates),
            small_dataset.table,
            delta,
        ).ranking
        first = fair_insertion_kemenization(
            small_dataset.rankings, corrected, small_dataset.table, delta
        )
        second = fair_insertion_kemenization(
            small_dataset.rankings, first.ranking, small_dataset.table, delta
        )
        assert second.ranking == first.ranking
        assert second.n_swaps == 0
        assert second.n_moves == 0

    def test_trivial_threshold_reduces_to_insertion_search(self, small_dataset):
        # With delta = 1 every ranking is feasible, so the fair insertion
        # repair must equal the unconstrained insertion local search.
        from repro.aggregation.search import local_search

        initial = Ranking.identity(small_dataset.table.n_candidates)
        repaired = fair_insertion_kemenization(
            small_dataset.rankings, initial, small_dataset.table, 1.0
        )
        assert repaired.ranking == local_search(
            small_dataset.rankings, initial, strategy="insertion"
        )


class TestFairLocalSearchDispatch:
    def test_adjacent_swap_dispatches_to_local_kemenization(self, small_dataset):
        initial = Ranking.identity(small_dataset.table.n_candidates)
        via_dispatch = fair_local_search(
            small_dataset.rankings, initial, small_dataset.table, 0.3
        )
        direct = fair_local_kemenization(
            small_dataset.rankings, initial, small_dataset.table, 0.3
        )
        assert via_dispatch == direct

    def test_insertion_dispatches_to_insertion_repair(self, small_dataset):
        initial = Ranking.identity(small_dataset.table.n_candidates)
        via_dispatch = fair_local_search(
            small_dataset.rankings,
            initial,
            small_dataset.table,
            0.3,
            strategy="insertion",
        )
        direct = fair_insertion_kemenization(
            small_dataset.rankings, initial, small_dataset.table, 0.3
        )
        assert via_dispatch == direct

    @pytest.mark.parametrize(
        "delta", [0.2, {"default": 0.2, "Race": 0.3}], ids=["scalar", "per-entity"]
    )
    def test_combined_preserves_feasibility_and_objective(self, small_dataset, delta):
        corrected = make_mr_fair(
            Ranking.identity(small_dataset.table.n_candidates),
            small_dataset.table,
            delta,
        ).ranking
        result = fair_local_search(
            small_dataset.rankings,
            corrected,
            small_dataset.table,
            delta,
            strategy="combined",
        )
        assert mani_rank_satisfied(result.ranking, small_dataset.table, delta)
        assert result.objective <= kemeny_objective(
            corrected, small_dataset.rankings
        )
        assert result.n_moves is not None

    def test_unknown_strategy_rejected(self, small_dataset):
        with pytest.raises(AggregationError):
            fair_local_search(
                small_dataset.rankings,
                Ranking.identity(small_dataset.table.n_candidates),
                small_dataset.table,
                0.3,
                strategy="nope",
            )


class TestInsertionSeededWiring:
    def test_strategy_name_selects_the_insertion_repair(self, small_dataset):
        delta = 0.2
        adjacent = FairBordaAggregator(
            local_repair=True
        ).aggregate_with_diagnostics(
            small_dataset.rankings, small_dataset.table, delta
        )
        insertion = FairBordaAggregator(
            local_repair="insertion"
        ).aggregate_with_diagnostics(
            small_dataset.rankings, small_dataset.table, delta
        )
        assert insertion.diagnostics["repair_strategy"] == "insertion"
        assert "repair_moves" in insertion.diagnostics
        assert mani_rank_satisfied(insertion.ranking, small_dataset.table, delta)
        assert (
            insertion.diagnostics["repair_objective"]
            <= adjacent.diagnostics["repair_objective"]
        )

    def test_invalid_strategy_fails_at_construction(self):
        with pytest.raises(AggregationError):
            FairBordaAggregator(local_repair="nope")

    def test_with_local_repair_clones(self, small_dataset):
        base = get_fair_method("fair-borda")
        clone = base.with_local_repair("insertion")
        assert base.local_repair is False
        assert clone.local_repair == "insertion"
        assert clone.name == base.name
        direct = FairBordaAggregator(local_repair="insertion").aggregate(
            small_dataset.rankings, small_dataset.table, 0.2
        )
        assert (
            clone.aggregate(small_dataset.rankings, small_dataset.table, 0.2)
            == direct
        )

    def test_registry_exposes_insertion_variant(self, small_dataset):
        method = get_fair_method("fair-borda-insertion")
        assert method.name == "Fair-Borda+Ins"
        delta = 0.2
        consensus = method.aggregate(
            small_dataset.rankings, small_dataset.table, delta
        )
        assert mani_rank_satisfied(consensus, small_dataset.table, delta)
        repaired = get_fair_method("fair-borda-repaired").aggregate(
            small_dataset.rankings, small_dataset.table, delta
        )
        assert kemeny_objective(
            consensus, small_dataset.rankings
        ) <= kemeny_objective(repaired, small_dataset.rankings)
