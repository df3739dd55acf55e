"""Randomized traces through the incremental engines against their oracles.

Every fast path is held to a from-scratch evaluator on the unweighted,
integer-valued inputs the engines are fed, compared with ``==`` (no
tolerances): the Kemeny-delta engine's carry-run sweep, general swaps and
block-move scoring against :func:`~repro.core.distances.kemeny_objective` and
:func:`~repro.aggregation.local_search.local_kemenization_reference`; the
fairness engine's per-swap and per-move parity updates against
:func:`~repro.fairness.parity.parity_scores`; Make-MR-Fair against
:func:`~repro.fair.make_mr_fair.make_mr_fair_reference`; and the vectorised
favored-pair count against its naive reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.local_search import local_kemenization_reference
from repro.core.candidates import CandidateTable
from repro.core.distances import kemeny_objective
from repro.core.pairwise import (
    favored_mixed_pairs_by_group,
    favored_mixed_pairs_by_group_naive,
)
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.fair.make_mr_fair import make_mr_fair, make_mr_fair_reference
from repro.fairness.incremental import FairnessState
from repro.fairness.parity import parity_scores


def _random_profile(rng: np.random.Generator, n: int, m: int) -> RankingSet:
    orders = [rng.permutation(n).tolist() for _ in range(m)]
    return RankingSet.from_orders(orders)


def _random_table(rng: np.random.Generator, n: int) -> CandidateTable:
    columns = {}
    for index in range(2):
        cardinality = int(rng.integers(2, 4))
        values = [f"v{v}" for v in range(cardinality)]
        values += [f"v{int(v)}" for v in rng.integers(0, cardinality, n - cardinality)]
        rng.shuffle(values)
        columns[f"P{index}"] = values
    return CandidateTable(columns)


class TestSweepTraces:
    """The carry-run bubble sweep: reference decisions, exact objectives."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_sweep_to_convergence(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(6, 24)), int(rng.integers(3, 12))
        rankings = _random_profile(rng, n, m)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial)
        improved, steps = True, 0
        while improved and steps < 10_000:
            improved = engine.sweep_adjacent()
            assert engine.objective == kemeny_objective(engine.to_ranking(), rankings)
            steps += 1
        assert not improved
        expected = local_kemenization_reference(rankings, initial, max_passes=steps)
        assert engine.to_ranking() == expected

    @pytest.mark.parametrize("seed", [10, 11])
    def test_sweep_interleaved_with_swaps(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        rankings = _random_profile(rng, n, 7)
        engine = KemenyDeltaEngine(rankings, Ranking(rng.permutation(n).tolist()))
        for _ in range(30):
            first, second = (int(c) for c in rng.choice(n, size=2, replace=False))
            before = engine.to_ranking()
            delta = engine.apply_swap(first, second)
            assert engine.to_ranking() == before.swap(first, second)
            assert delta == kemeny_objective(engine.to_ranking(), rankings) - (
                kemeny_objective(before, rankings)
            )
            engine.sweep_adjacent()
            assert engine.objective == kemeny_objective(engine.to_ranking(), rankings)


class TestMoveTraces:
    """Block-move scoring: every target's delta equals the rescored move."""

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_move_deltas_every_candidate(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 20))
        rankings = _random_profile(rng, n, 9)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial)
        base = kemeny_objective(initial, rankings)
        for candidate in range(n):
            expected = [
                kemeny_objective(initial.move(candidate, target), rankings) - base
                for target in range(n)
            ]
            assert engine.move_deltas(candidate).tolist() == expected

    @pytest.mark.parametrize("seed", [30, 31])
    def test_random_move_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = 15
        rankings = _random_profile(rng, n, 6)
        engine = KemenyDeltaEngine(rankings, Ranking(rng.permutation(n).tolist()))
        for _ in range(40):
            candidate = int(rng.integers(n))
            position = int(rng.integers(n))
            before = engine.to_ranking()
            delta = engine.apply_move(candidate, position)
            assert engine.to_ranking() == before.move(candidate, position)
            assert delta == kemeny_objective(engine.to_ranking(), rankings) - (
                kemeny_objective(before, rankings)
            )
            assert engine.objective == kemeny_objective(engine.to_ranking(), rankings)


class TestParityTraces:
    """Per-swap and per-move parity updates: the rescored ranking's floats."""

    @pytest.mark.parametrize("seed", [40, 41, 42, 43, 44, 45])
    def test_swap_and_move_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        table = _random_table(rng, n)
        state = FairnessState(Ranking(rng.permutation(n).tolist()), table)
        for _ in range(50):
            current = state.to_ranking()
            if rng.random() < 0.5:
                first, second = (int(c) for c in rng.choice(n, size=2, replace=False))
                after = current.swap(first, second)
                assert state.parity_after_swap(first, second) == parity_scores(
                    after, table
                )
                state.apply_swap(first, second)
            else:
                candidate = int(rng.integers(n))
                rows = state.parity_after_moves(candidate)
                for target in range(n):
                    assert {
                        entity: row[target] for entity, row in rows.items()
                    } == parity_scores(current.move(candidate, target), table)
                position = int(rng.integers(n))
                after = current.move(candidate, position)
                state.apply_move(candidate, position)
            assert state.to_ranking() == after
            assert state.parity_scores() == parity_scores(after, table)
            for entity in table.all_fairness_entities():
                membership = table.group_membership_array(entity)
                n_groups = len(table.groups(entity))
                assert np.array_equal(
                    state.favored_counts(entity),
                    favored_mixed_pairs_by_group_naive(after, membership, n_groups),
                )


class TestRepairTraces:
    """Make-MR-Fair end to end: the from-scratch evaluator's exact result."""

    @pytest.mark.parametrize("seed", [50, 51, 52, 53])
    def test_repair_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 18))
        table = _random_table(rng, n)
        ranking = Ranking(rng.permutation(n).tolist())
        delta = float(rng.choice([0.05, 0.1, 0.2]))
        try:
            reference = make_mr_fair_reference(ranking, table, delta)
        except AggregationError as error:
            # Infeasible threshold for this random group structure: the
            # engine must fail the same way.
            with pytest.raises(AggregationError, match="no progress"):
                make_mr_fair(ranking, table, delta)
            assert "no progress" in str(error)
            return
        result = make_mr_fair(ranking, table, delta)
        assert result.ranking == reference.ranking
        assert result.n_swaps == reference.n_swaps
        assert result.corrected_entities == reference.corrected_entities
        assert result.converged == reference.converged


class TestFavoredPairs:
    """The vectorised favored-pair count against its naive reference."""

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_favored_mixed_pairs_by_group(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        n_groups = int(rng.integers(2, 5))
        membership = rng.integers(0, n_groups, n).astype(np.int64)
        ranking = Ranking(rng.permutation(n).tolist())
        assert np.array_equal(
            favored_mixed_pairs_by_group(ranking, membership, n_groups),
            favored_mixed_pairs_by_group_naive(ranking, membership, n_groups),
        )
