"""Property tests for the incremental Kemeny-delta engine (KemenyDeltaEngine).

The engine's contract is *exact* equivalence with the from-scratch
evaluators: after any sequence of adjacent swaps, general swaps, block moves,
and bubble passes, the running objective must be bit-identical to recomputing
:func:`repro.core.distances.kemeny_objective` on the materialised ranking,
and the engine-backed :func:`local_kemenization` must return the identical
ranking to the retained from-scratch reference.  These tests drive randomized
move sequences through both paths and compare — the same pattern as
``tests/fairness/test_incremental.py`` for the fairness engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.local_search import (
    local_kemenization,
    local_kemenization_reference,
)
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError


def _random_set(rng: np.random.Generator, n: int, m: int) -> RankingSet:
    return RankingSet([Ranking.random(n, rng) for _ in range(m)])


class TestConstruction:
    def test_initial_objective_matches_scratch(self, tiny_rankings):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        engine = KemenyDeltaEngine(tiny_rankings, ranking)
        assert engine.objective == kemeny_objective(ranking, tiny_rankings)

    def test_to_ranking_round_trip(self, tiny_rankings):
        ranking = Ranking([5, 1, 0, 4, 2, 3])
        assert KemenyDeltaEngine(tiny_rankings, ranking).to_ranking() == ranking

    def test_accepts_precomputed_precedence_matrix(self, tiny_rankings):
        ranking = Ranking([0, 1, 2, 3, 4, 5])
        from_set = KemenyDeltaEngine(tiny_rankings, ranking)
        from_matrix = KemenyDeltaEngine(
            tiny_rankings.precedence_matrix(), ranking
        )
        assert from_matrix.objective == from_set.objective

    def test_universe_mismatch_rejected(self, tiny_rankings):
        with pytest.raises(AggregationError):
            KemenyDeltaEngine(tiny_rankings, Ranking([0, 1]))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(AggregationError):
            KemenyDeltaEngine(np.zeros((3, 4)), Ranking([0, 1, 2]))

    def test_input_ranking_not_mutated(self, tiny_rankings):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        engine = KemenyDeltaEngine(tiny_rankings, ranking)
        engine.apply_swap(0, 4)
        engine.sweep_adjacent()
        assert ranking.to_list() == [0, 3, 5, 1, 2, 4]


class TestDeltaQueries:
    def test_delta_swap_matches_materialised_swap(self, tiny_rankings):
        ranking = Ranking([2, 0, 4, 5, 1, 3])
        engine = KemenyDeltaEngine(tiny_rankings, ranking)
        objective = kemeny_objective(ranking, tiny_rankings)
        for first in range(6):
            for second in range(first + 1, 6):
                expected = (
                    kemeny_objective(ranking.swap(first, second), tiny_rankings)
                    - objective
                )
                assert engine.delta_swap(first, second) == expected
                # Symmetric in the argument order.
                assert engine.delta_swap(second, first) == expected
        assert engine.delta_swap(3, 3) == 0.0

    def test_delta_adjacent_swap_matches_delta_swap(self, tiny_rankings):
        engine = KemenyDeltaEngine(tiny_rankings, Ranking([4, 1, 0, 2, 5, 3]))
        order = engine.order_list
        for position in range(5):
            assert engine.delta_adjacent_swap(position) == engine.delta_swap(
                order[position], order[position + 1]
            )

    def test_adjacent_margins_match_point_reads(self, tiny_rankings):
        engine = KemenyDeltaEngine(tiny_rankings, Ranking([4, 1, 0, 2, 5, 3]))

        def point_reads():
            order = engine.order_list
            return [engine.margin(order[p], order[p + 1]) for p in range(5)]

        assert engine.adjacent_margins() == point_reads()
        # The gather follows the current order through every kind of update.
        engine.apply_adjacent_swap(2)
        assert engine.adjacent_margins() == point_reads()
        engine.apply_move(0, 5)
        assert engine.adjacent_margins() == point_reads()
        engine.sweep_adjacent()
        assert engine.adjacent_margins() == point_reads()

    def test_delta_move_matches_materialised_move(self, tiny_rankings):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        engine = KemenyDeltaEngine(tiny_rankings, ranking)
        objective = kemeny_objective(ranking, tiny_rankings)
        for candidate in range(6):
            for new_position in range(6):
                order = ranking.to_list()
                order.remove(candidate)
                order.insert(new_position, candidate)
                expected = (
                    kemeny_objective(Ranking(order), tiny_rankings) - objective
                )
                assert engine.delta_move(candidate, new_position) == expected

    def test_queries_do_not_mutate_state(self, tiny_rankings):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        engine = KemenyDeltaEngine(tiny_rankings, ranking)
        before = engine.objective
        engine.delta_swap(0, 4)
        engine.delta_adjacent_swap(2)
        engine.delta_move(1, 5)
        engine.margin(0, 1)
        assert engine.objective == before
        assert engine.to_ranking() == ranking

    def test_move_target_out_of_range_rejected(self, tiny_rankings):
        engine = KemenyDeltaEngine(tiny_rankings, Ranking.identity(6))
        with pytest.raises(AggregationError):
            engine.apply_move(0, 6)
        # The delta query rejects the same illegal targets as the mutation
        # (a probed delta must never describe an inapplicable move).
        with pytest.raises(AggregationError):
            engine.delta_move(0, -1)
        with pytest.raises(AggregationError):
            engine.delta_move(0, 6)

    def test_move_deltas_matches_delta_move_for_every_target(self, tiny_rankings):
        ranking = Ranking([2, 5, 0, 4, 1, 3])
        engine = KemenyDeltaEngine(tiny_rankings, ranking)
        for candidate in range(6):
            deltas = engine.move_deltas(candidate)
            assert deltas.shape == (6,)
            for target in range(6):
                # Bit-identical for unweighted sets (integer-valued floats).
                assert deltas[target] == engine.delta_move(candidate, target)

    def test_best_move_ties_break_towards_smallest_position(self, tiny_rankings):
        engine = KemenyDeltaEngine(tiny_rankings, Ranking([2, 5, 0, 4, 1, 3]))
        for candidate in range(6):
            delta, target = engine.best_move(candidate)
            deltas = engine.move_deltas(candidate)
            assert delta == deltas.min()
            assert target == int(np.flatnonzero(deltas == delta)[0])


class TestMoveEdgeCases:
    def test_no_op_move_is_free(self, tiny_rankings):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        engine = KemenyDeltaEngine(tiny_rankings, ranking)
        for candidate in range(6):
            position = engine.positions_list[candidate]
            assert engine.delta_move(candidate, position) == 0.0
            assert engine.apply_move(candidate, position) == 0.0
        assert engine.to_ranking() == ranking
        assert engine.objective == kemeny_objective(ranking, tiny_rankings)

    @pytest.mark.parametrize("target", [0, 5])
    def test_moves_to_both_ends(self, tiny_rankings, target):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        for candidate in range(6):
            engine = KemenyDeltaEngine(tiny_rankings, ranking)
            delta = engine.apply_move(candidate, target)
            moved = engine.to_ranking()
            assert moved.positions[candidate] == target
            expected = ranking.to_list()
            expected.remove(candidate)
            expected.insert(target, candidate)
            assert moved.to_list() == expected
            assert engine.objective == kemeny_objective(moved, tiny_rankings)
            assert delta == engine.objective - kemeny_objective(
                ranking, tiny_rankings
            )

    def test_single_candidate_engine(self):
        rankings = RankingSet.from_orders([[0]])
        engine = KemenyDeltaEngine(rankings, Ranking([0]))
        assert engine.objective == 0.0
        assert engine.delta_move(0, 0) == 0.0
        assert engine.apply_move(0, 0) == 0.0
        assert engine.move_deltas(0).tolist() == [0.0]
        assert engine.best_move(0) == (0.0, 0)
        assert engine.adjacent_margins() == []
        assert not engine.sweep_adjacent()
        assert engine.to_ranking() == Ranking([0])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_running_objective_exact_through_random_moves(self, seed):
        """After *every* applied block move — not just at the end of the
        sequence — the engine's running objective is bit-identical to
        ``kemeny_objective`` recomputed from scratch on the materialised
        ranking, and the applied delta equals the objective change."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 16))
        rankings = _random_set(rng, n, int(rng.integers(1, 8)))
        engine = KemenyDeltaEngine(rankings, Ranking.random(n, rng))
        previous = engine.objective
        for _ in range(20):
            candidate = int(rng.integers(0, n))
            target = int(rng.integers(0, n))
            delta = engine.apply_move(candidate, target)
            scratch = kemeny_objective(engine.to_ranking(), rankings)
            assert engine.objective == scratch
            assert engine.objective == previous + delta
            previous = scratch


class TestMoveSequences:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_move_sequence_stays_exact(self, seed):
        """Objective values stay bit-identical to the from-scratch evaluator
        through randomized swap / block-move / bubble-pass sequences."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        rankings = _random_set(rng, n, int(rng.integers(1, 10)))
        engine = KemenyDeltaEngine(rankings, Ranking.random(n, rng))
        if seed % 2:
            # Force eager objective tracking on half the examples; the other
            # half exercises the lazy from-current-order computation.
            engine.objective
        for _ in range(30):
            operation = int(rng.integers(0, 4))
            if operation == 0:
                engine.apply_adjacent_swap(int(rng.integers(0, n - 1)))
            elif operation == 1:
                first, second = rng.choice(n, size=2, replace=False)
                engine.apply_swap(int(first), int(second))
            elif operation == 2:
                engine.apply_move(int(rng.integers(0, n)), int(rng.integers(0, n)))
            else:
                engine.sweep_adjacent()
        current = engine.to_ranking()
        assert engine.objective == kemeny_objective(current, rankings)
        assert engine.order_list == current.order.tolist()
        assert engine.positions_list == current.positions.tolist()

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_local_kemenization_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        rankings = _random_set(rng, n, int(rng.integers(1, 10)))
        initial = Ranking.random(n, rng)
        for max_passes in (0, 1, 2, 5, 50):
            assert local_kemenization(
                rankings, initial, max_passes=max_passes
            ) == local_kemenization_reference(
                rankings, initial, max_passes=max_passes
            )

    def test_applied_delta_equals_objective_change(self, tiny_rankings, rng):
        engine = KemenyDeltaEngine(tiny_rankings, Ranking.random(6, rng))
        for _ in range(20):
            before = engine.objective
            first, second = rng.choice(6, size=2, replace=False)
            delta = engine.apply_swap(int(first), int(second))
            assert engine.objective == before + delta

    def test_swap_then_swap_back_restores_objective(self, tiny_rankings):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        engine = KemenyDeltaEngine(tiny_rankings, ranking)
        reference = engine.objective
        engine.apply_swap(0, 4)
        engine.apply_swap(0, 4)
        assert engine.to_ranking() == ranking
        assert engine.objective == reference


class TestWeighted:
    def test_weighted_objective_matches_masked_sum(self, tiny_rankings, rng):
        weighted = tiny_rankings.with_weights([0.5, 2.0, 1.25])
        ranking = Ranking.random(6, rng)
        engine = KemenyDeltaEngine(weighted, ranking, weighted=True)
        precedence = weighted.precedence_matrix(weighted=True)
        positions = ranking.positions
        above = positions[:, np.newaxis] < positions[np.newaxis, :]
        assert engine.objective == float(precedence[above].sum())
        for _ in range(15):
            first, second = rng.choice(6, size=2, replace=False)
            engine.apply_swap(int(first), int(second))
        current = engine.to_ranking().positions
        above = current[:, np.newaxis] < current[np.newaxis, :]
        # Weighted margins are genuine floats: the running value is exact up
        # to accumulation order, not bit-identical (see the module docstring).
        assert engine.objective == pytest.approx(float(precedence[above].sum()))
