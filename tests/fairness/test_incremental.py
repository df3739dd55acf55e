"""Property tests for the incremental fairness engine (FairnessState).

The engine's contract is *exact* equivalence with the from-scratch
evaluators: after any sequence of swaps, every maintained statistic must be
bit-identical to recomputing it on the materialised ranking.  These tests
drive randomized swap sequences through both paths and compare.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateTable
from repro.core.pairwise import favored_mixed_pairs_by_group
from repro.core.ranking import Ranking
from repro.exceptions import FairnessError
from repro.fairness.fpr import fpr_by_group, fpr_vector
from repro.fairness.incremental import FairnessState
from repro.fairness.parity import parity_scores
from repro.fairness.thresholds import FairnessThresholds


def _random_table(rng: np.random.Generator, n: int, n_attributes: int = 2) -> CandidateTable:
    """Random candidate table where every attribute has >= 2 non-empty groups."""
    columns = {}
    for index in range(n_attributes):
        cardinality = int(rng.integers(2, 4))
        # One candidate per value first, so no group is empty.
        values = [f"v{v}" for v in range(cardinality)]
        values += [f"v{int(v)}" for v in rng.integers(0, cardinality, n - cardinality)]
        rng.shuffle(values)
        columns[f"P{index}"] = values
    return CandidateTable(columns)


def _assert_state_matches_scratch(state: FairnessState, table: CandidateTable) -> None:
    """Every maintained statistic equals the from-scratch value, bit for bit."""
    ranking = state.to_ranking()
    scratch = parity_scores(ranking, table)
    assert state.parity_scores() == scratch
    for entity in table.all_fairness_entities():
        membership = table.group_membership_array(entity)
        groups = table.groups(entity)
        expected_favored = favored_mixed_pairs_by_group(ranking, membership, len(groups))
        assert np.array_equal(state.favored_counts(entity), expected_favored)
        assert np.array_equal(state.fpr_vector(entity), fpr_vector(ranking, table, entity))


class TestConstruction:
    def test_initial_state_matches_scratch(self, tiny_table):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        state = FairnessState(ranking, tiny_table)
        _assert_state_matches_scratch(state, tiny_table)

    def test_to_ranking_round_trip(self, tiny_table):
        ranking = Ranking([5, 1, 0, 4, 2, 3])
        assert FairnessState(ranking, tiny_table).to_ranking() == ranking

    def test_universe_mismatch_rejected(self, tiny_table):
        with pytest.raises(FairnessError):
            FairnessState(Ranking([0, 1]), tiny_table)

    def test_group_covering_universe_rejected(self):
        # Declared domain has two values but only one occurs: a single group
        # covers every candidate, so the FPR is undefined (same failure as
        # the from-scratch fpr_vector).
        table = CandidateTable({"A": ["x", "x", "x"]}, domains={"A": ("x", "y")})
        with pytest.raises(FairnessError):
            FairnessState(Ranking([0, 1, 2]), table)

    def test_input_ranking_not_mutated(self, tiny_table):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        state = FairnessState(ranking, tiny_table)
        state.apply_swap(0, 4)
        assert ranking.to_list() == [0, 3, 5, 1, 2, 4]


class TestSwapQueries:
    def test_parity_after_swap_matches_materialised_swap(self, tiny_table):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        state = FairnessState(ranking, tiny_table)
        for first in range(6):
            for second in range(first + 1, 6):
                expected = parity_scores(ranking.swap(first, second), tiny_table)
                assert state.parity_after_swap(first, second) == expected
                # Symmetric in the argument order.
                assert state.parity_after_swap(second, first) == expected

    def test_delta_swap_matches_favored_difference(self, tiny_table):
        ranking = Ranking([2, 0, 4, 5, 1, 3])
        state = FairnessState(ranking, tiny_table)
        for first in range(6):
            for second in range(first + 1, 6):
                swapped = ranking.swap(first, second)
                deltas = state.delta_swap(first, second)
                for entity in tiny_table.all_fairness_entities():
                    membership = tiny_table.group_membership_array(entity)
                    n_groups = len(tiny_table.groups(entity))
                    before = favored_mixed_pairs_by_group(ranking, membership, n_groups)
                    after = favored_mixed_pairs_by_group(swapped, membership, n_groups)
                    assert np.array_equal(deltas[entity], after - before)

    def test_queries_do_not_mutate_state(self, tiny_table):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        state = FairnessState(ranking, tiny_table)
        before = state.parity_scores()
        state.parity_after_swap(0, 4)
        state.delta_swap(1, 5)
        state.potential_after_swap(2, 3, [0.1] * len(state.entities))
        assert state.parity_scores() == before
        assert state.to_ranking() == ranking

    def test_potential_after_swap_matches_violation_potential(self, tiny_table):
        from repro.fair.make_mr_fair import _violation_potential

        thresholds = FairnessThresholds(0.2, {"Race": 0.05})
        state = FairnessState(Ranking([0, 3, 5, 1, 2, 4]), tiny_table)
        limits = [thresholds.threshold_for(entity) for entity in state.entities]
        assert state.potential(limits) == _violation_potential(
            state.parity_scores(), thresholds
        )
        for first, second in [(0, 4), (1, 2), (0, 5), (3, 4)]:
            after = state.potential_after_swap(first, second, limits)
            assert after == _violation_potential(
                state.parity_after_swap(first, second), thresholds
            )
            # Make-MR-Fair tries moves by applying them and swapping back:
            # the applied potential must equal the one scored aside.
            state.apply_swap(first, second)
            assert state.potential(limits) == after
            state.apply_swap(first, second)

    def test_extreme_groups_match_fpr_argminmax(self, tiny_table):
        state = FairnessState(Ranking([4, 1, 0, 2, 5, 3]), tiny_table)
        for entity in tiny_table.all_fairness_entities():
            scores = state.fpr_vector(entity)
            assert state.extreme_groups(entity) == (
                int(np.argmax(scores)),
                int(np.argmin(scores)),
            )


class TestMoveQueries:
    @staticmethod
    def _materialised_move(ranking: Ranking, candidate: int, target: int) -> Ranking:
        order = ranking.to_list()
        order.remove(candidate)
        order.insert(target, candidate)
        return Ranking(order)

    @staticmethod
    def _assert_rows_match_materialised(state: FairnessState, table) -> None:
        """Every candidate's row, every target (0, n - 1 and the candidate's
        own position included), equals the rescored materialised move."""
        ranking = state.to_ranking()
        n = ranking.n_candidates
        for candidate in range(n):
            rows = state.parity_after_moves(candidate)
            assert set(rows) == set(table.all_fairness_entities())
            for row in rows.values():
                assert row.dtype == np.float64 and row.shape == (n,)
            for target in range(n):
                moved = TestMoveQueries._materialised_move(ranking, candidate, target)
                assert {
                    entity: row[target] for entity, row in rows.items()
                } == parity_scores(moved, table)

    @pytest.mark.parametrize(
        "order", [[0, 3, 5, 1, 2, 4], [0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]]
    )
    def test_parity_after_moves_matches_materialised_move(self, tiny_table, order):
        state = FairnessState(Ranking(order), tiny_table)
        self._assert_rows_match_materialised(state, tiny_table)

    def test_single_attribute_rows(self, single_attribute_table):
        """No intersection entity: one row per query, still exact."""
        state = FairnessState(Ranking([2, 0, 3, 1]), single_attribute_table)
        assert list(state.parity_after_moves(0)) == ["Gender"]
        self._assert_rows_match_materialised(state, single_attribute_table)

    def test_two_candidates(self):
        table = CandidateTable({"Gender": ["M", "F"]})
        state = FairnessState(Ranking([1, 0]), table)
        self._assert_rows_match_materialised(state, table)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rows_stay_exact_through_mutations(self, seed):
        """The prefix table behind the rows is dropped by every swap and move."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        table = _random_table(rng, n, n_attributes=int(rng.integers(1, 4)))
        state = FairnessState(Ranking.random(n, rng), table)
        for _ in range(4):
            self._assert_rows_match_materialised(state, table)
            if rng.random() < 0.5:
                first, second = rng.choice(n, size=2, replace=False)
                state.apply_swap(int(first), int(second))
            else:
                state.apply_move(int(rng.integers(0, n)), int(rng.integers(0, n)))

    def test_move_query_does_not_mutate_state(self, tiny_table):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        state = FairnessState(ranking, tiny_table)
        before = state.parity_scores()
        state.parity_after_moves(0)
        state.parity_after_moves(5)
        assert state.parity_scores() == before
        assert state.to_ranking() == ranking

    def test_move_target_out_of_range_rejected(self, tiny_table):
        state = FairnessState(Ranking.identity(6), tiny_table)
        with pytest.raises(FairnessError):
            state.apply_move(0, 6)
        with pytest.raises(FairnessError):
            state.apply_move(0, -1)

    def test_no_op_move_leaves_state_unchanged(self, tiny_table):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        state = FairnessState(ranking, tiny_table)
        for candidate in range(6):
            position = int(ranking.positions[candidate])
            rows = state.parity_after_moves(candidate)
            assert {
                entity: row[position] for entity, row in rows.items()
            } == state.parity_scores()
            state.apply_move(candidate, position)
        assert state.to_ranking() == ranking
        _assert_state_matches_scratch(state, tiny_table)

    @pytest.mark.parametrize("target", [0, 5])
    def test_moves_to_both_ends(self, tiny_table, target):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        for candidate in range(6):
            state = FairnessState(ranking, tiny_table)
            state.apply_move(candidate, target)
            assert state.to_ranking() == self._materialised_move(
                ranking, candidate, target
            )
            _assert_state_matches_scratch(state, tiny_table)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_move_sequence_stays_exact(self, seed):
        """Every maintained statistic stays bit-identical to the from-scratch
        evaluators through randomized block-move sequences (the contract the
        fairness-constrained insertion repair relies on)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        table = _random_table(rng, n, n_attributes=int(rng.integers(1, 4)))
        state = FairnessState(Ranking.random(n, rng), table)
        for _ in range(20):
            state.apply_move(int(rng.integers(0, n)), int(rng.integers(0, n)))
        _assert_state_matches_scratch(state, table)

    def test_interleaved_swaps_and_moves_stay_exact(self, tiny_table, rng):
        state = FairnessState(Ranking.random(6, rng), tiny_table)
        for _ in range(15):
            if rng.random() < 0.5:
                first, second = rng.choice(6, size=2, replace=False)
                state.apply_swap(int(first), int(second))
            else:
                state.apply_move(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
            _assert_state_matches_scratch(state, tiny_table)


class TestSwapSequences:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_swap_sequence_stays_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        table = _random_table(rng, n, n_attributes=int(rng.integers(1, 4)))
        ranking = Ranking.random(n, rng)
        state = FairnessState(ranking, table)
        for _ in range(25):
            first, second = rng.choice(n, size=2, replace=False)
            state.apply_swap(int(first), int(second))
        _assert_state_matches_scratch(state, table)

    def test_fpr_by_group_equivalence_after_swaps(self, tiny_table, rng):
        state = FairnessState(Ranking.random(6, rng), tiny_table)
        for _ in range(10):
            first, second = rng.choice(6, size=2, replace=False)
            state.apply_swap(int(first), int(second))
            current = state.to_ranking()
            for entity in tiny_table.all_fairness_entities():
                scratch = fpr_by_group(current, tiny_table, entity)
                groups = tiny_table.groups(entity)
                fast = state.fpr_vector(entity)
                assert {g.label: s for g, s in zip(groups, fast)} == scratch

    def test_swap_then_swap_back_restores_counts(self, tiny_table):
        ranking = Ranking([0, 3, 5, 1, 2, 4])
        state = FairnessState(ranking, tiny_table)
        reference = {
            entity: state.favored_counts(entity)
            for entity in tiny_table.all_fairness_entities()
        }
        state.apply_swap(0, 4)
        state.apply_swap(0, 4)
        assert state.to_ranking() == ranking
        for entity, counts in reference.items():
            assert np.array_equal(state.favored_counts(entity), counts)


class TestGroupPositions:
    @staticmethod
    def _assert_lists_match_positions(state: FairnessState, table: CandidateTable) -> None:
        positions = state.to_ranking().positions
        for entity in table.all_fairness_entities():
            for index, group in enumerate(table.groups(entity)):
                assert state.group_positions(entity, index) == sorted(
                    positions[list(group.members)].tolist()
                )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sorted_lists_track_random_swaps_and_moves(self, seed):
        """After any mix of swaps and block moves, each group's list equals
        the sorted positions of its members.  Reading the lists builds them,
        so checking at random steps covers both lists kept up to date by
        swaps and lists rebuilt after a move."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        table = _random_table(rng, n, n_attributes=int(rng.integers(1, 4)))
        state = FairnessState(Ranking.random(n, rng), table)
        for _ in range(30):
            if rng.random() < 0.7:
                first, second = rng.choice(n, size=2, replace=False)
                state.apply_swap(int(first), int(second))
            else:
                state.apply_move(int(rng.integers(0, n)), int(rng.integers(0, n)))
            if rng.random() < 0.3:
                self._assert_lists_match_positions(state, table)
        self._assert_lists_match_positions(state, table)
