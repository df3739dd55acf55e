"""Tests for the RankingSet (base rankings) container."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import RankingError, ValidationError


class TestConstruction:
    def test_basic(self, tiny_rankings):
        assert tiny_rankings.n_rankings == 3
        assert tiny_rankings.n_candidates == 6
        assert len(tiny_rankings) == 3

    def test_default_labels(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]])
        assert rankings.labels == ("r1", "r2")

    def test_explicit_labels(self, tiny_rankings):
        assert tiny_rankings.labels == ("r1", "r2", "r3")
        assert tiny_rankings.label_of(2) == "r3"

    def test_empty_rejected(self):
        with pytest.raises(RankingError):
            RankingSet([])

    def test_mixed_universe_rejected(self):
        with pytest.raises(RankingError):
            RankingSet([Ranking([0, 1]), Ranking([0, 1, 2])])

    def test_non_ranking_item_rejected(self):
        with pytest.raises(RankingError):
            RankingSet([[0, 1]])  # type: ignore[list-item]

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            RankingSet([Ranking([0, 1])], labels=["a", "b"])

    def test_weight_validation(self):
        ranking = Ranking([0, 1])
        with pytest.raises(ValidationError):
            RankingSet([ranking], weights=[-1.0])
        with pytest.raises(ValidationError):
            RankingSet([ranking], weights=[0.0])
        with pytest.raises(ValidationError):
            RankingSet([ranking], weights=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected_by_every_constructor(self, bad):
        # NaN passes both the sign and the positive-sum checks, and one NaN
        # weight used to turn every weighted precedence entry into NaN.
        with pytest.raises(ValidationError, match="finite"):
            RankingSet([Ranking([0, 1]), Ranking([1, 0])], weights=[bad, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            RankingSet.from_orders([[0, 1], [1, 0]], weights=[bad, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            RankingSet.from_position_matrix(np.array([[0, 1], [1, 0]]), weights=[1.0, bad])
        with pytest.raises(ValidationError, match="finite"):
            RankingSet.from_orders([[0, 1]]).with_added([Ranking([1, 0])], weights=[bad])

    def test_negative_infinity_keeps_the_sign_message(self):
        with pytest.raises(ValidationError, match="non-negative"):
            RankingSet.from_orders([[0, 1]], weights=[float("-inf")])

    def test_from_score_columns(self):
        rankings = RankingSet.from_score_columns(
            {"math": [1.0, 3.0, 2.0], "reading": [3.0, 2.0, 1.0]}
        )
        assert rankings.labels == ("math", "reading")
        assert rankings[0].to_list() == [1, 2, 0]
        assert rankings[1].to_list() == [0, 1, 2]

    def test_iteration_and_indexing(self, tiny_rankings):
        assert list(tiny_rankings)[0] == tiny_rankings[0]


class TestMatrixFirst:
    def test_rectangular_orders_build_no_members(self):
        rankings = RankingSet.from_orders([[0, 2, 1], [2, 1, 0]])
        assert rankings._members is None
        assert rankings.n_rankings == len(rankings) == 2
        assert rankings.to_order_lists() == [[0, 2, 1], [2, 1, 0]]
        assert rankings.position_matrix().tolist() == [[0, 2, 1], [2, 1, 0]]
        assert rankings._members is None
        first = rankings[0]
        assert first.to_list() == [0, 2, 1]
        assert first.positions.tolist() == [0, 2, 1]
        assert rankings[0] is first  # built once, on first use
        assert list(rankings) == [Ranking([0, 2, 1]), Ranking([2, 1, 0])]

    def test_matrices_are_read_only_and_inverse(self, rng):
        orders = np.vstack([rng.permutation(9) for _ in range(6)])
        rankings = RankingSet.from_orders(orders)
        assert not rankings.order_matrix().flags.writeable
        assert not rankings.position_matrix().flags.writeable
        rows = np.arange(6)[:, np.newaxis]
        assert (rankings.position_matrix()[rows, rankings.order_matrix()] == np.arange(9)).all()
        orders[0] = orders[1]  # the caller's array is not the set's
        assert rankings.order_matrix()[0].tolist() != orders[1].tolist()

    @pytest.mark.parametrize(
        "orders",
        [
            [[0, 1], [0, 0]],
            [[0, 1], [1, 2]],
            [[0, 1], [-1, 0]],
            [[0, 1], [0]],
            [[0, 1], []],
            [[0, 10**20], [1, 0]],
            [[0.0, 1.0], [1.0, 0.0]],
        ],
    )
    def test_from_orders_keeps_the_per_ranking_outcome(self, orders):
        def per_ranking():
            return RankingSet([Ranking(order) for order in orders])

        try:
            expected = per_ranking()
        except RankingError as exc:
            with pytest.raises(RankingError) as raised:
                RankingSet.from_orders(orders)
            assert str(raised.value) == str(exc)
        else:
            built = RankingSet.from_orders(orders)
            assert built.to_order_lists() == expected.to_order_lists()

    def test_streaming_children_stack_and_slice_the_matrices(self, rng):
        base = RankingSet.from_orders(
            np.vstack([rng.permutation(7) for _ in range(5)]), weights=[1, 2, 3, 4, 5]
        )
        extra = [Ranking.random(7, rng) for _ in range(2)]
        added = base.with_added(extra, weights=[6.0, 7.0])
        assert added._members is None and base._members is None
        expected = np.vstack([base.order_matrix(), [r.order for r in extra]])
        assert np.array_equal(added.order_matrix(), expected)
        assert np.array_equal(
            added.position_matrix(),
            np.vstack([base.position_matrix(), [r.positions for r in extra]]),
        )
        removed = added.with_removed([0, 5])
        assert np.array_equal(removed.order_matrix(), expected[[1, 2, 3, 4, 6]])
        assert removed.weights.tolist() == [2.0, 3.0, 4.0, 5.0, 7.0]
        subset = added.subset([6, 0])
        assert np.array_equal(subset.order_matrix(), expected[[6, 0]])
        assert subset.labels == ("r7", "r1") and subset.weights.tolist() == [7.0, 1.0]
        assert removed._members is None and subset._members is None

    def test_with_added_checks_members_like_the_constructor(self, tiny_rankings):
        with pytest.raises(RankingError, match="ranking 3 has 2"):
            tiny_rankings.with_added([Ranking([0, 1])])
        with pytest.raises(RankingError, match="item 3 is not a Ranking"):
            tiny_rankings.with_added([[0, 1, 2, 3, 4, 5]])  # type: ignore[list-item]


class TestKendallTauVector:
    @pytest.mark.parametrize("n", [200, 300])  # 300 is past the uint8 positions
    def test_narrow_kernel_matches_per_ranking_kendall_tau(self, n):
        from repro.core.distances import kendall_tau

        rng = np.random.default_rng(n)
        rankings = RankingSet([Ranking.random(n, rng) for _ in range(60)])
        reference = Ranking.random(n, rng)
        expected = [kendall_tau(reference, base) for base in rankings]
        distances = rankings.kendall_tau_vector(reference)
        assert distances.dtype == np.int64
        assert distances.tolist() == expected
        # The reversed ranking disagrees on every pair.
        assert rankings.kendall_tau_vector(rankings[0].reversed())[0] == n * (n - 1) // 2


class TestPrecedenceMatrix:
    def test_precedence_counts(self):
        rankings = RankingSet.from_orders([[0, 1, 2], [0, 2, 1], [1, 0, 2]])
        precedence = rankings.precedence_matrix()
        # W[a, b] = number of rankings where b precedes a.
        assert precedence[1, 0] == 2  # 0 above 1 in two rankings
        assert precedence[0, 1] == 1
        assert precedence[2, 0] == 3
        assert precedence[0, 2] == 0
        assert np.all(np.diag(precedence) == 0)

    def test_precedence_pairs_sum_to_ranking_count(self, tiny_rankings):
        precedence = tiny_rankings.precedence_matrix()
        n = tiny_rankings.n_candidates
        for a in range(n):
            for b in range(a + 1, n):
                assert precedence[a, b] + precedence[b, a] == tiny_rankings.n_rankings

    def test_precedence_matrix_is_cached(self, tiny_rankings):
        assert tiny_rankings.precedence_matrix() is tiny_rankings.precedence_matrix()

    def test_weighted_precedence(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]], weights=[3.0, 1.0])
        weighted = rankings.precedence_matrix(weighted=True)
        assert weighted[1, 0] == 3.0
        assert weighted[0, 1] == 1.0

    def test_weighted_precedence_matrix_is_cached(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]], weights=[3.0, 1.0])
        assert rankings.precedence_matrix(weighted=True) is rankings.precedence_matrix(
            weighted=True
        )

    def test_weighted_precedence_read_only(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]], weights=[3.0, 1.0])
        with pytest.raises(ValueError):
            rankings.precedence_matrix(weighted=True)[0, 1] = 9.0

    def test_unit_weights_cached_and_read_only(self, tiny_rankings):
        unit = tiny_rankings.unit_weights
        assert unit is tiny_rankings.unit_weights
        assert unit.tolist() == [1.0] * tiny_rankings.n_rankings
        with pytest.raises(ValueError):
            unit[0] = 2.0

    def test_chunked_broadcast_matches_per_ranking_accumulation(self, rng):
        weights = rng.uniform(0.1, 3.0, 8)
        rankings = RankingSet(
            [Ranking.random(9, rng) for _ in range(8)], weights=weights
        )
        # Force multiple chunks so the chunk boundary logic is exercised.
        rankings._CHUNK_BYTE_BUDGET = 9 * 9 * 3
        for weighted in (False, True):
            matrix = rankings.precedence_matrix(weighted=weighted)
            expected = np.zeros((9, 9))
            used = weights if weighted else np.ones(8)
            for ranking, weight in zip(rankings, used):
                positions = ranking.positions
                expected += weight * (
                    positions[np.newaxis, :] < positions[:, np.newaxis]
                )
            np.fill_diagonal(expected, 0.0)
            assert np.allclose(matrix, expected)

    @staticmethod
    def _naive_precedence(rankings: RankingSet, weighted: bool) -> np.ndarray:
        """``W[a, b]`` by a triple loop over rankings and candidate pairs."""
        positions = rankings.position_matrix()
        used = rankings.weights if weighted else np.ones(rankings.n_rankings)
        n = rankings.n_candidates
        naive = np.zeros((n, n))
        for r in range(rankings.n_rankings):
            for a in range(n):
                for b in range(n):
                    if positions[r, b] < positions[r, a]:
                        naive[a, b] += used[r]
        return naive

    @staticmethod
    def _random_weighted_set(rng: np.random.Generator, n: int, m: int) -> RankingSet:
        # Dyadic weights keep every weighted sum exact in float64.
        return RankingSet(
            [Ranking(rng.permutation(n).tolist()) for _ in range(m)],
            weights=rng.integers(1, 9, m) / 4.0,
        )

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", [60, 61])
    def test_precedence_matrix_matches_naive_triple_loop(
        self, monkeypatch, seed, weighted
    ):
        n = 10
        rankings = self._random_weighted_set(np.random.default_rng(seed), n, 8)
        # Three rankings per chunk: the accumulation spans several chunks.
        monkeypatch.setattr(RankingSet, "_CHUNK_BYTE_BUDGET", 3 * n * n)
        assert np.array_equal(
            rankings.precedence_matrix(weighted=weighted),
            self._naive_precedence(rankings, weighted),
        )

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        ("n", "position_type"), [(256, np.uint8), (257, np.uint16)]
    )
    def test_precedence_matrix_matches_naive_at_both_position_widths(
        self, monkeypatch, n, position_type, weighted
    ):
        # The unweighted kernel compares positions in the narrowest type that
        # holds n - 1: n = 256 is the widest uint8 case, n = 257 needs uint16.
        assert np.min_scalar_type(n - 1) == position_type
        rankings = self._random_weighted_set(np.random.default_rng(n), n, 3)
        # Two rankings per chunk: the accumulation spans two chunks.
        monkeypatch.setattr(RankingSet, "_CHUNK_BYTE_BUDGET", 2 * n * n)
        assert np.array_equal(
            rankings.precedence_matrix(weighted=weighted),
            self._naive_precedence(rankings, weighted),
        )

    def test_precedence_counts_stay_exact_past_the_int16_bound(self):
        # More identical rankings than an int16 can count: the kernel caps a
        # chunk at 32,767 rankings, so no chunk's int16 sum can wrap.
        m = RankingSet._INT16_ROWS + 3
        rankings = RankingSet.from_position_matrix(
            np.tile(np.array([[2, 0, 1]]), (m, 1))
        )
        # Candidate order 1, 2, 0: W[a, b] = m when b precedes a.
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[0, 2] = expected[2, 1] = m
        assert np.array_equal(rankings.precedence_matrix(), expected)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(("n", "m"), [(200, 500), (500, 500)])
    def test_cold_build_peak_stays_within_twice_the_chunk_budget(self, n, m, weighted):
        # The relation stated at _CHUNK_BYTE_BUDGET: two comparison blocks,
        # the n x n accumulators and the narrowed position copy.
        rng = np.random.default_rng(n + m)
        positions = np.argsort(rng.random((m, n)), axis=1).argsort(axis=1)
        rankings = RankingSet.from_position_matrix(positions, weights=rng.random(m))
        width = np.min_scalar_type(n - 1).itemsize
        bound = 2 * RankingSet._CHUNK_BYTE_BUDGET + 18 * n * n + m * n * width
        tracemalloc.start()
        try:
            rankings.precedence_matrix(weighted=weighted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound
        # Chunked at both scales: well under one block of all m rankings.
        assert peak < m * n * n / 4

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", [62, 63])
    def test_patched_precedence_matches_naive_triple_loop(
        self, monkeypatch, seed, weighted
    ):
        rng = np.random.default_rng(seed)
        n = 10
        base = self._random_weighted_set(rng, n, 6)
        extra = self._random_weighted_set(rng, n, 7)
        # Three rankings per chunk: each patch spans several chunks.
        monkeypatch.setattr(RankingSet, "_CHUNK_BYTE_BUDGET", 3 * n * n)
        base.precedence_matrix(weighted=weighted)
        grown = base.with_added(list(extra), weights=extra.weights)
        assert np.array_equal(
            grown.precedence_matrix(weighted=weighted),
            self._naive_precedence(grown, weighted),
        )
        shrunk = grown.with_removed([0, 2, 7, 8])
        assert np.array_equal(
            shrunk.precedence_matrix(weighted=weighted),
            self._naive_precedence(shrunk, weighted),
        )

    def test_pairwise_support_is_transpose(self, tiny_rankings):
        support = tiny_rankings.pairwise_support()
        assert np.array_equal(support, tiny_rankings.precedence_matrix().T)

    def test_precedence_read_only(self, tiny_rankings):
        with pytest.raises(ValueError):
            tiny_rankings.precedence_matrix()[0, 0] = 1.0

    def test_margin_matrix_is_antisymmetric_difference(self, tiny_rankings):
        margin = tiny_rankings.margin_matrix()
        precedence = tiny_rankings.precedence_matrix()
        assert np.array_equal(margin, precedence - precedence.T)
        assert np.array_equal(margin, -margin.T)

    def test_margin_matrix_is_cached_and_read_only(self, tiny_rankings):
        assert tiny_rankings.margin_matrix() is tiny_rankings.margin_matrix()
        with pytest.raises(ValueError):
            tiny_rankings.margin_matrix()[0, 1] = 1.0

    def test_weighted_margin_matrix(self, tiny_rankings):
        weighted = tiny_rankings.with_weights([0.5, 2.0, 1.25])
        margin = weighted.margin_matrix(weighted=True)
        precedence = weighted.precedence_matrix(weighted=True)
        assert np.array_equal(margin, precedence - precedence.T)
        assert margin is weighted.margin_matrix(weighted=True)
        assert margin is not weighted.margin_matrix()


class TestPositions:
    def test_position_matrix_shape(self, tiny_rankings):
        matrix = tiny_rankings.position_matrix()
        assert matrix.shape == (3, 6)

    def test_mean_positions(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]])
        assert rankings.mean_positions().tolist() == [0.5, 0.5]


class TestManipulation:
    def test_with_weights(self, tiny_rankings):
        weighted = tiny_rankings.with_weights([1.0, 2.0, 3.0])
        assert weighted.weights.tolist() == [1.0, 2.0, 3.0]
        assert tiny_rankings.weights.tolist() == [1.0, 1.0, 1.0]

    def test_subset(self, tiny_rankings):
        subset = tiny_rankings.subset([0, 2])
        assert subset.n_rankings == 2
        assert subset.labels == ("r1", "r3")

    def test_subset_empty_rejected(self, tiny_rankings):
        with pytest.raises(RankingError):
            tiny_rankings.subset([])

    def test_with_added_appends_labelled_rankings(self, tiny_rankings):
        extra = Ranking([5, 4, 3, 2, 1, 0])
        extended = tiny_rankings.with_added([extra], labels=["reverse"])
        assert extended.n_rankings == 4
        assert extended.labels[-1] == "reverse"

    def test_with_added_default_labels(self, tiny_rankings):
        extended = tiny_rankings.with_added([Ranking([0, 1, 2, 3, 4, 5])])
        assert extended.labels[-1] == "r4"

    def test_with_added_keeps_weights(self, tiny_rankings):
        weighted = tiny_rankings.with_weights([0.5, 2.0, 1.25])
        extended = weighted.with_added([Ranking([0, 1, 2, 3, 4, 5])], weights=[3.0])
        assert extended.weights.tolist() == [0.5, 2.0, 1.25, 3.0]
        # Without explicit weights the new rankings weigh 1; the old keep theirs.
        assert weighted.with_added([Ranking([5, 4, 3, 2, 1, 0])]).weights.tolist() == [
            0.5,
            2.0,
            1.25,
            1.0,
        ]

    def test_to_order_lists(self, tiny_rankings):
        orders = tiny_rankings.to_order_lists()
        assert orders[0] == [0, 3, 5, 1, 2, 4]


class TestFromPositionMatrix:
    def test_round_trips_position_matrix(self, rng):
        orders = np.vstack([rng.permutation(7) for _ in range(5)])
        reference = RankingSet.from_orders(orders)
        rebuilt = RankingSet.from_position_matrix(reference.position_matrix())
        assert rebuilt.to_order_lists() == reference.to_order_lists()

    def test_position_cache_is_preseeded(self):
        positions = np.array([[0, 1, 2], [2, 0, 1]])
        ranking_set = RankingSet.from_position_matrix(positions)
        cached = ranking_set.position_matrix()
        assert np.array_equal(cached, positions)
        assert not cached.flags.writeable
        # The caller's array keeps its own flags: with the default copy=True
        # the cache is a decoupled copy, never an alias of the caller's array.
        assert positions.flags.writeable

    def test_member_rankings_are_consistent(self):
        positions = np.array([[1, 0, 2], [2, 1, 0]])
        ranking_set = RankingSet.from_position_matrix(positions)
        assert ranking_set[0].to_list() == [1, 0, 2]
        assert ranking_set[1].to_list() == [2, 1, 0]

    def test_labels_and_weights_forwarded(self):
        positions = np.array([[0, 1], [1, 0]])
        ranking_set = RankingSet.from_position_matrix(
            positions, labels=["a", "b"], weights=[1.0, 2.0]
        )
        assert ranking_set.labels == ("a", "b")
        assert ranking_set.weights.tolist() == [1.0, 2.0]

    def test_non_permutation_row_rejected(self):
        with pytest.raises(RankingError):
            RankingSet.from_position_matrix(np.array([[0, 1, 2], [0, 0, 2]]))

    def test_wrong_dimensionality_rejected(self):
        with pytest.raises(RankingError):
            RankingSet.from_position_matrix(np.array([0, 1, 2]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(RankingError):
            RankingSet.from_position_matrix(np.empty((0, 4), dtype=np.int64))

    def test_cache_is_decoupled_from_caller_mutation(self):
        positions = np.array([[0, 1, 2], [2, 0, 1]])
        ranking_set = RankingSet.from_position_matrix(positions)
        positions[0] = [2, 1, 0]
        assert ranking_set.position_matrix()[0].tolist() == [0, 1, 2]
        assert ranking_set[0].to_list() == [0, 1, 2]
