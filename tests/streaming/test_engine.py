"""Property and edge-case tests for the streaming consensus engine.

The load-bearing contract: every incrementally-patched artifact (position /
precedence / margin matrices, profile fingerprint, consensus payload) must be
*bit-identical* to a from-scratch rebuild of the same profile, under
randomized add/remove sequences including weighted and duplicated rankings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.fingerprint import fingerprint_ranking_set
from repro.cache.service import compute_consensus_payload
from repro.core.ranking import Ranking
from repro.exceptions import ValidationError
from repro.streaming import StreamingConsensusEngine

DELTA = 0.35
N = 6
# Dyadic-rational weights: their precedence contributions are exact in
# float64, so patched matrices must match a rebuild bit-for-bit.
WEIGHT_POOL = (0.5, 1.0, 1.5, 2.0)


def random_order(rng: np.random.Generator) -> list[int]:
    return [int(c) for c in rng.permutation(N)]


def materialize(engine: StreamingConsensusEngine) -> None:
    """Force every cacheable matrix so subsequent updates exercise patching."""
    rankings = engine.rankings
    assert rankings is not None
    rankings.position_matrix()
    for weighted in (False, True):
        rankings.precedence_matrix(weighted=weighted)
        rankings.margin_matrix(weighted=weighted)


def assert_matches_rebuild(engine: StreamingConsensusEngine) -> None:
    """All patched matrices and the fingerprint equal the rebuilt ground truth."""
    rebuilt = engine.rebuild()
    live = engine.rankings
    assert live is not None
    assert engine.profile_fingerprint == fingerprint_ranking_set(rebuilt)
    assert live.position_matrix().tobytes() == rebuilt.position_matrix().tobytes()
    for weighted in (False, True):
        assert (
            live.precedence_matrix(weighted=weighted).tobytes()
            == rebuilt.precedence_matrix(weighted=weighted).tobytes()
        )
        assert (
            live.margin_matrix(weighted=weighted).tobytes()
            == rebuilt.margin_matrix(weighted=weighted).tobytes()
        )


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_streamed_state_matches_rebuild(self, tiny_table, seed):
        rng = np.random.default_rng(seed)
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        profile: list[tuple[tuple[int, ...], float]] = []
        for _ in range(25):
            can_remove = bool(profile)
            if not can_remove or rng.random() < 0.6:
                count = int(rng.integers(1, 4))
                orders = [random_order(rng) for _ in range(count)]
                weights = [float(rng.choice(WEIGHT_POOL)) for _ in range(count)]
                if engine.rankings is not None:
                    materialize(engine)
                engine.add_rankings(orders, weights=weights)
                profile.extend(
                    (tuple(order), weight) for order, weight in zip(orders, weights)
                )
            else:
                index = int(rng.integers(len(profile)))
                order, weight = profile.pop(index)
                materialize(engine)
                if profile:
                    engine.remove_rankings([list(order)], weights=[weight])
                else:
                    engine.remove_rankings([list(order)], weights=[weight])
                    assert engine.is_empty
                    continue
            assert_matches_rebuild(engine)
        if not engine.is_empty:
            assert engine.consensus() == engine.rebuild_reference()

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("strategy", [None, "insertion"])
    def test_warm_repair_matches_from_scratch_reference(
        self, tiny_table, seed, strategy
    ):
        rng = np.random.default_rng(seed)
        engine = StreamingConsensusEngine(
            tiny_table, strategy=strategy, delta=DELTA
        )
        engine.add_rankings([random_order(rng) for _ in range(6)])
        engine.consensus()  # establishes the warm-start seed
        for _ in range(3):
            previous = engine.last_consensus
            engine.add_rankings([random_order(rng) for _ in range(2)])
            engine.remove_rankings([engine.rankings.rankings[0].to_list()])
            assert engine.repair() == engine.repair_reference(previous)

    def test_consensus_is_the_batch_payload_of_the_live_set(self, tiny_table, rng):
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        engine.add_rankings([random_order(rng) for _ in range(5)])
        payload = engine.consensus()
        assert payload == compute_consensus_payload(
            engine.rankings, tiny_table, delta=DELTA
        )
        assert engine.last_consensus.to_list() == payload["consensus"]["order"]
        # Computed once per profile version; each read parses a new dict.
        assert engine.consensus_json() is engine.consensus_json()
        assert engine.consensus() == payload

    def test_repair_pd_loss_is_the_kendall_tau_sum(self, tiny_table, rng):
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        engine.add_rankings(
            [random_order(rng) for _ in range(5)],
            weights=[float(rng.choice(WEIGHT_POOL)) for _ in range(5)],
        )
        engine.consensus()
        engine.add_rankings([random_order(rng)])
        payload = engine.repair()
        rebuilt = engine.rebuild()
        consensus = Ranking(payload["consensus"]["order"])
        pairs = N * (N - 1) // 2
        assert payload["pd_loss"] == int(
            rebuilt.kendall_tau_vector(consensus).sum()
        ) / (pairs * rebuilt.n_rankings)

    def test_repair_without_previous_falls_back_to_consensus(self, tiny_table, rng):
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        engine.add_rankings([random_order(rng) for _ in range(4)])
        repaired = engine.repair()
        assert repaired["seeded_from"] == "cold-start"
        assert repaired["consensus"] == engine.consensus()["consensus"]


class TestEdgeCases:
    def test_duplicate_submissions_each_count(self, tiny_table, rng):
        order = random_order(rng)
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        engine.add_rankings([order, order, random_order(rng)])
        assert engine.n_rankings == 3
        engine.remove_rankings([order])
        assert engine.n_rankings == 2
        assert_matches_rebuild(engine)

    def test_removing_the_last_copy_then_again_fails(self, tiny_table, rng):
        order = random_order(rng)
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        engine.add_rankings([order, random_order(rng)])
        engine.remove_rankings([order])
        with pytest.raises(ValidationError, match="not.*present|no ranking"):
            engine.remove_rankings([order])
        assert engine.n_rankings == 1

    def test_add_then_remove_restores_byte_identical_matrices(self, tiny_table, rng):
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        engine.add_rankings([random_order(rng) for _ in range(5)])
        materialize(engine)
        before = {
            (kind, weighted): getattr(engine.rankings, kind)(weighted=weighted).tobytes()
            for kind in ("precedence_matrix", "margin_matrix")
            for weighted in (False, True)
        }
        fingerprint = engine.profile_fingerprint
        batch = [random_order(rng) for _ in range(3)]
        weights = [0.5, 2.0, 1.0]
        engine.add_rankings(batch, weights=weights)
        engine.remove_rankings(batch, weights=weights)
        after = {
            (kind, weighted): getattr(engine.rankings, kind)(weighted=weighted).tobytes()
            for kind in ("precedence_matrix", "margin_matrix")
            for weighted in (False, True)
        }
        assert before == after
        assert engine.profile_fingerprint == fingerprint

    def test_weighted_profile_requires_matching_weight_to_remove(
        self, tiny_table, rng
    ):
        order = random_order(rng)
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        engine.add_rankings([order], weights=[2.0])
        with pytest.raises(ValidationError, match="weight"):
            engine.remove_rankings([order])  # default weight 1.0 does not match
        engine.remove_rankings([order], weights=[2.0])
        assert engine.is_empty

    def test_empty_profile_errors(self, tiny_table, rng):
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        assert engine.is_empty
        assert engine.profile_fingerprint is None
        with pytest.raises(ValidationError, match="empty"):
            engine.consensus()
        with pytest.raises(ValidationError, match="empty"):
            engine.remove_rankings([random_order(rng)])
        order = random_order(rng)
        engine.add_rankings([order])
        engine.remove_rankings([order])
        assert engine.is_empty and engine.profile_fingerprint is None
        with pytest.raises(ValidationError, match="empty"):
            engine.repair()

    def test_failed_removal_leaves_profile_untouched(self, tiny_table, rng):
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        present = random_order(rng)
        engine.add_rankings([present])
        version = engine.profile_version
        absent = present[::-1]
        with pytest.raises(ValidationError):
            engine.remove_rankings([present, absent])
        assert engine.n_rankings == 1
        assert engine.profile_version == version
        assert_matches_rebuild(engine)

    def test_wrong_universe_is_rejected(self, tiny_table):
        engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
        with pytest.raises(ValidationError, match="universe|candidates"):
            engine.add_rankings([[0, 1, 2]])

    def test_seeded_engine_matches_its_seed(self, tiny_table, tiny_rankings):
        engine = StreamingConsensusEngine(
            tiny_table, delta=DELTA, rankings=tiny_rankings
        )
        assert engine.profile_fingerprint == fingerprint_ranking_set(tiny_rankings)
        assert engine.consensus() == engine.rebuild_reference()
