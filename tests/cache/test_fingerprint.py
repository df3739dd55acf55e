"""Tests for the content-addressed cache-key fingerprints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.fingerprint import (
    cache_key,
    fingerprint_candidate_table,
    fingerprint_ranking_set,
    fingerprint_thresholds,
    profile_tokens,
)
from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.fairness.thresholds import FairnessThresholds

ORDERS = [
    [0, 3, 5, 1, 2, 4],
    [3, 0, 5, 2, 1, 4],
    [0, 5, 3, 2, 4, 1],
]


class TestRankingSetFingerprint:
    def test_stable_across_construction_orders(self):
        """The same multiset of rankings fingerprints equal in any list order."""
        forward = RankingSet.from_orders(ORDERS)
        reversed_set = RankingSet.from_orders(ORDERS[::-1])
        rotated = RankingSet.from_orders(ORDERS[1:] + ORDERS[:1])
        assert (
            fingerprint_ranking_set(forward)
            == fingerprint_ranking_set(reversed_set)
            == fingerprint_ranking_set(rotated)
        )

    def test_stable_across_constructors(self):
        """from_orders, the Ranking constructor, and from_position_matrix agree."""
        from_orders = RankingSet.from_orders(ORDERS)
        from_rankings = RankingSet([Ranking(order) for order in ORDERS])
        positions = from_orders.position_matrix()
        from_matrix = RankingSet.from_position_matrix(np.array(positions))
        assert (
            fingerprint_ranking_set(from_orders)
            == fingerprint_ranking_set(from_rankings)
            == fingerprint_ranking_set(from_matrix)
        )

    def test_labels_do_not_affect_fingerprint(self):
        plain = RankingSet.from_orders(ORDERS)
        labelled = RankingSet.from_orders(ORDERS, labels=["math", "physics", "art"])
        assert fingerprint_ranking_set(plain) == fingerprint_ranking_set(labelled)

    def test_orders_affect_fingerprint(self):
        base = RankingSet.from_orders(ORDERS)
        changed = RankingSet.from_orders([ORDERS[0], ORDERS[1], [1, 4, 2, 3, 5, 0]])
        assert fingerprint_ranking_set(base) != fingerprint_ranking_set(changed)

    def test_weights_travel_with_their_ranking(self):
        weighted = RankingSet.from_orders(ORDERS, weights=[1.0, 2.0, 3.0])
        permuted = RankingSet.from_orders(ORDERS[::-1], weights=[3.0, 2.0, 1.0])
        mismatched = RankingSet.from_orders(ORDERS[::-1], weights=[1.0, 2.0, 3.0])
        assert fingerprint_ranking_set(weighted) == fingerprint_ranking_set(permuted)
        assert fingerprint_ranking_set(weighted) != fingerprint_ranking_set(mismatched)

    def test_duplicate_rankings_are_a_multiset(self):
        single = RankingSet.from_orders(ORDERS)
        doubled = RankingSet.from_orders(ORDERS + [ORDERS[0]])
        assert fingerprint_ranking_set(single) != fingerprint_ranking_set(doubled)

    @pytest.mark.parametrize(("n", "width"), [(2, 1), (256, 1), (257, 2), (300, 2)])
    def test_token_is_the_narrow_order_then_the_weight(self, n, width):
        order = list(range(n))[::-1]
        (token,) = profile_tokens(np.array([order]), [2.5])
        assert len(token) == n * width + 8
        assert np.array_equal(np.frombuffer(token[: n * width], dtype=f"<u{width}"), order)
        assert np.frombuffer(token[n * width :], dtype="<f8")[0] == 2.5

    def test_candidates_past_one_byte_are_told_apart(self):
        # Swapping candidates 0 and 256 changes only the high byte of their
        # ids, which a one-byte token would drop.
        order = list(range(300))
        swapped = [256, *order[1:256], 0, *order[257:]]
        assert fingerprint_ranking_set(RankingSet.from_orders([order])) != (
            fingerprint_ranking_set(RankingSet.from_orders([swapped]))
        )


class TestTableAndThresholdFingerprints:
    def test_table_fingerprint_sensitive_to_schema(self, tiny_table):
        renamed = CandidateTable(
            {name: list(tiny_table.column(name)) for name in tiny_table.attribute_names},
            names=[f"x{i}" for i in range(tiny_table.n_candidates)],
        )
        assert fingerprint_candidate_table(tiny_table) != fingerprint_candidate_table(
            renamed
        )
        assert fingerprint_candidate_table(tiny_table) == fingerprint_candidate_table(
            tiny_table
        )

    def test_threshold_fingerprint_normalises_spellings(self):
        assert fingerprint_thresholds(0.1) == fingerprint_thresholds(
            FairnessThresholds(0.1)
        )
        assert fingerprint_thresholds(0.1) != fingerprint_thresholds(0.2)
        assert fingerprint_thresholds(
            FairnessThresholds(0.1, {"Race": 0.05})
        ) != fingerprint_thresholds(0.1)


class TestCacheKey:
    def test_paper_label_shares_key_with_plain_name(self, tiny_table, tiny_rankings):
        by_label = cache_key(tiny_rankings, tiny_table, method="A3")
        by_name = cache_key(tiny_rankings, tiny_table, method="fair-borda")
        assert by_label.digest == by_name.digest

    def test_distinct_queries_get_distinct_digests(self, tiny_table, tiny_rankings):
        base = cache_key(tiny_rankings, tiny_table)
        assert base.digest != cache_key(tiny_rankings, tiny_table, delta=0.2).digest
        assert (
            base.digest
            != cache_key(tiny_rankings, tiny_table, method="fair-copeland").digest
        )
        assert (
            base.digest
            != cache_key(tiny_rankings, tiny_table, strategy="insertion").digest
        )

    def test_key_to_dict_carries_digest(self, tiny_table, tiny_rankings):
        key = cache_key(tiny_rankings, tiny_table, strategy="insertion")
        payload = key.to_dict()
        assert payload["digest"] == key.digest
        assert payload["method"] == "fair-borda"
        assert payload["strategy"] == "insertion"

    def test_unknown_method_raises(self, tiny_table, tiny_rankings):
        with pytest.raises(AggregationError, match="unknown fair consensus method"):
            cache_key(tiny_rankings, tiny_table, method="nope")
