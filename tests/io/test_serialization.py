"""Tests for JSON serialisation helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.ranking import Ranking
from repro.exceptions import ValidationError
from repro.io.serialization import (
    candidate_table_from_dict,
    candidate_table_to_dict,
    dump_json,
    load_json,
    ranking_from_dict,
    ranking_set_from_dict,
    ranking_set_to_dict,
    ranking_to_dict,
    to_jsonable,
)


class TestToJsonable:
    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(0.5)) == 0.5
        # float64 subclasses float, yet it comes back as a plain float.
        assert type(to_jsonable(np.float64(0.5))) is float

    def test_numpy_arrays(self):
        assert to_jsonable(np.array([1, 2])) == [1, 2]

    def test_nested_structures(self):
        payload = {"a": [np.float32(1.5), {"b": np.arange(2)}], "r": Ranking([1, 0])}
        converted = to_jsonable(payload)
        json.dumps(converted)  # must not raise
        assert converted["r"] == {"order": [1, 0]}

    def test_plain_values_untouched(self):
        assert to_jsonable("text") == "text"
        assert to_jsonable(3) == 3
        for value in (True, None, 0.25):
            assert to_jsonable(value) is value


class TestRankingSetOrders:
    @pytest.mark.parametrize(
        "orders",
        [
            5,
            "[[0, 1]]",
            None,
            [0, 1],
            [[1.7, 0.2], [0.2, 1.7]],
            [[0.0, 1.0]],
            [["1", "0"]],
            [[True, False]],
            [[[0], [1]]],
            {"0": [0, 1]},
            np.array([[0.0, 1.0]]),
        ],
    )
    def test_orders_that_are_not_integer_lists_are_rejected(self, orders):
        with pytest.raises(ValidationError, match="list of lists of integer"):
            ranking_set_from_dict({"orders": orders})

    def test_an_id_past_64_bits_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="candidate ids 0..n-1"):
            ranking_set_from_dict({"orders": [[0, 10**20], [1, 0]]})

    def test_integer_matrix_and_lists_build_the_same_set(self):
        orders = [[2, 0, 1], [0, 1, 2]]
        payload = {"labels": ["a", "b"], "weights": [0.5, 2.0]}
        from_lists = ranking_set_from_dict({**payload, "orders": orders})
        from_matrix = ranking_set_from_dict({**payload, "orders": np.array(orders)})
        for built in (from_lists, from_matrix):
            assert built.to_order_lists() == orders
            assert built.labels == ("a", "b")
            assert built.weights.tolist() == [0.5, 2.0]


class TestRoundTrips:
    def test_ranking_round_trip(self):
        ranking = Ranking([2, 0, 1])
        assert ranking_from_dict(ranking_to_dict(ranking)) == ranking

    def test_ranking_missing_key(self):
        with pytest.raises(ValidationError):
            ranking_from_dict({})

    def test_ranking_set_round_trip(self, tiny_rankings):
        rebuilt = ranking_set_from_dict(ranking_set_to_dict(tiny_rankings))
        assert rebuilt.to_order_lists() == tiny_rankings.to_order_lists()
        assert rebuilt.labels == tiny_rankings.labels
        assert rebuilt.weights.tolist() == tiny_rankings.weights.tolist()

    def test_ranking_set_missing_key(self):
        with pytest.raises(ValidationError):
            ranking_set_from_dict({"labels": []})

    def test_candidate_table_round_trip(self, tiny_table):
        rebuilt = candidate_table_from_dict(candidate_table_to_dict(tiny_table))
        assert rebuilt == tiny_table

    def test_candidate_table_missing_key(self):
        with pytest.raises(ValidationError):
            candidate_table_from_dict({"names": []})

    def test_dump_and_load_json(self, tmp_path, tiny_table):
        path = tmp_path / "table.json"
        dump_json(candidate_table_to_dict(tiny_table), path)
        assert candidate_table_from_dict(load_json(path)) == tiny_table
