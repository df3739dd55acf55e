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
