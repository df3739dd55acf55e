"""Tests for the stable :mod:`repro.api` facade, the removal of the kernel
registry, and the package-wide ``__all__`` audit."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import repro
import repro.api as api
from repro import CandidateTable, Ranking, RankingSet
from repro.cache.store import ResultCache
from repro.exceptions import ValidationError
from repro.fair.make_mr_fair import MakeMRFairResult
from repro.io.csv_io import write_candidate_table, write_ranking_set


@pytest.fixture
def profile():
    table = CandidateTable(
        {
            "Gender": ["M", "M", "W", "W", "M", "M", "W", "W"],
            "Race": ["A", "B", "A", "B", "A", "B", "A", "B"],
        }
    )
    rankings = RankingSet.from_orders(
        [[0, 1, 4, 5, 2, 3, 6, 7], [1, 0, 5, 4, 3, 2, 7, 6], [0, 4, 1, 5, 2, 6, 3, 7]]
    )
    return rankings, table


class TestFacadeVerbs:
    def test_load_profile_round_trips(self, tmp_path, profile):
        rankings, table = profile
        write_candidate_table(table, tmp_path / "candidates.csv")
        write_ranking_set(rankings, table, tmp_path / "rankings.csv")
        loaded = api.load_profile(
            tmp_path / "candidates.csv", tmp_path / "rankings.csv"
        )
        assert loaded.table.names == table.names
        assert loaded.rankings.to_order_lists() == rankings.to_order_lists()

    def test_load_profile_positions_errors(self, tmp_path, profile):
        _, table = profile
        write_candidate_table(table, tmp_path / "candidates.csv")
        (tmp_path / "rankings.csv").write_text("label,1,2\nr0,c0,nobody\n")
        with pytest.raises(ValidationError, match="rankings.csv:2"):
            api.load_profile(tmp_path / "candidates.csv", tmp_path / "rankings.csv")

    def test_aggregate_returns_payload(self, profile):
        rankings, table = profile
        payload = api.aggregate(rankings, table, method="fair-borda", delta=0.2)
        assert sorted(payload["consensus"]["order"]) == list(range(8))
        assert payload["method"] == "fair-borda"

    def test_repair_single_ranking(self, profile):
        _, table = profile
        result = api.repair(Ranking(range(8)), table, delta=0.2)
        assert isinstance(result, MakeMRFairResult)
        assert api.evaluate_fairness(result.ranking, table, delta=0.2).satisfied

    def test_repair_batch_matches_serial(self, profile):
        _, table = profile
        rng = np.random.default_rng(5)
        batch = [Ranking(rng.permutation(8).tolist()) for _ in range(5)]
        serial = [api.repair(r, table, delta=0.2) for r in batch]
        sharded = api.repair(batch, table, delta=0.2, n_shards=2)
        assert [r.ranking for r in sharded] == [r.ranking for r in serial]

    def test_evaluate_fairness_accepts_plain_order(self, profile):
        _, table = profile
        report = api.evaluate_fairness([0, 1, 4, 5, 2, 3, 6, 7], table, delta=0.5)
        assert report.satisfied in (True, False)

    def test_open_cache_memory_only(self, profile):
        rankings, table = profile
        service = api.open_cache()
        first = service.aggregate(rankings, table, delta=0.2)
        second = service.aggregate(rankings, table, delta=0.2)
        assert not first["cached"] and second["cached"]
        assert first["result"] == second["result"]

    def test_open_cache_with_disk_tier(self, tmp_path, profile):
        rankings, table = profile
        service = api.open_cache(tmp_path / "cache")
        service.aggregate(rankings, table, delta=0.2)
        assert any((tmp_path / "cache").iterdir())

    @pytest.mark.parametrize(
        "open_with_policy",
        [
            lambda: ResultCache(policy="lru"),
            lambda: api.open_cache(policy="lru"),
        ],
        ids=["ResultCache", "open_cache"],
    )
    def test_removed_policy_argument_raises_type_error(self, open_with_policy):
        with pytest.raises(TypeError, match="policy"):
            open_with_policy()


_REMOVED_TOP_LEVEL = (
    "available_backends", "active_backend_name", "set_default_backend", "use_backend",
)
#: The 16 compute-kernel registry names that were removed, per module.
_REMOVED_NAMES = [("repro", name) for name in _REMOVED_TOP_LEVEL] + [
    ("repro.api", name)
    for name in _REMOVED_TOP_LEVEL + (
        "KernelBackend", "BACKEND_ENV_VAR", "unavailable_backends", "create_backend",
        "get_backend", "resolve_backend", "active_backend", "describe_backends",
    )
]


class TestRemovedBackendRegistry:
    """The kernel-registry names and the ``backend=`` argument are gone."""

    @pytest.mark.parametrize(
        "module, name", _REMOVED_NAMES, ids=lambda value: value
    )
    def test_name_raises_attribute_error(self, module, name):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rankings, table: api.aggregate(
                rankings, table, delta=0.2, backend="numpy"
            ),
            lambda rankings, table: api.repair(
                Ranking(range(8)), table, delta=0.2, backend="numpy"
            ),
        ],
        ids=["aggregate", "repair"],
    )
    def test_backend_argument_raises_type_error(self, profile, call):
        with pytest.raises(TypeError, match="backend"):
            call(*profile)

    def test_removed_names_are_not_exported(self):
        for module, name in _REMOVED_NAMES:
            assert name not in importlib.import_module(module).__all__

    def test_expired_aliases_are_gone(self):
        for name in ("cache_key", "compute_consensus_payload"):
            assert not hasattr(repro, name)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_symbol
        with pytest.raises(AttributeError):
            api.no_such_symbol


class TestAllAudit:
    """Every ``__all__`` name across ``repro`` and its subpackages resolves."""

    def _modules(self):
        yield repro
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            yield importlib.import_module(info.name)

    def test_every_dunder_all_name_resolves(self):
        checked = 0
        for module in self._modules():
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.{name} missing"
                checked += 1
        assert checked > 100

    def test_facade_all_is_complete(self):
        for name in api.__all__:
            assert hasattr(api, name)
        for verb in ("load_profile", "aggregate", "repair", "evaluate_fairness",
                     "open_cache"):
            assert verb in api.__all__
