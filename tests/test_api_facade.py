"""Tests for the stable :mod:`repro.api` facade, the deprecated kernel-registry
stand-ins, and the package-wide ``__all__`` audit."""

from __future__ import annotations

import importlib
import pkgutil
import warnings

import numpy as np
import pytest

import repro
import repro.api as api
from repro import CandidateTable, Ranking, RankingSet, _deprecated
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
        service = api.open_cache(tmp_path / "cache", policy="cost-aware")
        service.aggregate(rankings, table, delta=0.2)
        assert any((tmp_path / "cache").iterdir())


@pytest.fixture
def quiet_deprecations():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield


@pytest.mark.usefixtures("quiet_deprecations")
class TestBackendStandIns:
    """The removed registry behaves as it did with only numpy installed."""

    def test_numpy_is_the_only_backend(self):
        assert api.available_backends() == ("numpy",)
        assert api.unavailable_backends() == {}

    def test_default_is_numpy(self):
        assert api.active_backend_name() == "numpy"
        assert isinstance(api.active_backend(), api.KernelBackend)

    def test_numpy_lookups_share_one_instance(self):
        assert api.get_backend("numpy") is api.active_backend()
        assert api.create_backend("numpy") is api.get_backend("numpy")
        assert api.create_backend() is api.resolve_backend(None)

    def test_env_var_no_longer_selects_a_backend(self, monkeypatch):
        monkeypatch.setenv(api.BACKEND_ENV_VAR, "no-such-backend")
        assert api.active_backend_name() == "numpy"
        assert api.describe_backends()["active"]["name"] == "numpy"

    def test_resolve_backend_accepts_none_name_and_instance(self):
        for backend in (None, "numpy", api.KernelBackend()):
            assert api.resolve_backend(backend) is api.active_backend()

    def test_resolve_backend_rejects_other_types(self):
        with pytest.raises(ValidationError, match="unknown kernel backend"):
            api.resolve_backend(object())

    def test_describe_backends_shape(self):
        describe = api.describe_backends()
        assert set(describe) == {"active", "available", "unavailable", "env_var"}
        assert describe["available"] == ["numpy"]
        assert describe["unavailable"] == {}
        assert describe["env_var"] == api.BACKEND_ENV_VAR == "MANI_RANK_BACKEND"
        assert describe["active"] == api.active_backend().compile_status()

    def test_numpy_compile_status(self):
        status = api.get_backend("numpy").compile_status()
        assert set(status) == {"name", "compiled", "detail"}
        assert status["name"] == "numpy"
        assert status["compiled"] is False

    def test_numpy_selection_is_a_no_op_scope(self):
        api.set_default_backend("numpy")
        api.set_default_backend(None)
        with api.use_backend("numpy") as backend:
            assert backend.name == "numpy"
        assert api.active_backend_name() == "numpy"

    def test_top_level_names(self):
        assert repro.available_backends() == ("numpy",)
        assert repro.active_backend_name() == "numpy"
        with repro.use_backend("numpy"):
            repro.set_default_backend("numpy")

    @pytest.mark.parametrize(
        "select",
        [
            lambda: api.get_backend("numba"),
            lambda: api.create_backend("numba"),
            lambda: api.resolve_backend("numba"),
            lambda: api.set_default_backend("numba"),
            lambda: api.use_backend("numba").__enter__(),
            lambda: repro.set_default_backend("numba"),
            lambda: repro.use_backend("numba").__enter__(),
        ],
    )
    def test_other_backend_names_raise_validation_error(self, select):
        with pytest.raises(ValidationError, match="unknown kernel backend"):
            select()

    def test_aggregate_backend_argument_accepts_only_numpy(self, profile):
        rankings, table = profile
        plain = api.aggregate(rankings, table, delta=0.2)
        assert api.aggregate(rankings, table, delta=0.2, backend="numpy") == plain
        with pytest.raises(ValidationError):
            api.aggregate(rankings, table, delta=0.2, backend="numba")

    def test_repair_backend_argument_accepts_only_numpy(self, profile):
        _, table = profile
        repaired = api.repair(Ranking(range(8)), table, delta=0.2, backend="numpy")
        assert repaired.ranking == api.repair(Ranking(range(8)), table, delta=0.2).ranking
        with pytest.raises(ValidationError):
            api.repair(Ranking(range(8)), table, delta=0.2, backend="numba")

    def test_stand_ins_are_not_exported(self):
        for module in (repro, api):
            for name in _deprecated.NAMES[module.__name__]:
                assert name not in module.__all__


class TestDeprecatedAliases:
    def _deprecations(self, caught) -> list:
        return [w for w in caught if issubclass(w.category, DeprecationWarning)]

    @pytest.mark.parametrize(
        "module, name",
        [(module, name) for module, names in _deprecated.NAMES.items() for name in names],
        ids=lambda value: value,
    )
    def test_name_warns_once_then_stays_silent(self, module, name):
        owner = importlib.import_module(module)
        _deprecated._warned.discard(f"{module}.{name}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = getattr(owner, name)
            second = getattr(owner, name)
        assert first is second is getattr(_deprecated, name)
        deprecations = self._deprecations(caught)
        assert len(deprecations) == 1
        assert f"{module}.{name}" in str(deprecations[0].message)
        assert deprecations[0].filename == __file__

    def test_backend_argument_warns_once_per_function(self, profile):
        rankings, table = profile
        _deprecated._warned.discard("the backend= argument of repro.api.aggregate")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            api.aggregate(rankings, table, delta=0.2, backend="numpy")
            api.aggregate(rankings, table, delta=0.2, backend="numpy")
            api.aggregate(rankings, table, delta=0.2)
        deprecations = self._deprecations(caught)
        assert len(deprecations) == 1
        assert "backend=" in str(deprecations[0].message)
        assert deprecations[0].filename == __file__

    def test_expired_aliases_are_gone(self):
        for name in ("cache_key", "compute_consensus_payload"):
            assert not hasattr(repro, name)

    def test_unknown_attribute_still_raises(self):
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
