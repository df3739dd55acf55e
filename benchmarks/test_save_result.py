"""Benchmark output goes to ``results_directory``, never by default to the
committed ``benchmarks/results/`` baselines."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.reporting import ExperimentResult

COMMITTED = Path(__file__).parent / "results"


class TestSaveResult:
    @pytest.fixture
    def results_directory(self, tmp_path):
        path = tmp_path / "results"
        path.mkdir()
        return path

    def test_writes_json_and_text_to_the_results_directory(
        self, save_result, results_directory
    ):
        save_result(ExperimentResult("probe", "probe", records=[{"x": 1}]))
        assert sorted(path.name for path in results_directory.iterdir()) == [
            "probe.json",
            "probe.txt",
        ]


def test_unredirected_results_go_to_a_temp_directory(
    results_directory, tmp_path_factory
):
    override = os.environ.get("MANI_RANK_PERF_RESULTS_DIR")
    if override:
        assert results_directory == Path(override)
    else:
        assert tmp_path_factory.getbasetemp() in results_directory.parents
        assert results_directory.resolve() != COMMITTED.resolve()
