"""The ``save_result`` fixture follows the ``MANI_RANK_PERF_RESULTS_DIR`` redirect."""

from __future__ import annotations

import pytest

from repro.experiments.reporting import ExperimentResult


@pytest.fixture
def results_directory(tmp_path):
    path = tmp_path / "results"
    path.mkdir()
    return path


@pytest.fixture
def perf_output_directory(tmp_path):
    path = tmp_path / "redirect"
    path.mkdir()
    return path


def test_redirected_results_leave_the_committed_directory_alone(
    save_result, results_directory, perf_output_directory
):
    save_result(ExperimentResult("probe", "redirect probe", records=[{"x": 1}]))
    assert sorted(path.name for path in perf_output_directory.iterdir()) == [
        "probe.json",
        "probe.txt",
    ]
    assert not any(results_directory.iterdir())


@pytest.mark.parametrize("perf_output_directory", [None])
def test_unredirected_results_go_to_the_results_directory(
    save_result, results_directory
):
    save_result(ExperimentResult("probe", "default probe", records=[{"x": 1}]))
    assert sorted(path.name for path in results_directory.iterdir()) == [
        "probe.json",
        "probe.txt",
    ]
