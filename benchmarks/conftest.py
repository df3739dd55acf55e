"""Shared configuration for the paper-reproduction benchmark suite.

Every benchmark runs one experiment module (one paper table or figure) at the
``ci`` scale through ``pytest-benchmark`` and writes the regenerated
rows/series, as both JSON and readable text, to :func:`results_directory`:
a temporary directory of the pytest run, or ``MANI_RANK_PERF_RESULTS_DIR``
when that is set.  A plain run therefore never touches the committed
``benchmarks/results/`` baselines; refreshing one means running its
benchmark at full scale with ``MANI_RANK_PERF_RESULTS_DIR=benchmarks/results``.

Set the environment variable ``MANI_RANK_BENCH_SCALE=paper`` to run the
full-size configurations instead (slow without a commercial ILP solver).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.reporting import ExperimentResult


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Scale preset used by every benchmark (``ci`` unless overridden)."""
    return os.environ.get("MANI_RANK_BENCH_SCALE", "ci")


@pytest.fixture(scope="session")
def results_directory(tmp_path_factory) -> Path:
    """Where the benchmarks write their results and ``perf_*`` payloads.

    A fresh temporary directory per pytest run by default, so tier-1 runs
    leave the working tree clean.  ``MANI_RANK_PERF_RESULTS_DIR`` points it
    elsewhere: the CI perf-smoke job collects its payloads there to compare
    them with the committed baselines (``benchmarks/perf_summary.py``), and
    ``MANI_RANK_PERF_RESULTS_DIR=benchmarks/results`` refreshes the baselines.
    """
    override = os.environ.get("MANI_RANK_PERF_RESULTS_DIR")
    if not override:
        return tmp_path_factory.mktemp("results")
    path = Path(override)
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def save_result(results_directory):
    """Persist an experiment result as JSON + text in :func:`results_directory`."""

    def _save(result: ExperimentResult) -> None:
        result.save(results_directory / f"{result.experiment}.json")
        text_path = results_directory / f"{result.experiment}.txt"
        text_path.write_text(result.to_text() + "\n")

    return _save
