"""Shared configuration for the paper-reproduction benchmark suite.

Every benchmark runs one experiment module (one paper table or figure) at the
``ci`` scale through ``pytest-benchmark`` and writes the regenerated
rows/series to ``benchmarks/results/`` (or to ``MANI_RANK_PERF_RESULTS_DIR``
when set) as both JSON and readable text, so the numbers behind each figure
can be inspected after a run.

Set the environment variable ``MANI_RANK_BENCH_SCALE=paper`` to run the
full-size configurations instead (slow without a commercial ILP solver).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.reporting import ExperimentResult

RESULTS_DIRECTORY = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Scale preset used by every benchmark (``ci`` unless overridden)."""
    return os.environ.get("MANI_RANK_BENCH_SCALE", "ci")


@pytest.fixture(scope="session")
def results_directory() -> Path:
    """Directory collecting the regenerated tables/figures."""
    RESULTS_DIRECTORY.mkdir(exist_ok=True)
    return RESULTS_DIRECTORY


@pytest.fixture(scope="session")
def perf_output_directory() -> Path | None:
    """Redirect target for the ``perf_*`` benchmarks' persisted payloads.

    ``None`` (the default) keeps the standard behaviour: full-scale runs
    write the committed baselines under ``benchmarks/results/`` and smoke
    runs assert without persisting.  Setting ``MANI_RANK_PERF_RESULTS_DIR``
    makes every perf run — smoke included — persist to that directory
    instead, which is how the CI perf-smoke job captures fresh results as an
    uploadable artifact and compares them against the committed baseline
    (``benchmarks/perf_summary.py``) without ever overwriting it.
    """
    override = os.environ.get("MANI_RANK_PERF_RESULTS_DIR")
    if not override:
        return None
    path = Path(override)
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def save_result(results_directory, perf_output_directory):
    """Persist an experiment result as JSON + text next to the benchmarks.

    ``MANI_RANK_PERF_RESULTS_DIR`` redirects it like the perf payloads, so a
    redirected run never rewrites the committed ``ablation-search`` files.
    """
    directory = perf_output_directory or results_directory

    def _save(result: ExperimentResult) -> None:
        result.save(directory / f"{result.experiment}.json")
        text_path = directory / f"{result.experiment}.txt"
        text_path.write_text(result.to_text() + "\n")

    return _save
