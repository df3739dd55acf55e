"""Unit tests for the perf timing helpers: the paired-median estimator behind
the perf ratio gates, and the machine stamp every perf payload carries."""

from __future__ import annotations

import os
import platform

import numpy as np
import perf_timing
from perf_timing import paired_median


def _scripted_timer(monkeypatch, timings):
    """Make every timed call run its function once and report the next timing."""
    remaining = iter(timings)

    def timeit(function, number):
        assert number == 1
        function()
        return next(remaining)

    monkeypatch.setattr(perf_timing.timeit, "timeit", timeit)


def test_sides_alternate_and_the_gate_is_the_median_of_round_ratios(monkeypatch):
    # Three (reference, engine) rounds; the second is a slow spell for both.
    _scripted_timer(monkeypatch, [4.0, 1.0, 12.0, 2.0, 5.0, 2.5])
    calls = []
    seconds, speedups = paired_median(
        (lambda: calls.append("reference"), lambda: calls.append("engine")), 3
    )
    assert calls == ["reference", "engine"] * 3
    assert seconds == [5.0, 2.0]
    # Per-round ratios 4, 6 and 2: their median, not the ratio of the
    # per-side medians (2.5).
    assert speedups == [4.0]


def test_a_single_function_reports_its_median_and_no_ratio(monkeypatch):
    _scripted_timer(monkeypatch, [0.3, 0.1, 0.2])
    seconds, speedups = paired_median((lambda: None,), 3)
    assert seconds == [0.2]
    assert speedups == []



def test_machine_stamp_names_cpus_and_versions():
    assert perf_timing.machine_stamp() == {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
