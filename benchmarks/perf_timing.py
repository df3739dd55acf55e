"""Paired-median timing, the estimator behind the perf benchmarks' ratio gates.

On a shared machine the speed of one core drifts by up to 2x over seconds.
A ratio of minima taken in separate phases can then pit a fast spell on one
side against a slow spell on the other, and swing well away from the
typical ratio.  :func:`paired_median` instead times every side once per
round, back to back, so the sides of one round see the same drift, and
reports medians over the rounds.  :func:`machine_stamp` is the record of
the machine that every perf payload carries.
"""

from __future__ import annotations

import os
import platform
import statistics
import timeit
from collections.abc import Callable, Sequence

import numpy as np


def machine_stamp() -> dict[str, object]:
    """CPU count and the Python and numpy versions of this run.

    Every perf payload records it under ``"machine"``, so a baseline's
    absolute times can be told apart from a run on a different machine.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def paired_median(
    functions: Sequence[Callable[[], object]], rounds: int
) -> tuple[list[float], list[float]]:
    """Time ``functions`` back to back for ``rounds`` rounds.

    Returns ``(seconds, speedups)``.  ``seconds[i]`` is the median
    wall-clock time of one call of ``functions[i]``.  ``speedups[i - 1]``
    is the median over rounds of the first function's time divided by the
    time of ``functions[i]``, for every function after the first.
    """
    timings = [
        [timeit.timeit(function, number=1) for function in functions]
        for _ in range(rounds)
    ]
    seconds = [statistics.median(column) for column in zip(*timings)]
    speedups = [
        statistics.median(row[0] / row[index] for row in timings)
        for index in range(1, len(functions))
    ]
    return seconds, speedups
