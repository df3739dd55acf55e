"""Table III — Fair-Borda runtime as the candidate count grows.

The paper scales Fair-Borda to 100 000 candidates at Δ = 0.33 on the Figure 7
dataset and reports execution times (1k candidates → 0.37 s, 100k → 3007 s on
the authors' machine).  The reproduced quantity is the super-linear growth in
the candidate count (the Make-MR-Fair correction dominates as n grows) while
remaining practical for tens of thousands of candidates.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from functools import partial

from repro.aggregation.borda import BordaAggregator
from repro.experiments.figure7 import FIGURE7_MODAL_TARGETS
from repro.experiments.harness import ScenarioData, ScenarioGrid, require_scale
from repro.experiments.reporting import ExperimentResult
from repro.fair.make_mr_fair import make_mr_fair
from repro.fairness.thresholds import FairnessThresholds

__all__ = ["run"]

#: Paper-reported runtimes (seconds), reported next to the measured ones.
PAPER_RUNTIMES = {
    1_000: 0.37,
    10_000: 30.83,
    20_000: 121.49,
    30_000: 273.24,
    40_000: 482.29,
    50_000: 749.00,
    100_000: 3_007.19,
}

_SCALE_PARAMETERS = {
    "paper": {"candidate_counts": (1_000, 5_000, 10_000, 20_000), "n_rankings": 100},
    "ci": {"candidate_counts": (200, 500, 1_000), "n_rankings": 20},
}


def _measure_cell(data: ScenarioData, delta: float) -> dict[str, object]:
    """Time one Fair-Borda run on a materialised cell."""
    start = time.perf_counter()
    seed_ranking = BordaAggregator().aggregate(data.rankings)
    corrected = make_mr_fair(seed_ranking, data.table, FairnessThresholds(delta))
    elapsed = time.perf_counter() - start
    return {
        "runtime_s": elapsed,
        "n_swaps": corrected.n_swaps,
        "paper_runtime_s": PAPER_RUNTIMES.get(data.cell.n_candidates, float("nan")),
    }


def run(
    scale: str = "ci",
    delta: float = 0.33,
    theta: float = 0.6,
    seed: int = 2022,
    candidate_counts: Sequence[int] | None = None,
) -> ExperimentResult:
    """Reproduce Table III: Fair-Borda execution time vs candidate count (Δ = 0.33)."""
    scale = require_scale(scale)
    parameters = _SCALE_PARAMETERS[scale]
    counts = (
        tuple(candidate_counts)
        if candidate_counts is not None
        else parameters["candidate_counts"]
    )
    result = ExperimentResult(
        experiment="table3",
        title="Table III: Fair-Borda scalability in the number of candidates",
        parameters={
            "scale": scale,
            "candidate_counts": list(counts),
            "n_rankings": parameters["n_rankings"],
            "theta": theta,
            "delta": delta,
            "seed": seed,
        },
    )
    grid = ScenarioGrid.product(
        candidate_counts=counts,
        ranking_counts=(parameters["n_rankings"],),
        thetas=(theta,),
        modal_targets=FIGURE7_MODAL_TARGETS,
        seed=seed,
    )

    result.extend(grid.run(partial(_measure_cell, delta=delta)))
    result.notes.append(
        "Runtime excludes dataset generation (the paper also times only the "
        "aggregation); absolute times are machine dependent, the growth shape "
        "is the reproduced quantity."
    )
    return result
