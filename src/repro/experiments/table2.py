"""Table II — Fair-Borda runtime as the number of base rankings grows.

The paper pushes Fair-Borda (its fastest MFCR method) to tens of millions of
base rankings on the Figure 6 dataset and reports execution times (1k rankings
→ 4.8 s, 10M rankings → 50.75 s on the authors' machine).  Absolute times
depend on the machine; the property to reproduce is that the runtime grows
mildly (roughly linearly in |R| with a large constant offset from the
per-candidate work) and stays practical at large |R|.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from functools import partial

from repro.aggregation.borda import BordaAggregator
from repro.core.ranking_set import RankingSet
from repro.experiments.figure6 import SCALABILITY_MODAL_TARGETS
from repro.experiments.harness import ScenarioData, ScenarioGrid, require_scale
from repro.experiments.reporting import ExperimentResult
from repro.fair.make_mr_fair import make_mr_fair
from repro.fairness.thresholds import FairnessThresholds

__all__ = ["run"]

#: Paper-reported runtimes (seconds), reported next to the measured ones.
PAPER_RUNTIMES = {
    1_000: 4.8,
    10_000: 4.81,
    100_000: 5.21,
    1_000_000: 9.36,
    10_000_000: 50.75,
}

_SCALE_PARAMETERS = {
    "paper": {"n_candidates": 100, "ranking_counts": (1_000, 10_000, 100_000, 1_000_000)},
    "ci": {"n_candidates": 40, "ranking_counts": (200, 1_000, 5_000)},
}


def _measure_tier(data: ScenarioData, delta: float) -> dict[str, object]:
    """Replicate the base sample to one tier size and time Fair-Borda on it.

    The returned ``n_rankings`` is the tier's replicated count, overriding
    the record's base-sample axis value.
    """
    count = int(data.cell.extras["count"])
    base = data.rankings
    repetitions, remainder = divmod(count, base.n_rankings)
    rankings = list(base.rankings) * repetitions + list(base.rankings[:remainder])
    ranking_set = RankingSet(rankings)
    start = time.perf_counter()
    seed_ranking = BordaAggregator().aggregate(ranking_set)
    corrected = make_mr_fair(seed_ranking, data.table, FairnessThresholds(delta))
    elapsed = time.perf_counter() - start
    return {
        "n_rankings": count,
        "runtime_s": elapsed,
        "n_swaps": corrected.n_swaps,
        "paper_runtime_s": PAPER_RUNTIMES.get(count, float("nan")),
    }


def run(
    scale: str = "ci",
    delta: float = 0.1,
    theta: float = 0.6,
    seed: int = 2022,
    ranking_counts: Sequence[int] | None = None,
) -> ExperimentResult:
    """Reproduce Table II: Fair-Borda execution time vs number of base rankings.

    Because materialising tens of millions of sampled rankings is memory
    bound, the base rankings for each tier are sampled once at the smallest
    tier size and *replicated* to the requested count before aggregation —
    Borda's cost depends only on the number of rankings processed, not their
    diversity, so replication preserves the runtime behaviour being measured.

    The tiers run as one :class:`ScenarioGrid` sweep over a single shared
    workload (the base sample) with the tier size as a cell parameter.
    """
    scale = require_scale(scale)
    parameters = _SCALE_PARAMETERS[scale]
    counts = tuple(ranking_counts) if ranking_counts is not None else parameters["ranking_counts"]
    base_count = min(min(counts), 1_000)
    # The grid materialises the shared kernels (table, calibrated modal, the
    # batched base sample) once; each tier cell replicates that base sample.
    grid = ScenarioGrid.product(
        candidate_counts=(parameters["n_candidates"],),
        ranking_counts=(base_count,),
        thetas=(theta,),
        modal_targets=SCALABILITY_MODAL_TARGETS,
        param_grid={"count": counts},
        seed=seed,
    )
    result = ExperimentResult(
        experiment="table2",
        title="Table II: Fair-Borda scalability in the number of base rankings",
        parameters={
            "scale": scale,
            "n_candidates": parameters["n_candidates"],
            "theta": theta,
            "delta": delta,
            "seed": seed,
            "base_n_rankings": base_count,
        },
    )
    records = grid.run(partial(_measure_tier, delta=delta))
    for record in records:
        # The tier size rides in as the cell extra "count" and is reported as
        # the record's n_rankings; drop the duplicate column.
        record.pop("count", None)
    result.extend(records)
    result.notes.append(
        "Base rankings are replicated to reach each tier size (Borda cost "
        "depends only on the number of rankings processed); absolute times "
        "are machine dependent, the growth shape is the reproduced quantity."
    )
    return result
