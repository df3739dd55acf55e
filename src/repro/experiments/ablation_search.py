"""Ablation — local-search neighbourhood strategies on the Mallows grid.

The paper post-processes consensus rankings with adjacent-swap local
Kemenization only.  :mod:`repro.aggregation.search` generalises that step to
pluggable neighbourhoods on the incremental Kemeny-delta engine, so this
experiment adds the missing ablation axis: for every cell of a Mallows
(n, m, θ) grid it seeds with the Borda consensus and runs each strategy —
``adjacent-swap``, ``insertion``, ``combined`` — recording the reached Kemeny
objective, the strategy's own wall-clock time, and its pass/move counts.

Expected shape: ``insertion`` is never worse in objective than
``adjacent-swap`` on any cell (a structural guarantee of its
variable-neighbourhood schedule, not a statistical observation — see
:class:`repro.aggregation.search.InsertionStrategy`), and the gap widens as
θ shrinks (noisier profiles leave more non-adjacent disorder for block moves
to fix).  ``combined`` explores the large neighbourhood first and carries no
such guarantee; the ablation measures how the two schedules compare.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.aggregation.borda import BordaAggregator
from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.search import available_strategies, get_strategy
from repro.core.ranking import Ranking
from repro.experiments.figure6 import SCALABILITY_MODAL_TARGETS
from repro.experiments.harness import ScenarioData, ScenarioGrid, require_scale
from repro.experiments.reporting import ExperimentResult

__all__ = ["run", "evaluate_strategy_cell"]

_SCALE_PARAMETERS = {
    "paper": {
        "candidate_counts": (100, 200),
        "ranking_counts": (500,),
        "thetas": (0.1, 0.3, 0.6),
    },
    "ci": {
        "candidate_counts": (30,),
        "ranking_counts": (40, 80),
        "thetas": (0.2, 0.6),
    },
}

#: Generous budget so every strategy runs to convergence on grid workloads.
_MAX_PASSES = 1000

#: Search seeds measured per cell: the Borda consensus (the aggregator's own
#: near-optimal seed) and its reversal (an adversarially bad upstream
#: ranking, the cold seed of the perf benchmarks).
SEED_KINDS = ("borda", "cold")


def evaluate_strategy_cell(data: ScenarioData) -> dict[str, object]:
    """:meth:`ScenarioGrid.run` callback timing one strategy on one cell.

    The Borda seed is recomputed per strategy cell; it is cheap next to the
    search and keeps every strategy's input bit-identical by construction.
    """
    strategy = get_strategy(str(data.cell.extras["strategy"]))
    seed = BordaAggregator().aggregate(data.rankings)
    if data.cell.extras["seed_ranking"] == "cold":
        seed = Ranking(seed.order[::-1].copy(), validate=False)
    engine = KemenyDeltaEngine(data.rankings, seed)
    start = time.perf_counter()
    stats = strategy.search(engine, max_passes=_MAX_PASSES)
    search_seconds = time.perf_counter() - start
    record: dict[str, object] = {
        "objective": engine.objective,
        "search_s": search_seconds,
        "n_passes": stats.n_passes,
    }
    if stats.n_moves is not None:
        record["n_moves"] = stats.n_moves
    return record


def run(
    scale: str = "ci",
    theta: float | None = None,
    seed: int = 2022,
    strategies: Sequence[str] | None = None,
) -> ExperimentResult:
    """Compare the local-search strategies' objective/time on a Mallows grid.

    Every record carries the cell's data axes plus ``seed_ranking`` (the
    Borda consensus or its reversal), ``strategy``, ``objective``,
    ``search_s`` (the strategy run alone, excluding the seed computation),
    ``n_passes``, and — for the block-move strategies — ``n_moves``.
    ``theta`` restricts the sweep to a single spread value.
    """
    scale = require_scale(scale)
    parameters = _SCALE_PARAMETERS[scale]
    thetas = (float(theta),) if theta is not None else parameters["thetas"]
    names = tuple(strategies) if strategies is not None else available_strategies()
    grid = ScenarioGrid.product(
        candidate_counts=parameters["candidate_counts"],
        ranking_counts=parameters["ranking_counts"],
        thetas=thetas,
        modal_targets=SCALABILITY_MODAL_TARGETS,
        param_grid={"seed_ranking": SEED_KINDS, "strategy": names},
        seed=seed,
    )
    result = ExperimentResult(
        experiment="ablation-search",
        title="Ablation: local-search neighbourhood strategies (Borda seed)",
        parameters={
            "scale": scale,
            "candidate_counts": list(parameters["candidate_counts"]),
            "ranking_counts": list(parameters["ranking_counts"]),
            "thetas": list(thetas),
            "strategies": list(names),
            "max_passes": _MAX_PASSES,
            "seed": seed,
        },
    )
    result.extend(grid.run(evaluate_strategy_cell))
    result.notes.append(
        "insertion is structurally never worse in objective than "
        "adjacent-swap on the same cell; combined carries no such guarantee "
        "(see repro.aggregation.search)."
    )
    return result
