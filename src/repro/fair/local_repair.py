"""Fairness-preserving local Kemeny repair (post-correction PD-loss recovery).

Make-MR-Fair moves candidates to satisfy the MANI-Rank criteria, but its swap
rule optimises parity only — the corrected consensus can leave *free* Kemeny
improvements on the table: adjacent transpositions that reduce the pairwise
disagreement with the base rankings while keeping every ARP/IRP score within
its threshold.  :func:`fair_local_kemenization` harvests exactly those: a
local-Kemenization bubble pass where a swap is accepted only when

1. it strictly reduces the Kemeny objective (the classic Dwork et al. rule),
   *and*
2. the swapped ranking still satisfies every MANI-Rank threshold.

The result is MANI-Rank feasible by construction, never worse in PD loss than
the corrected input, and locally optimal among fairness-feasible adjacent
transpositions.

**Performance.**  The main implementation is a client of both incremental
engines: the Kemeny condition is an O(1) read of
:class:`repro.aggregation.incremental.KemenyDeltaEngine`'s cached margin
matrix, and the feasibility condition is an O(sum of group counts) query of
:class:`repro.fairness.incremental.FairnessState` — no ranking is
materialised and no parity score recomputed from scratch.  The original
from-scratch evaluation is retained as
:func:`fair_local_kemenization_reference`; the property tests assert both
produce the identical swap sequence and final ranking.

**Neighbourhoods.**  The repair mirrors the strategy family of
:mod:`repro.aggregation.search`: :func:`fair_insertion_kemenization` runs the
fairness-filtered variable-neighbourhood descent — fair adjacent passes to
convergence, then best-improvement block moves, looping — so its result is
never worse in Kemeny objective than the plain adjacent repair on the same
input.  A block-move pass scores one candidate's whole target row at a time:
:meth:`KemenyDeltaEngine.move_deltas
<repro.aggregation.incremental.KemenyDeltaEngine.move_deltas>` gives every
target's objective change and :meth:`FairnessState.parity_after_moves
<repro.fairness.incremental.FairnessState.parity_after_moves>` every target's
parity, so the feasibility filter is one mask over the row rather than one
query per target.  :func:`fair_local_search` dispatches a strategy name
(``adjacent-swap`` / ``insertion`` / ``combined``) the same way the
unconstrained search does.  ``fair-borda-insertion`` in the method
registry is Fair-Borda post-processed with the insertion repair.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.search import get_strategy
from repro.core.candidates import CandidateTable
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.fairness.incremental import FairnessState
from repro.fairness.parity import parity_scores
from repro.fairness.thresholds import FairnessThresholds

__all__ = [
    "FairLocalRepairResult",
    "fair_local_kemenization",
    "fair_local_kemenization_reference",
    "fair_insertion_kemenization",
    "fair_insertion_kemenization_reference",
    "fair_local_search",
]

#: Feasibility tolerance, matching ``mani_rank_satisfied`` / Make-MR-Fair.
_FEASIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FairLocalRepairResult:
    """Outcome of a fairness-preserving local Kemeny repair.

    ``n_moves`` counts the accepted block (insertion) moves for the
    neighbourhoods that use them; the adjacent-only repair reports ``None``.
    """

    ranking: Ranking
    n_swaps: int
    n_passes: int
    objective: float
    n_moves: int | None = None


def _check_universe(ranking: Ranking, table: CandidateTable) -> None:
    if ranking.n_candidates != table.n_candidates:
        raise AggregationError(
            "ranking and candidate table cover different universes: "
            f"{ranking.n_candidates} vs {table.n_candidates} candidates"
        )


def _feasible(
    after: Mapping[str, float], thresholds: FairnessThresholds
) -> bool:
    """Every hypothetical parity score within its threshold (plus tolerance)."""
    return all(
        score <= thresholds.threshold_for(entity) + _FEASIBILITY_TOLERANCE
        for entity, score in after.items()
    )


def _fair_adjacent_pass(
    engine: KemenyDeltaEngine,
    fairness: FairnessState,
    thresholds: FairnessThresholds,
) -> int:
    """One fairness-filtered bubble pass; returns the number of accepted swaps.

    The margins of the adjacent pairs come from one gather at the start of
    the pass.  A swap at position ``p`` moves its upper candidate into the
    pair at ``p + 1``, so that pair's margin is read from the engine; every
    later pair is still as gathered.
    """
    order = engine.order_list
    margins = engine.adjacent_margins()
    accepted = 0
    swapped = False
    for position in range(engine.n_candidates - 1):
        upper = order[position]
        lower = order[position + 1]
        margin = engine.margin(upper, lower) if swapped else margins[position]
        swapped = False
        if margin <= 0.0:
            continue
        if not _feasible(fairness.parity_after_swap(upper, lower), thresholds):
            continue
        engine.apply_adjacent_swap(position)
        fairness.apply_swap(upper, lower)
        accepted += 1
        swapped = True
    return accepted


def _fair_insertion_pass(
    engine: KemenyDeltaEngine,
    fairness: FairnessState,
    thresholds: FairnessThresholds,
) -> int:
    """One fairness-filtered best-improvement insertion pass.

    For each candidate (id order) the engine scores every target position in
    one vectorised gather and the fairness engine every target's parity in
    another; of the improving targets that stay MANI-Rank feasible, the
    best one (ties towards the smallest position) is applied.  Returns the
    number of applied block moves.
    """
    limits = {
        entity: thresholds.threshold_for(entity) + _FEASIBILITY_TOLERANCE
        for entity in fairness.entities
    }
    moved = 0
    for candidate in range(engine.n_candidates):
        deltas = engine.move_deltas(candidate)
        improving = np.flatnonzero(deltas < 0.0)
        if improving.size == 0:
            continue
        feasible = np.ones(engine.n_candidates, dtype=bool)
        for entity, parity in fairness.parity_after_moves(candidate).items():
            feasible &= parity <= limits[entity]
        eligible = improving[feasible[improving]]
        if eligible.size == 0:
            continue
        target = int(eligible[np.lexsort((eligible, deltas[eligible]))[0]])
        engine.apply_move(candidate, target)
        fairness.apply_move(candidate, target)
        moved += 1
    return moved


def fair_local_kemenization(
    rankings: RankingSet,
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_passes: int = 50,
) -> FairLocalRepairResult:
    """Locally improve the Kemeny objective without leaving the fair region.

    Bubble passes over the ranking accept an adjacent swap only when it both
    strictly reduces the Kemeny objective and keeps every MANI-Rank parity
    score within its threshold (same tolerance as ``mani_rank_satisfied``).
    Identical swap decisions to :func:`fair_local_kemenization_reference`.

    The input is typically a Make-MR-Fair correction; an infeasible input is
    allowed (the repair simply has no feasible swaps to accept unless a swap
    lands inside the fair region).
    """
    _check_universe(ranking, table)
    thresholds = FairnessThresholds.coerce(delta)
    engine = KemenyDeltaEngine(rankings, ranking)
    fairness = FairnessState(ranking, table)
    n_swaps = 0
    n_passes = 0
    for _ in range(max_passes):
        accepted = _fair_adjacent_pass(engine, fairness, thresholds)
        if accepted == 0:
            break
        n_swaps += accepted
        n_passes += 1
    return FairLocalRepairResult(
        ranking=engine.to_ranking(),
        n_swaps=n_swaps,
        n_passes=n_passes,
        objective=engine.objective,
    )


def fair_insertion_kemenization(
    rankings: RankingSet,
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_passes: int = 50,
) -> FairLocalRepairResult:
    """Fairness-constrained insertion (block-move) local Kemeny repair.

    The fairness-filtered mirror of
    :class:`repro.aggregation.search.InsertionStrategy`'s variable-
    neighbourhood descent, with the same pass accounting: fair adjacent
    passes until converged, then one best-improvement insertion pass whose
    moves must keep every MANI-Rank parity score within its threshold
    (infeasible targets are skipped in favour of the next-best improving
    one), looping until no feasible insertion move remains or the budget
    runs out.  Because the first phase is exactly
    :func:`fair_local_kemenization` and every later move strictly improves
    the objective, the result is never worse in Kemeny objective (and hence
    PD loss against the base rankings) than the adjacent-only repair —
    while staying MANI-Rank feasible by construction for feasible inputs.

    Identical move decisions to
    :func:`fair_insertion_kemenization_reference` (enforced by the property
    tests).
    """
    _check_universe(ranking, table)
    thresholds = FairnessThresholds.coerce(delta)
    engine = KemenyDeltaEngine(rankings, ranking)
    fairness = FairnessState(ranking, table)
    n_swaps = 0
    n_moves = 0
    n_passes = 0
    while True:
        while n_passes < max_passes:
            accepted = _fair_adjacent_pass(engine, fairness, thresholds)
            if accepted == 0:
                break
            n_swaps += accepted
            n_passes += 1
        if n_passes >= max_passes:
            break
        moved = _fair_insertion_pass(engine, fairness, thresholds)
        if moved == 0:
            break
        n_moves += moved
        n_passes += 1
    return FairLocalRepairResult(
        ranking=engine.to_ranking(),
        n_swaps=n_swaps,
        n_passes=n_passes,
        objective=engine.objective,
        n_moves=n_moves,
    )


def fair_local_search(
    rankings: RankingSet,
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    strategy: str = "adjacent-swap",
    max_passes: int = 50,
) -> FairLocalRepairResult:
    """Fairness-preserving repair with a pluggable neighbourhood strategy.

    Accepts the same strategy names as
    :func:`repro.aggregation.search.get_strategy`: ``adjacent-swap`` runs
    :func:`fair_local_kemenization`, ``insertion`` runs
    :func:`fair_insertion_kemenization`, and ``combined`` runs greedy
    fairness-filtered insertion passes from the raw input followed by a
    final adjacent polish (the mirror of
    :class:`repro.aggregation.search.CombinedStrategy`).
    """
    name = get_strategy(strategy).name
    if name == "adjacent-swap":
        return fair_local_kemenization(
            rankings, ranking, table, delta, max_passes=max_passes
        )
    if name == "insertion":
        return fair_insertion_kemenization(
            rankings, ranking, table, delta, max_passes=max_passes
        )
    _check_universe(ranking, table)
    thresholds = FairnessThresholds.coerce(delta)
    engine = KemenyDeltaEngine(rankings, ranking)
    fairness = FairnessState(ranking, table)
    n_moves = 0
    n_passes = 0
    for _ in range(max_passes):
        moved = _fair_insertion_pass(engine, fairness, thresholds)
        if moved == 0:
            break
        n_moves += moved
        n_passes += 1
    n_swaps = 0
    for _ in range(max_passes):
        accepted = _fair_adjacent_pass(engine, fairness, thresholds)
        if accepted == 0:
            break
        n_swaps += accepted
        n_passes += 1
    return FairLocalRepairResult(
        ranking=engine.to_ranking(),
        n_swaps=n_swaps,
        n_passes=n_passes,
        objective=engine.objective,
        n_moves=n_moves,
    )


def fair_local_kemenization_reference(
    rankings: RankingSet,
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_passes: int = 50,
) -> FairLocalRepairResult:
    """From-scratch fairness-preserving repair, retained as ground truth.

    Every candidate swap materialises the swapped :class:`Ranking`, rescores
    it with :func:`repro.fairness.parity.parity_scores`, and the final
    objective is recomputed with :func:`kemeny_objective` — one evaluated
    swap costs O(n * sum of group counts) instead of the engines' O(1) +
    O(sum of group counts).  :func:`fair_local_kemenization` must produce the
    identical swap sequence and final ranking (enforced by the test suite).
    """
    _check_universe(ranking, table)
    thresholds = FairnessThresholds.coerce(delta)
    precedence = rankings.precedence_matrix()
    current = ranking
    n = ranking.n_candidates
    n_swaps = 0
    n_passes = 0
    for _ in range(max_passes):
        improved = False
        for position in range(n - 1):
            upper = current.candidate_at(position)
            lower = current.candidate_at(position + 1)
            if precedence[lower, upper] >= precedence[upper, lower]:
                continue
            swapped = current.swap(upper, lower)
            after = parity_scores(swapped, table)
            if any(
                score > thresholds.threshold_for(entity) + _FEASIBILITY_TOLERANCE
                for entity, score in after.items()
            ):
                continue
            current = swapped
            improved = True
            n_swaps += 1
        if not improved:
            break
        n_passes += 1
    return FairLocalRepairResult(
        ranking=current,
        n_swaps=n_swaps,
        n_passes=n_passes,
        objective=kemeny_objective(current, rankings),
    )


def _reference_moved(ranking: Ranking, candidate: int, target: int) -> Ranking:
    """Materialise the block move of ``candidate`` to position ``target``."""
    order = ranking.to_list()
    order.remove(candidate)
    order.insert(target, candidate)
    return Ranking(np.asarray(order, dtype=np.int64), validate=False)


def fair_insertion_kemenization_reference(
    rankings: RankingSet,
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_passes: int = 50,
) -> FairLocalRepairResult:
    """From-scratch fairness-constrained insertion repair (ground truth).

    The same variable-neighbourhood descent as
    :func:`fair_insertion_kemenization` with every quantity recomputed from
    scratch: adjacent passes materialise each swapped ranking and rescore it
    with :func:`repro.fairness.parity.parity_scores`; insertion passes score
    every target of a candidate by materialising the moved ranking and
    recomputing :func:`kemeny_objective`, sort the improving targets by
    ``(delta, position)`` — matching the engine's best-first ``argmin``
    tie-breaking — and accept the first whose rescored parity stays within
    the thresholds.  One evaluated insertion pass costs O(n^4); the function
    exists purely as the test suite's semantic ground truth on small inputs.
    """
    _check_universe(ranking, table)
    thresholds = FairnessThresholds.coerce(delta)
    precedence = rankings.precedence_matrix()
    current = ranking
    n = ranking.n_candidates
    n_swaps = 0
    n_moves = 0
    n_passes = 0
    while True:
        while n_passes < max_passes:
            accepted = 0
            for position in range(n - 1):
                upper = current.candidate_at(position)
                lower = current.candidate_at(position + 1)
                if precedence[lower, upper] >= precedence[upper, lower]:
                    continue
                swapped = current.swap(upper, lower)
                if not _feasible(parity_scores(swapped, table), thresholds):
                    continue
                current = swapped
                accepted += 1
            if accepted == 0:
                break
            n_swaps += accepted
            n_passes += 1
        if n_passes >= max_passes:
            break
        moved = 0
        for candidate in range(n):
            objective = kemeny_objective(current, rankings)
            position = current.position_of(candidate)
            scored: list[tuple[float, int]] = []
            for target in range(n):
                if target == position:
                    continue
                delta_objective = (
                    kemeny_objective(
                        _reference_moved(current, candidate, target), rankings
                    )
                    - objective
                )
                if delta_objective < 0.0:
                    scored.append((delta_objective, target))
            for _, target in sorted(scored):
                candidate_moved = _reference_moved(current, candidate, target)
                if _feasible(parity_scores(candidate_moved, table), thresholds):
                    current = candidate_moved
                    moved += 1
                    break
        if moved == 0:
            break
        n_moves += moved
        n_passes += 1
    return FairLocalRepairResult(
        ranking=current,
        n_swaps=n_swaps,
        n_passes=n_passes,
        objective=kemeny_objective(current, rankings),
        n_moves=n_moves,
    )
