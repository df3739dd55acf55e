"""Make-MR-Fair: pairwise bias-mitigation post-processing (Algorithm 2).

Make-MR-Fair takes a consensus ranking and repeatedly swaps one pair of
candidates until the ranking satisfies the MANI-Rank criteria for the desired
``Δ``.  Each iteration of the paper's Algorithm 2:

1. computes the ARP of every protected attribute and the IRP;
2. if every score is within its threshold, stops;
3. otherwise picks the *least fair* entity (largest ARP/IRP), and within it
   the group with the highest FPR (``G_highest``) and the lowest FPR
   (``G_lowest``);
4. finds the best-positioned member of ``G_lowest`` (``x_Gl``) and the
   worst-positioned member of ``G_highest`` still ranked above it (``x_Gh``),
   and swaps the two.

Swapping the *lowest* advantaged candidate that still sits above the *highest*
disadvantaged candidate moves the disadvantaged candidate far up the ranking
in one swap — few, impactful swaps — which is how the algorithm keeps the
PD-loss increase small (the design rationale given in Section III-B).

**Termination.**  The paper's swap rule alone can fail to terminate on
difficult group structures: a large jump can overshoot the parity band for
small groups, and corrections for one entity can undo corrections for another
(attribute vs intersection ping-pong).  This implementation therefore wraps
the paper's swap choice in a *global progress* rule: a move is accepted only
if it strictly decreases the total violation

    potential(π) = Σ_entities max(0, parity(entity, π) − Δ_entity).

When the paper's swap would not make progress, small single-step moves
(promoting the most disadvantaged group's best candidate, or demoting the most
advantaged group's worst candidate, for any violating entity) are considered
instead; if no candidate move makes progress the threshold is reported as
unreachable.  Because the potential is non-negative and strictly decreases by
a positive amount on every accepted move, the procedure always terminates.

**Performance.**  The main implementation runs on the incremental fairness
engine (:class:`repro.fairness.incremental.FairnessState`): evaluating a
candidate move costs O(Σ n_groups) instead of a full O(n · n_groups) parity
recomputation plus an O(n) :class:`Ranking` copy.  Move selection reads the
engine's sorted per-group position lists: the paper swap is two bisects, and
the single-step moves start from the ends of the lists.  Applying a swap
keeps those lists sorted with a bisect removal and insertion per affected
group, so no numpy call remains in the per-swap path.  Each entity's
threshold is looked up once per call, into a list in the engine's entity
order, and the engine sums the potential with the reference's own ``sum``
expression.  A cheap-pool move is tried by applying it and reading the
potential, and swapped back if rejected; the exhaustive fallback scores its
moves without applying them.  The original
from-scratch evaluator is retained verbatim as
:func:`make_mr_fair_reference`; the test suite asserts both produce the
identical swap sequence, ``n_swaps``, and final ranking on every exercised
input.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.candidates import CandidateTable
from repro.core.pairwise import total_pairs
from repro.core.ranking import Ranking
from repro.exceptions import AggregationError
from repro.fairness.fpr import fpr_vector
from repro.fairness.incremental import FairnessState
from repro.fairness.parity import parity_scores
from repro.fairness.thresholds import FairnessThresholds

__all__ = ["MakeMRFairResult", "make_mr_fair", "make_mr_fair_reference"]

#: Minimum potential decrease a move must achieve to be accepted.
_PROGRESS_TOLERANCE = 1e-12


@dataclass
class MakeMRFairResult:
    """Outcome of a Make-MR-Fair run."""

    ranking: Ranking
    n_swaps: int
    corrected_entities: list[str] = field(default_factory=list)
    converged: bool = True


def _violation_potential(
    scores: Mapping[str, float], thresholds: FairnessThresholds
) -> float:
    """Total amount by which the parity scores exceed their thresholds."""
    return sum(
        max(0.0, score - thresholds.threshold_for(entity))
        for entity, score in scores.items()
    )


# ----------------------------------------------------------------------
# Incremental move generation (operates on FairnessState, O(group) per move)
# ----------------------------------------------------------------------
def _paper_swap_pair(state: FairnessState, entity: str) -> tuple[int, int] | None:
    """The swap Algorithm 2 prescribes for ``entity``, or ``None`` if unavailable.

    The advantaged candidate ``x_Gh`` is the worst-positioned member of the
    highest-FPR group that still has a member of the lowest-FPR group ranked
    below it, and ``x_Gl`` is the best-positioned such member.  On the two
    groups' sorted position lists that is two bisects: ``x_Gh`` sits at the
    predecessor in ``G_highest`` of ``G_lowest``'s last position, and
    ``x_Gl`` at the successor in ``G_lowest`` of ``x_Gh``'s position.
    """
    highest_index, lowest_index = state.extreme_groups(entity)
    highest = state.group_positions(entity, highest_index)
    lowest = state.group_positions(entity, lowest_index)
    index = bisect_left(highest, lowest[-1])
    if index == 0:
        return None
    position_gh = highest[index - 1]
    position_gl = lowest[bisect_right(lowest, position_gh)]
    order = state.order_list
    return order[position_gh], order[position_gl]


def _nearest_outside(positions: list[int], index: int, step: int) -> int:
    """The nearest position past ``positions[index]`` that is not in ``positions``.

    Walks in direction ``step`` (-1 up the ranking, +1 down it).  The
    group's members next to the start form a run of consecutive entries of
    the sorted list, so the walk reads only that run.  The result may fall
    off the ranking (-1 or n), which callers reject.
    """
    position = positions[index] + step
    index += step
    while 0 <= index < len(positions) and positions[index] == position:
        index += step
        position += step
    return position


def _single_step_pairs(
    state: FairnessState,
    entity: str,
    exhaustive: bool = False,
) -> list[tuple[int, int]]:
    """Minimal corrective moves for ``entity`` as candidate-id swap pairs.

    Mirrors the reference :func:`_single_step_moves` exactly — same move set
    in the same order — but reads the members' positions from the ends of
    the engine's sorted group lists instead of building a :class:`Ranking`
    per move.
    """
    highest_index, lowest_index = state.extreme_groups(entity)
    lowest = state.group_positions(entity, lowest_index)
    highest = state.group_positions(entity, highest_index)
    order = state.order_list
    pairs: list[tuple[int, int]] = []

    # Promote the best-placed lowest-group member (every member, best
    # first, when exhaustive) above the nearest non-member.
    for index in range(len(lowest)) if exhaustive else (0,):
        target = _nearest_outside(lowest, index, -1)
        if target >= 0:
            pairs.append((order[target], order[lowest[index]]))

    # Demote the worst-placed highest-group member (every member, worst
    # first, when exhaustive) below the nearest non-member.
    last = len(highest) - 1
    for index in range(last, -1, -1) if exhaustive else (last,):
        target = _nearest_outside(highest, index, 1)
        if target < state.n_candidates:
            pairs.append((order[highest[index]], order[target]))

    return pairs


def make_mr_fair(
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_swaps: int | None = None,
) -> MakeMRFairResult:
    """Correct ``ranking`` until it satisfies MANI-Rank fairness at ``delta``.

    Runs on the incremental fairness engine — every evaluated move costs
    O(Σ n_groups) rather than a from-scratch O(n · n_groups) parity pass —
    while reproducing the exact accept/reject decisions and swap sequence of
    :func:`make_mr_fair_reference`.

    Parameters
    ----------
    ranking:
        The consensus ranking to correct (it is not modified; a new ranking is
        returned).
    table:
        Candidate table defining the protected attributes and intersection.
    delta:
        Fairness threshold(s); see :class:`FairnessThresholds`.
    max_swaps:
        Safety cap; defaults to ``ω(X) * (#fairness entities + 1)``.

    Raises
    ------
    AggregationError
        If no pairwise move can make further progress toward the requested
        thresholds, or the swap budget is exhausted — both indicate the
        threshold is unreachable for the group structure (e.g. singleton
        intersectional groups force ``IRP = 1`` in any strict ranking).
    """
    if ranking.n_candidates != table.n_candidates:
        raise AggregationError(
            "ranking and candidate table cover different universes: "
            f"{ranking.n_candidates} vs {table.n_candidates} candidates"
        )
    thresholds = FairnessThresholds.coerce(delta)
    entities = table.all_fairness_entities()
    if max_swaps is None:
        max_swaps = total_pairs(table.n_candidates) * (len(entities) + 1)

    state = FairnessState(ranking, table)
    # Each entity's threshold, in state.entities order, looked up once.
    limits = [thresholds.threshold_for(entity) for entity in state.entities]
    corrected_entities: list[str] = []
    tolerance = 1e-9
    n_swaps = 0
    best_potential_seen = float("inf")
    stalled_iterations = 0
    stall_limit = max(25, table.n_candidates)
    while True:
        scores = state.parity_scores()
        violating = {
            entity: score
            for (entity, score), limit in zip(scores.items(), limits)
            if score > limit + tolerance
        }
        if not violating:
            return MakeMRFairResult(
                ranking=state.to_ranking(),
                n_swaps=n_swaps,
                corrected_entities=corrected_entities,
                converged=True,
            )
        if n_swaps >= max_swaps:
            raise AggregationError(
                f"Make-MR-Fair did not reach delta within {max_swaps} swaps; "
                f"remaining violations: {violating}. The requested threshold "
                "may be infeasible for this group structure."
            )
        potential = state.potential(limits)

        # Entity to correct: the least fair one among the violators (the
        # paper's choice).  Its Algorithm-2 swap is tried first; if that does
        # not make global progress, small single-step moves for every
        # violating entity are considered.  Moves are generated lazily: the
        # paper swap is accepted on the vast majority of iterations, so the
        # single-step pools are usually never built.
        def _candidate_moves():
            worst_entity = max(violating, key=violating.get)
            paper_pair = _paper_swap_pair(state, worst_entity)
            if paper_pair is not None:
                yield worst_entity, paper_pair
            for entity in sorted(violating, key=violating.get, reverse=True):
                for pair in _single_step_pairs(state, entity):
                    yield entity, pair

        # Accept the first move (paper swap preferred, then single steps in
        # decreasing order of entity violation) that makes global progress.
        # Each move is tried on the state itself and swapped back when it is
        # rejected (a swap is its own inverse).  The paper swap is accepted
        # on almost every iteration, and applying it and reading the
        # potential costs less than scoring it aside and then applying it.
        accepted: tuple[str, tuple[int, int]] | None = None
        accepted_potential = potential
        for entity, pair in _candidate_moves():
            state.apply_swap(*pair)
            move_potential = state.potential(limits)
            if move_potential < potential - _PROGRESS_TOLERANCE:
                accepted = (entity, pair)
                accepted_potential = move_potential
                break
            state.apply_swap(*pair)
        if accepted is None:
            # The cheap pool stalled (typically right at a threshold boundary
            # where the obvious swap for one entity would push another over).
            # Fall back to the best move in the exhaustive per-member pool —
            # even a non-improving one, because escaping such boundary states
            # can require temporarily trading one entity's violation for
            # another's.  A stall counter bounds how long the search may go
            # without setting a new best potential.  These moves are scored
            # aside and only the best one is applied.
            best_move_potential = float("inf")
            for entity in sorted(violating, key=violating.get, reverse=True):
                for pair in _single_step_pairs(state, entity, exhaustive=True):
                    move_potential = state.potential_after_swap(*pair, limits)
                    if move_potential < best_move_potential:
                        accepted = (entity, pair)
                        best_move_potential = move_potential
            accepted_potential = best_move_potential
            if accepted is not None:
                state.apply_swap(*accepted[1])
        if accepted is None:
            raise AggregationError(
                f"Make-MR-Fair cannot make further progress (remaining "
                f"violations: {violating}); the requested threshold appears "
                "infeasible for this group structure"
            )

        if accepted_potential < best_potential_seen - _PROGRESS_TOLERANCE:
            best_potential_seen = accepted_potential
            stalled_iterations = 0
        else:
            stalled_iterations += 1
            if stalled_iterations > stall_limit:
                raise AggregationError(
                    f"Make-MR-Fair made no progress for {stall_limit} "
                    f"consecutive swaps (remaining violations: {violating}); "
                    "the requested threshold appears infeasible for this "
                    "group structure"
                )

        corrected_entities.append(accepted[0])
        n_swaps += 1


# ----------------------------------------------------------------------
# From-scratch reference evaluator (the original implementation, retained
# verbatim for equivalence tests and as the perf baseline)
# ----------------------------------------------------------------------
def _paper_swap(
    ranking: Ranking,
    table: CandidateTable,
    entity: str,
) -> Ranking | None:
    """Reference move rule of :func:`_paper_swap_pair` on a concrete ranking."""
    groups = table.groups(entity)
    scores = fpr_vector(ranking, table, entity)
    highest_group = groups[int(np.argmax(scores))]
    lowest_group = groups[int(np.argmin(scores))]

    positions = ranking.positions
    lowest_members = np.asarray(lowest_group.members, dtype=np.int64)
    lowest_positions = positions[lowest_members]
    highest_members = np.asarray(highest_group.members, dtype=np.int64)
    for x_gh in highest_members[np.argsort(-positions[highest_members])]:
        below_mask = lowest_positions > positions[x_gh]
        if below_mask.any():
            candidates_below = lowest_members[below_mask]
            x_gl = int(candidates_below[np.argmin(positions[candidates_below])])
            return ranking.swap(int(x_gh), x_gl)
    return None


def _promotion_move(
    ranking: Ranking, member: int, member_set: frozenset[int]
) -> Ranking | None:
    """Swap ``member`` with the nearest candidate above it outside its group."""
    for position in range(ranking.position_of(member) - 1, -1, -1):
        neighbour = ranking.candidate_at(position)
        if neighbour not in member_set:
            return ranking.swap(neighbour, member)
    return None


def _demotion_move(
    ranking: Ranking, member: int, member_set: frozenset[int]
) -> Ranking | None:
    """Swap ``member`` with the nearest candidate below it outside its group."""
    for position in range(ranking.position_of(member) + 1, ranking.n_candidates):
        neighbour = ranking.candidate_at(position)
        if neighbour not in member_set:
            return ranking.swap(member, neighbour)
    return None


def _single_step_moves(
    ranking: Ranking,
    table: CandidateTable,
    entity: str,
    exhaustive: bool = False,
) -> list[Ranking]:
    """Reference move pool of :func:`_single_step_pairs` on a concrete ranking.

    By default two candidate moves are produced: promote the best-placed
    member of the lowest-FPR group above the nearest non-member, and demote
    the worst-placed member of the highest-FPR group below the nearest
    non-member.  With ``exhaustive=True`` the same promotion/demotion step is
    generated for *every* member of the lowest/highest group — used only when
    the cheap move pool stalls, to escape boundary situations where one entity
    can no longer improve without nudging a different pair of candidates.
    """
    groups = table.groups(entity)
    scores = fpr_vector(ranking, table, entity)
    lowest_group = groups[int(np.argmin(scores))]
    highest_group = groups[int(np.argmax(scores))]
    positions = ranking.positions
    moves: list[Ranking] = []

    lowest_members = np.asarray(lowest_group.members, dtype=np.int64)
    lowest_set = lowest_group.member_set()
    promotion_candidates = (
        lowest_members[np.argsort(positions[lowest_members])]
        if exhaustive
        else lowest_members[[np.argmin(positions[lowest_members])]]
    )
    for member in promotion_candidates:
        move = _promotion_move(ranking, int(member), lowest_set)
        if move is not None:
            moves.append(move)

    highest_members = np.asarray(highest_group.members, dtype=np.int64)
    highest_set = highest_group.member_set()
    demotion_candidates = (
        highest_members[np.argsort(-positions[highest_members])]
        if exhaustive
        else highest_members[[np.argmax(positions[highest_members])]]
    )
    for member in demotion_candidates:
        move = _demotion_move(ranking, int(member), highest_set)
        if move is not None:
            moves.append(move)

    return moves


def make_mr_fair_reference(
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_swaps: int | None = None,
) -> MakeMRFairResult:
    """From-scratch Make-MR-Fair: every move evaluated by full recomputation.

    This is the original implementation, kept as the semantic ground truth:
    each candidate move materialises a swapped :class:`Ranking` and rescores
    it with :func:`repro.fairness.parity.parity_scores`, so one evaluated
    move costs O(n · Σ n_groups).  :func:`make_mr_fair` must return the
    identical swap sequence, ``n_swaps``, and final ranking; the equivalence
    is enforced by the test suite and the perf benchmark.
    """
    if ranking.n_candidates != table.n_candidates:
        raise AggregationError(
            "ranking and candidate table cover different universes: "
            f"{ranking.n_candidates} vs {table.n_candidates} candidates"
        )
    thresholds = FairnessThresholds.coerce(delta)
    entities = table.all_fairness_entities()
    if max_swaps is None:
        max_swaps = total_pairs(table.n_candidates) * (len(entities) + 1)

    current = ranking
    corrected_entities: list[str] = []
    tolerance = 1e-9
    n_swaps = 0
    best_potential_seen = float("inf")
    stalled_iterations = 0
    stall_limit = max(25, table.n_candidates)
    while True:
        scores = parity_scores(current, table)
        violating = {
            entity: score
            for entity, score in scores.items()
            if score > thresholds.threshold_for(entity) + tolerance
        }
        if not violating:
            return MakeMRFairResult(
                ranking=current,
                n_swaps=n_swaps,
                corrected_entities=corrected_entities,
                converged=True,
            )
        if n_swaps >= max_swaps:
            raise AggregationError(
                f"Make-MR-Fair did not reach delta within {max_swaps} swaps; "
                f"remaining violations: {violating}. The requested threshold "
                "may be infeasible for this group structure."
            )
        potential = _violation_potential(scores, thresholds)

        worst_entity = max(violating, key=violating.get)
        candidate_moves: list[tuple[str, Ranking]] = []
        paper_move = _paper_swap(current, table, worst_entity)
        if paper_move is not None:
            candidate_moves.append((worst_entity, paper_move))
        for entity in sorted(violating, key=violating.get, reverse=True):
            for move in _single_step_moves(current, table, entity):
                candidate_moves.append((entity, move))

        accepted: tuple[str, Ranking] | None = None
        accepted_potential = potential
        for entity, move in candidate_moves:
            move_potential = _violation_potential(
                parity_scores(move, table), thresholds
            )
            if move_potential < potential - _PROGRESS_TOLERANCE:
                accepted = (entity, move)
                accepted_potential = move_potential
                break
        if accepted is None:
            best_move_potential = float("inf")
            for entity in sorted(violating, key=violating.get, reverse=True):
                for move in _single_step_moves(current, table, entity, exhaustive=True):
                    move_potential = _violation_potential(
                        parity_scores(move, table), thresholds
                    )
                    if move_potential < best_move_potential:
                        accepted = (entity, move)
                        best_move_potential = move_potential
            accepted_potential = best_move_potential
        if accepted is None:
            raise AggregationError(
                f"Make-MR-Fair cannot make further progress (remaining "
                f"violations: {violating}); the requested threshold appears "
                "infeasible for this group structure"
            )

        if accepted_potential < best_potential_seen - _PROGRESS_TOLERANCE:
            best_potential_seen = accepted_potential
            stalled_iterations = 0
        else:
            stalled_iterations += 1
            if stalled_iterations > stall_limit:
                raise AggregationError(
                    f"Make-MR-Fair made no progress for {stall_limit} "
                    f"consecutive swaps (remaining violations: {violating}); "
                    "the requested threshold appears infeasible for this "
                    "group structure"
                )

        entity, current = accepted
        corrected_entities.append(entity)
        n_swaps += 1
