"""Pure-Python branch-and-bound solver for the (small) Kemeny problem.

This is an independent exact solver the test suite uses to cross-check the
MILP backend.  It explores permutations by appending one candidate at a time
to a growing prefix (best position first) and prunes with the classic
pairwise lower bound::

    bound(prefix) = cost(prefix)                      # disagreements already fixed
                  + sum over unordered pairs {a, b}   # both still unplaced
                        min(W[a, b], W[b, a])

The solver is exponential in the number of candidates and intended for
``n <= ~15``; callers wanting larger instances should use the MILP backend.
"""

from __future__ import annotations

import numpy as np

from repro.core.ranking import Ranking
from repro.exceptions import ValidationError

__all__ = ["branch_and_bound_kemeny"]

#: Practical ceiling above which branch-and-bound is refused outright.
MAX_CANDIDATES = 18


def _pairwise_min_bound(precedence: np.ndarray, remaining: list[int]) -> float:
    """Lower bound contributed by pairs of still-unplaced candidates."""
    bound = 0.0
    for i, a in enumerate(remaining):
        for b in remaining[i + 1 :]:
            bound += min(precedence[a, b], precedence[b, a])
    return bound


def branch_and_bound_kemeny(
    precedence: np.ndarray,
    initial_upper_bound: float | None = None,
    initial_ranking: Ranking | None = None,
) -> tuple[Ranking, float]:
    """Solve the Kemeny problem exactly by branch and bound.

    Parameters
    ----------
    precedence:
        Precedence matrix ``W`` (Definition 11): ``W[a, b]`` is the number of
        base rankings placing ``b`` above ``a``, i.e. the cost of putting
        ``a`` above ``b`` in the consensus.
    initial_upper_bound:
        Optional known objective value used to prune from the start (e.g. the
        Borda consensus objective).
    initial_ranking:
        Optional ranking matching ``initial_upper_bound``; returned if no
        better permutation exists.

    Returns
    -------
    (Ranking, float)
        The optimal consensus ranking and its Kemeny objective value.
    """
    precedence = np.asarray(precedence, dtype=float)
    if precedence.ndim != 2 or precedence.shape[0] != precedence.shape[1]:
        raise ValidationError(
            f"precedence matrix must be square, got shape {precedence.shape}"
        )
    n = precedence.shape[0]
    if n > MAX_CANDIDATES:
        raise ValidationError(
            f"branch-and-bound Kemeny supports at most {MAX_CANDIDATES} candidates "
            f"(got {n}); use the MILP backend for larger instances"
        )
    if n == 1:
        return Ranking([0]), 0.0

    best_cost = float("inf") if initial_upper_bound is None else float(initial_upper_bound)
    best_order: list[int] | None = (
        initial_ranking.to_list() if initial_ranking is not None else None
    )

    # Order candidates by Borda-like score so promising branches come first.
    attractiveness = precedence.sum(axis=0) - precedence.sum(axis=1)
    candidate_order = np.argsort(-attractiveness, kind="stable").tolist()

    def recurse(prefix: list[int], remaining: list[int], prefix_cost: float) -> None:
        nonlocal best_cost, best_order
        if not remaining:
            if prefix_cost < best_cost:
                best_cost = prefix_cost
                best_order = list(prefix)
            return
        lower_bound = prefix_cost + _pairwise_min_bound(precedence, remaining)
        if lower_bound >= best_cost:
            return
        # Try each remaining candidate as the next (best) position, most
        # attractive first so good incumbents are found early.
        for candidate in remaining:
            added_cost = sum(precedence[candidate, other] for other in remaining if other != candidate)
            recurse(
                prefix + [candidate],
                [other for other in remaining if other != candidate],
                prefix_cost + added_cost,
            )

    recurse([], candidate_order, 0.0)
    if best_order is None:  # pragma: no cover - defensive; cannot happen for n >= 1
        raise ValidationError("branch and bound failed to produce a ranking")
    return Ranking(np.asarray(best_order, dtype=np.int64)), float(best_cost)
