"""Pairwise Disagreement loss (Definition 9) and Price of Fairness (Equation 13).

PD loss measures how many ranker preferences are *not* represented in a
consensus ranking::

    PD_loss(R, πC) = sum_i  KT(πC, r_i)  /  (ω(X) * |R|)

It is 0 when every base ranking equals the consensus and 1 when every pairwise
preference of every base ranking is inverted in the consensus.

The Price of Fairness (PoF) is the PD-loss increase caused by making the
consensus fair::

    PoF = PD_loss(R, πC*) - PD_loss(R, πC)

where ``πC*`` is the fair consensus and ``πC`` the fairness-unaware one
produced by the same underlying aggregation method.
"""

from __future__ import annotations

from repro.core.distances import kemeny_objective
from repro.core.pairwise import total_pairs
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import RankingError

__all__ = ["pd_loss", "price_of_fairness"]


def pd_loss(rankings: RankingSet, consensus: Ranking) -> float:
    """Pairwise Disagreement loss of ``consensus`` against the base rankings.

    Returns a value in [0, 1]; see the module docstring for the formula.
    The summed Kendall tau distances equal the unweighted Kemeny objective,
    which is read from the set's cached precedence matrix: O(n^2) when an
    aggregator or search has already built the matrix, and one O(m n^2)
    build (cached for later calls) otherwise.
    """
    if consensus.n_candidates != rankings.n_candidates:
        raise RankingError(
            "consensus ranking and base rankings cover different universes: "
            f"{consensus.n_candidates} vs {rankings.n_candidates} candidates"
        )
    pairs = total_pairs(consensus.n_candidates)
    if pairs == 0:
        return 0.0
    # The matrix holds exact integer counts and the objective is below 2**53,
    # so the float sum is the exact disagreement count.
    disagreements = int(kemeny_objective(consensus, rankings))
    return disagreements / (pairs * rankings.n_rankings)


def price_of_fairness(
    rankings: RankingSet,
    fair_consensus: Ranking,
    unaware_consensus: Ranking,
) -> float:
    """Price of Fairness (Equation 13): PD-loss gap between fair and unaware consensus.

    The value is >= 0 whenever the fairness-unaware consensus is at least as
    representative as the fair one (always true when both come from the same
    method, since the fair variant only adds constraints / corrections).
    Small negative values can appear for heuristic methods whose unaware
    consensus is itself suboptimal; they are reported as-is rather than
    clamped so experiments surface them.
    """
    return pd_loss(rankings, fair_consensus) - pd_loss(rankings, unaware_consensus)
