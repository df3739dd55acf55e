"""Spearman-footrule-optimal rank aggregation (Dwork et al., 2001).

The footrule-optimal consensus minimises the summed Spearman footrule
distance to the base rankings and is a well-known 2-approximation of the
Kemeny optimum.  It reduces to a minimum-cost bipartite assignment between
candidates and positions (cost of placing candidate ``c`` at position ``p`` is
the summed ``|p - position_i(c)|`` over base rankings), solved here with
``scipy.optimize.linear_sum_assignment``.  scipy is imported on the first
footrule aggregation, so importing the package does not load it.

The paper does not evaluate footrule aggregation directly, but it is part of
the rank-aggregation literature the paper builds on [29]; it is included both
as an extra fairness-unaware baseline and as an alternative seed method for
Make-MR-Fair in the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import AggregationResult, RankAggregator
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet

__all__ = ["FootruleAggregator", "footrule_cost_matrix"]


def footrule_cost_matrix(rankings: RankingSet, weighted: bool = False) -> np.ndarray:
    """Cost matrix ``C[c, p]``: summed footrule cost of placing candidate c at position p."""
    positions = rankings.position_matrix()  # shape (m, n)
    n = rankings.n_candidates
    targets = np.arange(n)
    weights = rankings.weights if weighted else np.ones(rankings.n_rankings)
    # |p - position_i(c)| summed over rankings i, for every candidate c and slot p.
    cost = np.zeros((n, n), dtype=float)
    for ranking_positions, weight in zip(positions, weights):
        cost += weight * np.abs(ranking_positions[:, np.newaxis] - targets[np.newaxis, :])
    return cost


class FootruleAggregator(RankAggregator):
    """Footrule-optimal consensus via minimum-cost assignment."""

    name = "Footrule"

    def __init__(self, weighted: bool = False) -> None:
        self._weighted = weighted

    def _aggregate(self, rankings: RankingSet) -> AggregationResult:
        from scipy.optimize import linear_sum_assignment

        cost = footrule_cost_matrix(rankings, weighted=self._weighted)
        candidate_ids, assigned_positions = linear_sum_assignment(cost)
        order = np.empty(rankings.n_candidates, dtype=np.int64)
        order[assigned_positions] = candidate_ids
        ranking = Ranking(order, validate=False)
        return AggregationResult(
            ranking=ranking,
            method=self.name,
            diagnostics={"assignment_cost": float(cost[candidate_ids, assigned_positions].sum())},
        )
