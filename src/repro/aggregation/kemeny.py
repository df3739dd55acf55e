"""Exact Kemeny rank aggregation (Kemeny, 1959).

The Kemeny consensus minimises the summed Kendall tau distance to the base
rankings (Definition 4 / Equation 7 of the paper).  Finding it is NP-hard in
general; this module solves the exact integer-programming formulation with
HiGHS (the CPLEX substitute, see :mod:`repro.optimize.milp_backend`).  The
pure-Python :func:`repro.optimize.branch_and_bound.branch_and_bound_kemeny`
is kept as the independent oracle the tests check this solver against.
"""

from __future__ import annotations

from repro.aggregation.base import AggregationResult, RankAggregator
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.optimize.milp_backend import solve_linear_ordering
from repro.optimize.model import LinearOrderingModel

__all__ = ["KemenyAggregator", "exact_kemeny"]


class KemenyAggregator(RankAggregator):
    """Exact Kemeny consensus via integer programming.

    Parameters
    ----------
    weighted:
        Use the ranking-set weights when building the precedence matrix
        (this is how the Kemeny-Weighted baseline of Section IV-B is built).
    lazy_triangles:
        Passed to the MILP backend; ``None`` lets it decide by instance size.
    time_limit:
        Optional HiGHS time limit (seconds) per solve.
    mip_rel_gap:
        Optional relative MIP gap passed to HiGHS.
    """

    name = "Kemeny"

    def __init__(
        self,
        weighted: bool = False,
        lazy_triangles: bool | None = None,
        time_limit: float | None = None,
        mip_rel_gap: float | None = None,
    ) -> None:
        self._weighted = weighted
        self._lazy_triangles = lazy_triangles
        self._time_limit = time_limit
        self._mip_rel_gap = mip_rel_gap
        if weighted:
            self.name = "Kemeny-Weighted"

    def build_model(self, rankings: RankingSet) -> LinearOrderingModel:
        """Build the (unconstrained) Kemeny linear-ordering model for ``rankings``."""
        precedence = rankings.precedence_matrix(weighted=self._weighted)
        return LinearOrderingModel.from_precedence(precedence)

    def _aggregate(self, rankings: RankingSet) -> AggregationResult:
        if rankings.n_candidates == 1:
            return AggregationResult(Ranking([0]), self.name)
        model = self.build_model(rankings)
        solution = solve_linear_ordering(
            model,
            lazy=self._lazy_triangles,
            time_limit=self._time_limit,
            mip_rel_gap=self._mip_rel_gap,
        )
        ranking = model.assignment_to_ranking(solution.assignment)
        return AggregationResult(
            ranking=ranking,
            method=self.name,
            diagnostics={
                "objective": solution.objective,
                "backend": "milp",
                "rounds": solution.rounds,
                "n_lazy_constraints": solution.n_lazy_constraints,
                "optimal": solution.optimal,
            },
        )


def exact_kemeny(rankings: RankingSet, **kwargs: object) -> Ranking:
    """Convenience wrapper returning the exact Kemeny consensus ranking."""
    return KemenyAggregator(**kwargs).aggregate(rankings)  # type: ignore[arg-type]

