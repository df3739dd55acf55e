"""Exact Kemeny rank aggregation (Kemeny, 1959).

The Kemeny consensus minimises the summed Kendall tau distance to the base
rankings (Definition 4 / Equation 7 of the paper).  Finding it is NP-hard in
general; this module provides the exact integer-programming formulation solved
with HiGHS (the CPLEX substitute, see :mod:`repro.optimize.milp_backend`)
and a branch-and-bound
fallback for small instances, both warm-started pruning-wise by the Borda
consensus.
"""

from __future__ import annotations

from repro.aggregation.base import AggregationResult, RankAggregator
from repro.aggregation.borda import BordaAggregator
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.optimize.branch_and_bound import MAX_CANDIDATES, branch_and_bound_kemeny
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
    backend:
        ``"milp"`` (default) solves the linear ordering ILP with HiGHS;
        ``"branch-and-bound"`` uses the pure-Python exact solver (small n
        only); ``"auto"`` picks branch and bound for tiny instances where it
        is faster than setting up the ILP.
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
        backend: str = "milp",
        lazy_triangles: bool | None = None,
        time_limit: float | None = None,
        mip_rel_gap: float | None = None,
    ) -> None:
        if backend not in {"milp", "branch-and-bound", "auto"}:
            raise AggregationError(
                f"unknown Kemeny backend {backend!r}; "
                "expected 'milp', 'branch-and-bound', or 'auto'"
            )
        self._weighted = weighted
        self._backend = backend
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
        n = rankings.n_candidates
        if n == 1:
            return AggregationResult(Ranking([0]), self.name)

        backend = self._backend
        if backend == "auto":
            backend = "branch-and-bound" if n <= 12 else "milp"

        if backend == "branch-and-bound":
            if n > MAX_CANDIDATES:
                raise AggregationError(
                    f"branch-and-bound Kemeny supports at most {MAX_CANDIDATES} "
                    f"candidates, got {n}; use backend='milp'"
                )
            precedence = rankings.precedence_matrix(weighted=self._weighted)
            warm_start = BordaAggregator(weighted=self._weighted).aggregate(rankings)
            warm_cost = float(
                sum(
                    precedence[a, b]
                    for a in range(n)
                    for b in range(n)
                    if a != b and warm_start.prefers(a, b)
                )
            )
            ranking, objective = branch_and_bound_kemeny(
                precedence, initial_upper_bound=warm_cost, initial_ranking=warm_start
            )
            return AggregationResult(
                ranking=ranking,
                method=self.name,
                diagnostics={"objective": objective, "backend": "branch-and-bound"},
            )

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

