"""MILP backend for the linear-ordering model using scipy's HiGHS solver.

The paper solves the (Fair-)Kemeny integer program with IBM CPLEX.  CPLEX is
proprietary, so this reproduction solves the *same formulation* with the HiGHS
solver shipped inside :func:`scipy.optimize.milp`.  Two solve strategies are
provided:

* **eager** — generate all ``2 * C(n, 3)`` transitivity constraints up front.
  Simple and robust, fine for a few dozen candidates.
* **lazy** (cutting-plane) — start with no transitivity constraints, solve,
  find violated triples in the integer solution, add only those, and repeat.
  Kemeny objectives are usually "almost transitive" because the precedence
  matrix already encodes a near-order, so only a tiny fraction of triangle
  constraints is ever needed.  This is how the reproduction scales without
  CPLEX.

The model may contain auxiliary *continuous* variables (used by the compact
min/max formulation of the MANI-Rank constraints); they are appended after the
binary pair variables.

A per-solve ``time_limit`` can be set.  When HiGHS hits the limit but has an
integer-feasible incumbent, that incumbent is returned and the solution is
marked non-optimal; fairness constraints still hold for it (it is feasible),
only PD-loss optimality is lost.  This mirrors how a practitioner would run
the exact method on large instances without a commercial solver.

scipy is imported inside the two functions that call it, so importing the
package (and serving the methods that never solve a MILP) does not load it;
the first exact solve of a process pays the import once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import InfeasibleProblemError, SolverError
from repro.optimize.model import LinearOrderingModel

if TYPE_CHECKING:
    from scipy.optimize import LinearConstraint

__all__ = ["MilpSolution", "solve_linear_ordering"]

#: Default maximum number of cutting-plane rounds before giving up.
DEFAULT_MAX_ROUNDS = 60

#: HiGHS status codes returned by scipy.optimize.milp.
_STATUS_OPTIMAL = 0
_STATUS_LIMIT = 1
_STATUS_INFEASIBLE = 2


@dataclass(frozen=True)
class MilpSolution:
    """Result of a linear-ordering MILP solve."""

    assignment: np.ndarray
    objective: float
    rounds: int
    n_lazy_constraints: int
    optimal: bool = True


def _build_constraints(
    model: LinearOrderingModel,
    triples: list[tuple[int, int, int]],
) -> list[LinearConstraint]:
    """Assemble scipy ``LinearConstraint`` objects for triangles + extra constraints."""
    from scipy import sparse
    from scipy.optimize import LinearConstraint

    constraints: list[LinearConstraint] = []
    n_variables = model.n_total_variables
    if triples:
        rows, cols, values, upper = model.triangle_constraint_rows(triples)
        matrix = sparse.coo_matrix(
            (values, (rows, cols)), shape=(len(upper), n_variables)
        ).tocsr()
        lower = np.full(len(upper), -np.inf)
        constraints.append(LinearConstraint(matrix, lower, upper))
    if model.extra_constraints:
        rows_list: list[int] = []
        cols_list: list[int] = []
        values_list: list[float] = []
        lowers: list[float] = []
        uppers: list[float] = []
        for row_id, spec in enumerate(model.extra_constraints):
            for variable_id, coefficient in spec.coefficients.items():
                rows_list.append(row_id)
                cols_list.append(variable_id)
                values_list.append(coefficient)
            lowers.append(spec.lower)
            uppers.append(spec.upper)
        matrix = sparse.coo_matrix(
            (values_list, (rows_list, cols_list)),
            shape=(len(model.extra_constraints), n_variables),
        ).tocsr()
        constraints.append(LinearConstraint(matrix, np.asarray(lowers), np.asarray(uppers)))
    return constraints


def _run_milp(
    model: LinearOrderingModel,
    triples: list[tuple[int, int, int]],
    time_limit: float | None,
    mip_rel_gap: float | None,
) -> tuple[np.ndarray, bool]:
    """Run one MILP solve; return the assignment and whether it is proven optimal."""
    from scipy.optimize import Bounds, milp

    n_pairs = model.index.n_variables
    n_variables = model.n_total_variables
    constraints = _build_constraints(model, triples)
    options: dict[str, float | bool] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)

    objective = np.concatenate([model.objective, np.zeros(model.n_auxiliary)])
    integrality = np.concatenate(
        [np.ones(n_pairs), np.zeros(model.n_auxiliary)]
    )
    lower_bounds = np.zeros(n_variables)
    upper_bounds = np.ones(n_variables)
    for offset, (lower, upper) in enumerate(model.auxiliary_bounds):
        lower_bounds[n_pairs + offset] = lower
        upper_bounds[n_pairs + offset] = upper

    result = milp(
        c=objective,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb=lower_bounds, ub=upper_bounds),
        options=options or None,
    )
    if result.status == _STATUS_INFEASIBLE:
        raise InfeasibleProblemError(
            "the (fair) Kemeny integer program is infeasible for the given "
            "constraints; consider relaxing the fairness threshold delta"
        )
    if result.status == _STATUS_LIMIT and result.x is not None:
        # Time/iteration limit with an integer-feasible incumbent: usable,
        # just not proven optimal.
        return np.asarray(result.x, dtype=float), False
    if not result.success or result.x is None:
        raise SolverError(
            f"MILP solver failed (status={result.status}): {result.message}"
        )
    return np.asarray(result.x, dtype=float), True


def solve_linear_ordering(
    model: LinearOrderingModel,
    lazy: bool | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
) -> MilpSolution:
    """Solve the linear-ordering model (to optimality when no limit is hit).

    Parameters
    ----------
    model:
        The objective + extra (fairness) constraints.
    lazy:
        ``True`` to use cutting-plane triangle generation, ``False`` to add
        all triangle constraints eagerly.  ``None`` (default) picks lazy for
        more than 30 candidates when the model has no extra constraints;
        models carrying fairness constraints default to eager, because their
        unconstrained-round incumbents are far from transitive and the
        cutting-plane loop converges slowly.
    max_rounds:
        Safety cap on cutting-plane iterations.
    time_limit:
        Optional per-solve time limit in seconds passed to HiGHS.  When the
        limit is reached with an integer-feasible incumbent, the incumbent is
        returned and the solution is flagged ``optimal=False``.
    mip_rel_gap:
        Optional relative MIP gap passed to HiGHS (e.g. ``1e-3`` trades a
        provably tiny amount of PD loss for a large speedup on hard
        fairness-constrained instances).

    Returns
    -------
    MilpSolution
        The assignment, its objective value, solve statistics, and whether the
        solution is proven optimal.
    """
    n = model.index.n_candidates
    if lazy is None:
        lazy = n > 30 and not model.extra_constraints

    if not lazy:
        assignment, optimal = _run_milp(model, model.all_triples(), time_limit, mip_rel_gap)
        if model.violated_triples(assignment):
            raise SolverError(
                "eager MILP returned a non-transitive assignment; this should "
                "not happen with all triangle constraints present"
            )
        return MilpSolution(
            assignment=assignment,
            objective=model.objective_value(assignment),
            rounds=1,
            n_lazy_constraints=2 * len(model.all_triples()),
            optimal=optimal,
        )

    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    optimal = True
    for round_number in range(1, max_rounds + 1):
        assignment, round_optimal = _run_milp(model, triples, time_limit, mip_rel_gap)
        optimal = optimal and round_optimal
        violated = model.violated_triples(assignment)
        if not violated:
            return MilpSolution(
                assignment=assignment,
                objective=model.objective_value(assignment),
                rounds=round_number,
                n_lazy_constraints=2 * len(triples),
                optimal=optimal,
            )
        added = 0
        for triple in violated:
            if triple not in seen:
                seen.add(triple)
                triples.append(triple)
                added += 1
        if added == 0:
            raise SolverError(
                "cutting-plane loop stalled: violated triangles were already "
                "present in the model"
            )
    raise SolverError(
        f"cutting-plane loop did not converge within {max_rounds} rounds; "
        "re-run with lazy=False or a larger max_rounds"
    )
