"""Figure 7 — scalability in the number of candidates.

Section IV-D measures the runtime of every method as the candidate count
grows (100–500 in the paper) for two fairness thresholds: a tight Δ = 0.1 and
a looser Δ = 0.33, on a Mallows dataset with binary Race / binary Gender
(modal ranking ARP Race = 0.31, ARP Gender = 0.44, IRP = 0.45), |R| = 100,
θ = 0.6.

Expected shape: the ILP-based methods (Kemeny, Kemeny-Weighted, Fair-Kemeny)
are the slowest and bound the polynomial methods from above; Fair-Borda is the
fastest fair method; a looser Δ reduces every fair method's runtime because
Make-MR-Fair needs fewer swaps.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.harness import (
    ScenarioGrid,
    evaluate_labelled_cell,
    require_scale,
)
from repro.experiments.reporting import ExperimentResult

__all__ = ["run", "FIGURE7_MODAL_TARGETS"]

#: Modal-ranking fairness targets of the Figure 7 dataset.
FIGURE7_MODAL_TARGETS = {"Race": 0.31, "Gender": 0.44}

_SCALE_PARAMETERS = {
    "paper": {
        "candidate_counts": (100, 200, 300, 400, 500),
        "n_rankings": 100,
        "deltas": (0.1, 0.33),
        "labels": ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"),
    },
    "ci": {
        "candidate_counts": (30, 60, 100),
        "n_rankings": 30,
        "deltas": (0.1, 0.33),
        "labels": ("A2", "A3", "A4", "B3", "B4"),
    },
}


def run(
    scale: str = "ci",
    theta: float = 0.6,
    seed: int = 2022,
    candidate_counts: Sequence[int] | None = None,
    deltas: Sequence[float] | None = None,
    method_labels: Sequence[str] | None = None,
) -> ExperimentResult:
    """Reproduce Figure 7: runtime of every method vs candidate count, per Δ."""
    scale = require_scale(scale)
    parameters = _SCALE_PARAMETERS[scale]
    counts = (
        tuple(candidate_counts)
        if candidate_counts is not None
        else parameters["candidate_counts"]
    )
    deltas = tuple(deltas) if deltas is not None else parameters["deltas"]
    labels = tuple(method_labels) if method_labels is not None else parameters["labels"]
    result = ExperimentResult(
        experiment="figure7",
        title="Figure 7: scalability with an increasing number of candidates",
        parameters={
            "scale": scale,
            "candidate_counts": list(counts),
            "n_rankings": parameters["n_rankings"],
            "theta": theta,
            "deltas": list(deltas),
            "seed": seed,
            "methods": list(labels),
        },
    )
    grid = ScenarioGrid.product(
        candidate_counts=counts,
        ranking_counts=(parameters["n_rankings"],),
        thetas=(theta,),
        modal_targets=FIGURE7_MODAL_TARGETS,
        param_grid={"delta": deltas, "label": labels},
        seed=seed,
    )

    result.extend(grid.run(evaluate_labelled_cell))
    if scale == "ci":
        result.notes.append(
            "ci scale restricts the sweep to polynomial-time methods and "
            "smaller candidate counts; use scale='paper' to include the "
            "ILP-based methods."
        )
    return result
