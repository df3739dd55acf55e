"""Figure 6 — scalability in the number of base rankings.

Section IV-D measures the runtime of every method as the number of base
rankings ``|R|`` grows, on a Mallows dataset with a binary Race / binary
Gender modal ranking (ARP Race = 0.15, ARP Gender = 0.7, IRP = 0.55),
``n = 100`` candidates, θ = 0.6, and Δ = 0.1.

Expected shape: three runtime tiers — (fastest) Fair-Borda, Pick-Fairest-Perm
and Correct-Fairest-Perm; (middle) Fair-Schulze, Fair-Copeland, Fair-Kemeny
and Kemeny; (slowest) Kemeny-Weighted.  The proposed methods are no slower
than plain Kemeny.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.harness import (
    ScenarioGrid,
    evaluate_labelled_cell,
    require_scale,
)
from repro.experiments.reporting import ExperimentResult
from repro.fairness.parity import parity_scores

__all__ = ["run", "SCALABILITY_MODAL_TARGETS"]

#: Modal-ranking fairness targets of the Figure 6 dataset.
SCALABILITY_MODAL_TARGETS = {"Race": 0.15, "Gender": 0.70}

_SCALE_PARAMETERS = {
    "paper": {
        "n_candidates": 100,
        "ranking_counts": (1_000, 5_000, 10_000, 20_000),
        "labels": ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"),
    },
    "ci": {
        "n_candidates": 40,
        "ranking_counts": (50, 150, 400),
        "labels": ("A2", "A3", "A4", "B3", "B4"),
    },
}


def run(
    scale: str = "ci",
    delta: float = 0.1,
    theta: float = 0.6,
    seed: int = 2022,
    ranking_counts: Sequence[int] | None = None,
    method_labels: Sequence[str] | None = None,
) -> ExperimentResult:
    """Reproduce Figure 6: runtime of every method vs the number of base rankings."""
    scale = require_scale(scale)
    parameters = _SCALE_PARAMETERS[scale]
    counts = tuple(ranking_counts) if ranking_counts is not None else parameters["ranking_counts"]
    labels = tuple(method_labels) if method_labels is not None else parameters["labels"]
    grid = ScenarioGrid.product(
        candidate_counts=(parameters["n_candidates"],),
        ranking_counts=counts,
        thetas=(theta,),
        modal_targets=SCALABILITY_MODAL_TARGETS,
        param_grid={"label": labels, "delta": (delta,)},
        seed=seed,
    )
    table = grid.table_for(parameters["n_candidates"])
    modal = grid.modal_for(parameters["n_candidates"], SCALABILITY_MODAL_TARGETS)
    result = ExperimentResult(
        experiment="figure6",
        title="Figure 6: scalability with an increasing number of base rankings",
        parameters={
            "scale": scale,
            "n_candidates": table.n_candidates,
            "ranking_counts": list(counts),
            "theta": theta,
            "delta": delta,
            "seed": seed,
            "modal_parity": {
                key: round(value, 3) for key, value in parity_scores(modal, table).items()
            },
            "methods": list(labels),
        },
    )

    result.extend(grid.run(evaluate_labelled_cell))
    if scale == "ci":
        result.notes.append(
            "ci scale shrinks both the candidate count and the ranking counts "
            "and skips the ILP-based methods so the sweep completes quickly; "
            "the method tiers are still visible.  Use scale='paper' for the "
            "full configuration."
        )
    return result
