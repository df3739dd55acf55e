"""Table I — Mallows dataset fairness profiles (Low / Medium / High-Fair).

The paper's Table I describes the three synthetic datasets used by Figures
3–5: ``|R| = 150`` base rankings over 90 candidates (15 intersectional groups
of 6, ``dom(Race) = 5``, ``dom(Gender) = 3``) whose modal rankings have the
fairness profiles::

    Low-Fair     ARP_Gender = 0.70   ARP_Race = 0.70   IRP = 1.00
    Medium-Fair  ARP_Gender = 0.50   ARP_Race = 0.50   IRP = 0.75
    High-Fair    ARP_Gender = 0.30   ARP_Race = 0.30   IRP = 0.54

This experiment regenerates the three modal rankings and reports the paper's
target values next to the achieved values of the synthetic generator.
"""

from __future__ import annotations

from repro.core.candidates import CandidateTable
from repro.datagen.attributes import paper_mallows_table
from repro.datagen.fair_modal import FAIRNESS_PROFILES, generate_mallows_dataset
from repro.experiments.harness import require_scale
from repro.experiments.reporting import ExperimentResult

__all__ = ["run"]

#: Paper values of Table I, keyed by profile name.
PAPER_TARGETS = {
    "low": {"ARP Gender": 0.70, "ARP Race": 0.70, "IRP": 1.00},
    "medium": {"ARP Gender": 0.50, "ARP Race": 0.50, "IRP": 0.75},
    "high": {"ARP Gender": 0.30, "ARP Race": 0.30, "IRP": 0.54},
}

_SCALE_PARAMETERS = {
    # group_size 6 -> 90 candidates as in the paper; 150 rankings.
    "paper": {"group_size": 6, "n_rankings": 150},
    # group_size 2 -> 30 candidates; enough to exercise every code path fast.
    "ci": {"group_size": 2, "n_rankings": 30},
}


def run(scale: str = "ci", theta: float = 0.6, seed: int = 2022) -> ExperimentResult:
    """Regenerate the Table I datasets and report target vs achieved fairness."""
    scale = require_scale(scale)
    parameters = _SCALE_PARAMETERS[scale]
    table = paper_mallows_table(group_size=parameters["group_size"])
    result = ExperimentResult(
        experiment="table1",
        title="Table I: Mallows dataset fairness profiles (modal ranking ARP/IRP)",
        parameters={
            "scale": scale,
            "n_candidates": table.n_candidates,
            "n_rankings": parameters["n_rankings"],
            "theta": theta,
            "seed": seed,
        },
    )
    for profile in FAIRNESS_PROFILES:
        dataset = generate_mallows_dataset(
            table,
            profile,
            theta=theta,
            n_rankings=parameters["n_rankings"],
            rng=seed,
        )
        achieved = dataset.modal_parity
        targets = PAPER_TARGETS[profile]
        result.add(
            dataset=f"{profile.capitalize()}-Fair",
            **{
                "ARP Gender (paper)": targets["ARP Gender"],
                "ARP Gender": achieved["Gender"],
                "ARP Race (paper)": targets["ARP Race"],
                "ARP Race": achieved["Race"],
                "IRP (paper)": targets["IRP"],
                "IRP": achieved[CandidateTable.INTERSECTION],
            },
        )
    result.notes.append(
        "Achieved values come from the synthetic calibrated modal-ranking "
        "generator; the IRP is not directly controllable and emerges from the "
        "per-attribute biases (see repro.datagen.fair_modal)."
    )
    return result
