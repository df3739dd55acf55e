"""Ablation benchmark: which seed method to hand to Make-MR-Fair.

The choice of the fairness-unaware seed (Borda, Copeland, Schulze, footrule,
or simply the fairest base ranking) is the main design lever of the
polynomial-time MFCR methods (see :mod:`repro.fair.seeded`).  This benchmark
corrects every seed on the same dataset and records (a) the runtime and (b)
the PD loss of the resulting fair consensus, reproducing the paper's
observation that Condorcet seeds (Copeland/Schulze) represent the base
rankings slightly better than Borda, while Correct-Fairest-Perm is clearly
worse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.attributes import small_mallows_table
from repro.datagen.fair_modal import generate_mallows_dataset
from repro.fair.registry import get_fair_method
from repro.fairness.parity import mani_rank_satisfied
from repro.fairness.pd_loss import pd_loss


@pytest.fixture(scope="module")
def dataset():
    return generate_mallows_dataset(
        small_mallows_table(group_size=3), "low", theta=0.6, n_rankings=40, rng=13
    )


SEED_METHODS = ["fair-borda", "fair-copeland", "fair-schulze", "fair-footrule", "correct-fairest-perm"]


@pytest.mark.parametrize("method_name", SEED_METHODS)
def test_ablation_seed_method(benchmark, dataset, method_name):
    method = get_fair_method(method_name)
    delta = 0.1
    consensus = benchmark.pedantic(
        method.aggregate, args=(dataset.rankings, dataset.table, delta), rounds=1, iterations=1
    )
    assert mani_rank_satisfied(consensus, dataset.table, delta)
    loss = pd_loss(dataset.rankings, consensus)
    assert 0.0 <= loss <= 1.0


#: Number of independent dataset draws averaged by the summary test.  The
#: Section IV-B claim is distributional: any single draw can land on the
#: wrong side (seed 13 famously does — the source of the former xfail).
N_ABLATION_SEEDS = 12


def test_seed_ablation_summary(save_result):
    """Multi-seed PD-loss comparison across Make-MR-Fair seed methods.

    The paper's Section IV-B observation — correcting a genuine consensus
    seed represents the base rankings at least as well as correcting the
    fairest base ranking (Correct-Fairest-Perm) — is a statement about the
    data-generating process, so it is tested as an average over
    ``N_ABLATION_SEEDS`` independently drawn Low-Fair Mallows datasets
    rather than a single draw (the former single-draw check at seed 13 was
    an xfail precisely because that draw lands on the wrong side).
    """
    from repro.experiments.reporting import ExperimentResult

    delta = 0.1
    table = small_mallows_table(group_size=3)
    result = ExperimentResult(
        experiment="ablation_seed",
        title=(
            "Ablation: Make-MR-Fair seed method vs PD loss "
            f"(Low-Fair, delta=0.1, mean over {N_ABLATION_SEEDS} seeds)"
        ),
        parameters={
            "delta": delta,
            "n_candidates": table.n_candidates,
            "n_rankings": 40,
            "theta": 0.6,
            "n_seeds": N_ABLATION_SEEDS,
            "base_seed": 13,
        },
    )
    losses: dict[str, list[float]] = {name: [] for name in SEED_METHODS}
    for child in np.random.SeedSequence(13).spawn(N_ABLATION_SEEDS):
        rng = np.random.default_rng(child)
        dataset = generate_mallows_dataset(
            table, "low", theta=0.6, n_rankings=40, rng=rng
        )
        for method_name in SEED_METHODS:
            consensus = get_fair_method(method_name).aggregate(
                dataset.rankings, dataset.table, delta
            )
            assert mani_rank_satisfied(consensus, dataset.table, delta)
            losses[method_name].append(pd_loss(dataset.rankings, consensus))
    means = {name: float(np.mean(values)) for name, values in losses.items()}
    for method_name in SEED_METHODS:
        result.add(
            method=method_name,
            pd_loss_mean=means[method_name],
            pd_loss_min=float(np.min(losses[method_name])),
            pd_loss_max=float(np.max(losses[method_name])),
        )
    save_result(result)
    # Correcting the fairest base ranking represents the base set no better
    # than correcting a genuine consensus seed (paper Section IV-B), on
    # average over the data distribution.
    best_seeded = min(means[name] for name in SEED_METHODS[:4])
    assert best_seeded <= means["correct-fairest-perm"] + 0.005
