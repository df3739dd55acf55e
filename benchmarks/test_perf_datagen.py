"""Performance benchmark of the batched Mallows data-generation engine.

Times the vectorised RIM sampler (:func:`repro.datagen.mallows.sample_mallows`)
against the retained scalar reference
(:func:`repro.datagen.mallows.sample_mallows_ranking_reference`) across the
synthetic-experiment regimes, plus the :meth:`RankingSet.from_position_matrix`
bulk constructor against the per-ranking list path.  Both comparisons time
their sides back to back in rounds (:func:`perf_timing.paired_median`).

Results are written as ``perf_datagen.{json,txt}`` to the run's results
directory (see ``conftest.py``); the committed full-scale baseline in
``benchmarks/results/`` is the data-generation perf trajectory alongside the
hot-path baseline.  Set ``MANI_RANK_PERF_SCALE=smoke`` for the reduced
configuration used by the CI perf smoke job.

Two hard assertions guard the tentpole:

* the batched sampler draws *bit-identical* samples to the scalar reference
  for a shared seed (they consume the same generator stream);
* at the acceptance configuration (n = 200 candidates, m = 500 rankings at
  full scale) the batched sampler is >= 10x faster (>= 4x at smoke scale,
  where fixed per-call overheads weigh more).
"""

from __future__ import annotations

import json
import os

import numpy as np
from perf_timing import machine_stamp, paired_median

from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.datagen.mallows import (
    sample_mallows,
    sample_mallows_position_matrix,
    sample_mallows_ranking_reference,
)
from repro.experiments.reporting import render_table

_SCALE_PARAMETERS = {
    "full": {
        "sampler_configurations": ((100, 200), (200, 500)),
        "theta": 0.6,
        "construction_n": 200,
        "construction_m": 500,
        "min_speedup": 10.0,
    },
    "smoke": {
        "sampler_configurations": ((40, 60), (60, 100)),
        "theta": 0.6,
        "construction_n": 60,
        "construction_m": 100,
        "min_speedup": 4.0,
    },
}

#: Back-to-back rounds behind every timing (the reference sampler dominates).
_ROUNDS = 3


def _reference_sample(modal: Ranking, theta: float, m: int, seed: int) -> list[Ranking]:
    rng = np.random.default_rng(seed)
    return [sample_mallows_ranking_reference(modal, theta, rng) for _ in range(m)]


def test_perf_datagen(results_directory):
    scale = os.environ.get("MANI_RANK_PERF_SCALE", "full")
    parameters = _SCALE_PARAMETERS[scale]
    theta = parameters["theta"]

    # ------------------------------------------------------------------
    # batched vs scalar-reference Mallows sampling
    # ------------------------------------------------------------------
    sampler_rows = []
    for n_candidates, n_rankings in parameters["sampler_configurations"]:
        modal = Ranking(np.random.default_rng(n_candidates).permutation(n_candidates))

        # Tentpole guarantee: a shared seed yields bit-identical samples.
        batched = sample_mallows(modal, theta, n_rankings, rng=23)
        reference = _reference_sample(modal, theta, n_rankings, seed=23)
        assert batched.to_order_lists() == [ranking.to_list() for ranking in reference]

        (reference_s, batched_s), (speedup,) = paired_median(
            (
                lambda: _reference_sample(modal, theta, n_rankings, seed=23),
                lambda: sample_mallows(modal, theta, n_rankings, rng=23),
            ),
            _ROUNDS,
        )
        sampler_rows.append(
            {
                "n_candidates": n_candidates,
                "n_rankings": n_rankings,
                "theta": theta,
                "batched_s": batched_s,
                "reference_s": reference_s,
                "speedup": speedup,
            }
        )

    # The speedup gate applies at the acceptance configuration: the largest
    # (n_candidates * n_rankings) workload timed, regardless of listing order.
    # MANI_RANK_PERF_MIN_SPEEDUP loosens the gate where timings are noisy but
    # the run should still regenerate results (the nightly shared runners).
    min_speedup = float(
        os.environ.get("MANI_RANK_PERF_MIN_SPEEDUP", parameters["min_speedup"])
    )
    acceptance = max(
        sampler_rows, key=lambda row: row["n_candidates"] * row["n_rankings"]
    )
    assert acceptance["speedup"] >= min_speedup, (
        f"batched Mallows sampler only {acceptance['speedup']:.1f}x faster than "
        f"the scalar reference at n={acceptance['n_candidates']}, "
        f"m={acceptance['n_rankings']} (required {min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # RankingSet bulk construction from a position matrix
    # ------------------------------------------------------------------
    n = parameters["construction_n"]
    m = parameters["construction_m"]
    modal = Ranking(np.random.default_rng(n).permutation(n))
    positions = sample_mallows_position_matrix(
        modal, theta, m, np.random.default_rng(31)
    )
    orders = [
        Ranking.from_positions(positions[row]).to_list() for row in range(m)
    ]
    assert (
        RankingSet.from_position_matrix(positions).to_order_lists()
        == RankingSet.from_orders(orders).to_order_lists()
    )
    (from_orders_s, from_matrix_s), _ = paired_median(
        (
            lambda: RankingSet.from_orders(orders),
            lambda: RankingSet.from_position_matrix(positions),
        ),
        _ROUNDS,
    )
    construction_rows = [
        {
            "constructor": "from_position_matrix",
            "configuration": f"m={m}, n={n}",
            "seconds": from_matrix_s,
        },
        {
            "constructor": "from_orders (validating)",
            "configuration": f"m={m}, n={n}",
            "seconds": from_orders_s,
        },
    ]

    # ------------------------------------------------------------------
    # persist the run (see results_directory in conftest.py)
    # ------------------------------------------------------------------
    payload = {
        "benchmark": "perf_datagen",
        "scale": scale,
        "machine": machine_stamp(),
        "parameters": {
            **{key: value for key, value in parameters.items() if key != "min_speedup"},
            "rounds": _ROUNDS,
        },
        "sampler": sampler_rows,
        "construction": construction_rows,
    }
    (results_directory / "perf_datagen.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    text = "\n\n".join(
        [
            f"perf_datagen (scale={scale})",
            "Mallows sampling (batched vs scalar reference)\n"
            + render_table(sampler_rows, digits=4),
            "RankingSet construction\n" + render_table(construction_rows, digits=4),
        ]
    )
    (results_directory / "perf_datagen.txt").write_text(text + "\n")
