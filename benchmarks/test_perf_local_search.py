"""Performance benchmark of the incremental Kemeny-delta local-search engine.

Times the engine-backed local Kemenization
(:func:`repro.aggregation.local_search.local_kemenization`, the hot path of
:class:`~repro.aggregation.local_search.LocalSearchKemenyAggregator`) against
the retained from-scratch pass
(:func:`repro.aggregation.local_search.local_kemenization_reference`), and the
fairness-preserving local repair
(:func:`repro.fair.local_repair.fair_local_kemenization`) against its
from-scratch reference, across the synthetic-experiment regimes.

Results are written as ``perf_local_search.{json,txt}`` to the run's
results directory (see ``conftest.py``); the committed full-scale baseline in
``benchmarks/results/`` is the local-search perf trajectory alongside the
hot-path and datagen baselines.  Set ``MANI_RANK_PERF_SCALE=smoke``
for the reduced configuration used by the CI perf smoke job.

Each configuration is timed from two seeds:

* the aggregator's own Borda seed (near locally optimal — measures the
  converged fast path, where the engine decides "nothing to do" with one
  vectorised gather);
* a *cold* seed (the reversed Borda consensus, i.e. post-processing an
  adversarially bad upstream ranking — measures the full bubble workload the
  carry-run sweep accelerates).

Hard assertions guarding the tentpole:

* the engine-backed search returns the **identical** ranking to the retained
  reference from both seeds, and ``LocalSearchKemenyAggregator`` equals the
  reference pipeline (Borda + reference local Kemenization) end to end;
* at the acceptance configuration (n = 200 candidates, m = 500 rankings at
  full scale) the cold-seed local search is >= 5x faster than the reference
  (>= 2x at smoke scale, where fixed per-call overheads weigh more);
* the fairness-preserving repair is >= 3x faster than its from-scratch
  reference at the acceptance configuration (>= 1.5x at smoke scale), with
  an identical swap sequence.
"""

from __future__ import annotations

import json
import os
import timeit

import numpy as np
from perf_timing import machine_stamp

from repro.aggregation.borda import BordaAggregator
from repro.aggregation.local_search import (
    LocalSearchKemenyAggregator,
    local_kemenization,
    local_kemenization_reference,
)
from repro.core.ranking import Ranking
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.experiments.reporting import render_table
from repro.fair.local_repair import (
    fair_local_kemenization,
    fair_local_kemenization_reference,
)
from repro.fair.make_mr_fair import make_mr_fair

_SCALE_PARAMETERS = {
    "full": {
        "configurations": ((100, 200), (200, 500)),
        "theta": 0.3,
        "min_speedup": 5.0,
        "repair_min_speedup": 3.0,
    },
    "smoke": {
        "configurations": ((40, 60), (60, 100)),
        "theta": 0.3,
        "min_speedup": 2.0,
        "repair_min_speedup": 1.5,
    },
}

#: Generous pass budget so both implementations always run to convergence.
_MAX_PASSES = 1000

#: Modal-ranking parity targets of the repair benchmark's dataset.
_REPAIR_TARGETS = {"Race": 0.3, "Gender": 0.5}
_REPAIR_DELTA = 0.05


def _best_of(function, repeat: int = 5) -> float:
    """Minimum wall-clock seconds over ``repeat`` single runs."""
    return min(timeit.repeat(function, number=1, repeat=repeat))


def test_perf_local_search(results_directory):
    scale = os.environ.get("MANI_RANK_PERF_SCALE", "full")
    parameters = _SCALE_PARAMETERS[scale]
    theta = parameters["theta"]

    # ------------------------------------------------------------------
    # local Kemenization: engine vs from-scratch reference, warm + cold seed
    # ------------------------------------------------------------------
    search_rows = []
    for n_candidates, n_rankings in parameters["configurations"]:
        modal = Ranking(
            np.random.default_rng(n_candidates).permutation(n_candidates)
        )
        rankings = sample_mallows(modal, theta, n_rankings, rng=17)
        rankings.precedence_matrix()  # warm the shared cached kernel
        borda = BordaAggregator().aggregate(rankings)
        cold = Ranking(borda.order[::-1].copy())

        # Tentpole guarantee: the engine path and the aggregator are exactly
        # equivalent to the retained reference pipeline.
        aggregated = LocalSearchKemenyAggregator(
            max_passes=_MAX_PASSES
        ).aggregate(rankings)
        assert aggregated == local_kemenization_reference(
            rankings, borda, max_passes=_MAX_PASSES
        )

        for seed_label, seed in (("borda", borda), ("cold", cold)):
            engine_ranking = local_kemenization(
                rankings, seed, max_passes=_MAX_PASSES
            )
            reference_ranking = local_kemenization_reference(
                rankings, seed, max_passes=_MAX_PASSES
            )
            assert engine_ranking == reference_ranking

            engine_s = _best_of(
                lambda: local_kemenization(rankings, seed, max_passes=_MAX_PASSES)
            )
            reference_s = _best_of(
                lambda: local_kemenization_reference(
                    rankings, seed, max_passes=_MAX_PASSES
                )
            )
            search_rows.append(
                {
                    "n_candidates": n_candidates,
                    "n_rankings": n_rankings,
                    "seed": seed_label,
                    "engine_s": engine_s,
                    "reference_s": reference_s,
                    "speedup": reference_s / engine_s,
                }
            )

    # The speedup gate applies at the acceptance configuration: the largest
    # (n_candidates * n_rankings) cold-seed workload timed, regardless of
    # listing order.  MANI_RANK_PERF_MIN_SPEEDUP loosens the gate where
    # timings are noisy but the run should still regenerate results (the
    # nightly shared runners).
    min_speedup = float(
        os.environ.get("MANI_RANK_PERF_MIN_SPEEDUP", parameters["min_speedup"])
    )
    acceptance = max(
        (row for row in search_rows if row["seed"] == "cold"),
        key=lambda row: row["n_candidates"] * row["n_rankings"],
    )
    assert acceptance["speedup"] >= min_speedup, (
        f"engine-backed local Kemenization only {acceptance['speedup']:.1f}x "
        f"faster than the from-scratch reference at "
        f"n={acceptance['n_candidates']}, m={acceptance['n_rankings']} "
        f"(required {min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # fairness-preserving local repair: both engines vs from-scratch
    # ------------------------------------------------------------------
    repair_rows = []
    for n_candidates, n_rankings in parameters["configurations"]:
        table = scalability_table(n_candidates, rng=7)
        modal = calibrated_modal_ranking(table, _REPAIR_TARGETS, rng=7)
        rankings = sample_mallows(modal, theta, n_rankings, rng=11)
        rankings.precedence_matrix()
        corrected = make_mr_fair(
            BordaAggregator().aggregate(rankings), table, _REPAIR_DELTA
        ).ranking

        engine_repair = fair_local_kemenization(
            rankings, corrected, table, _REPAIR_DELTA
        )
        reference_repair = fair_local_kemenization_reference(
            rankings, corrected, table, _REPAIR_DELTA
        )
        assert engine_repair.ranking == reference_repair.ranking
        assert engine_repair.n_swaps == reference_repair.n_swaps

        engine_s = _best_of(
            lambda: fair_local_kemenization(rankings, corrected, table, _REPAIR_DELTA)
        )
        reference_s = _best_of(
            lambda: fair_local_kemenization_reference(
                rankings, corrected, table, _REPAIR_DELTA
            )
        )
        repair_rows.append(
            {
                "n_candidates": n_candidates,
                "n_rankings": n_rankings,
                "n_swaps": engine_repair.n_swaps,
                "engine_s": engine_s,
                "reference_s": reference_s,
                "speedup": reference_s / engine_s,
            }
        )

    repair_min_speedup = float(
        os.environ.get(
            "MANI_RANK_PERF_MIN_SPEEDUP", parameters["repair_min_speedup"]
        )
    )
    repair_acceptance = max(
        repair_rows, key=lambda row: row["n_candidates"] * row["n_rankings"]
    )
    assert repair_acceptance["speedup"] >= repair_min_speedup, (
        f"fair local repair only {repair_acceptance['speedup']:.1f}x faster "
        f"than the from-scratch reference at "
        f"n={repair_acceptance['n_candidates']}, "
        f"m={repair_acceptance['n_rankings']} (required {repair_min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # persist the run (see results_directory in conftest.py)
    # ------------------------------------------------------------------
    payload = {
        "benchmark": "perf_local_search",
        "scale": scale,
        "machine": machine_stamp(),
        "parameters": {
            "configurations": [list(pair) for pair in parameters["configurations"]],
            "theta": theta,
            "max_passes": _MAX_PASSES,
            "repair_targets": _REPAIR_TARGETS,
            "repair_delta": _REPAIR_DELTA,
        },
        "local_kemenization": search_rows,
        "fair_local_repair": repair_rows,
    }
    (results_directory / "perf_local_search.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    text = "\n\n".join(
        [
            f"perf_local_search (scale={scale})",
            "Local Kemenization (delta engine vs from-scratch reference)\n"
            + render_table(search_rows, digits=4),
            "Fair local repair (incremental engines vs from-scratch)\n"
            + render_table(repair_rows, digits=4),
        ]
    )
    (results_directory / "perf_local_search.txt").write_text(text + "\n")
