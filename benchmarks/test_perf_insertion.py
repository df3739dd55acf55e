"""Performance benchmark of the insertion (block-move) local-search strategy.

Times the engine-backed insertion search
(:func:`repro.aggregation.search.local_search` with ``strategy="insertion"``,
i.e. :class:`~repro.aggregation.search.InsertionStrategy` on the
:class:`~repro.aggregation.incremental.KemenyDeltaEngine`) against the
retained from-scratch ground truth
(:func:`repro.aggregation.search.insertion_local_search_reference`), and the
fairness-constrained insertion repair
(:func:`repro.fair.local_repair.fair_insertion_kemenization`) against *its*
from-scratch reference, on the synthetic-experiment regimes.

Results are written as ``perf_insertion.{json,txt}`` to the run's results
directory (see ``conftest.py``); the committed full-scale baseline in
``benchmarks/results/`` extends the hot-path / datagen / local-search perf
trajectory.  Set ``MANI_RANK_PERF_SCALE=smoke`` for the reduced CI
configuration.

Each unconstrained configuration is timed from two seeds, as in
``test_perf_local_search``: the Borda consensus (near locally optimal) and
the *cold* reversed-Borda seed (an adversarially bad upstream ranking, the
acceptance workload).  Hard assertions guarding the tentpole:

* the engine-backed insertion search returns the **identical** ranking to
  the from-scratch reference from both seeds;
* its final objective is never worse than the adjacent-swap strategy's on
  the same seed (the dominance guarantee of the variable-neighbourhood
  schedule);
* at the acceptance configuration (n = 200 candidates, m = 500 rankings at
  full scale) the cold-seed insertion search is >= 5x faster than the
  reference (>= 2x at smoke scale, where fixed per-call overheads weigh
  more);
* the fairness-constrained insertion repair matches its reference's final
  ranking and move counts, and is >= 5x faster at its largest configuration
  with a reference (the reference rescoring is O(n^2) Kemeny evaluations per
  pass, so it is benchmarked on smaller grids);
* one more fair-repair row times the engine alone at the acceptance
  configuration, where the O(n^4) reference is out of reach, so it has no
  ratio; its result must stay MANI-Rank feasible.

Every ratio is the median of per-round ratios, each round timing the
reference and the engine back to back (:func:`perf_timing.paired_median`);
the persisted seconds are the medians of each side.
"""

from __future__ import annotations

import json
import os

import numpy as np
from perf_timing import machine_stamp, paired_median

from repro.aggregation.borda import BordaAggregator
from repro.aggregation.search import (
    insertion_local_search_reference,
    local_search,
)
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.experiments.reporting import render_table
from repro.fair.local_repair import (
    fair_insertion_kemenization,
    fair_insertion_kemenization_reference,
)
from repro.fair.make_mr_fair import make_mr_fair
from repro.fairness.parity import mani_rank_satisfied

_SCALE_PARAMETERS = {
    "full": {
        "configurations": ((100, 200), (200, 500)),
        "fair_configurations": ((30, 60), (50, 100)),
        "fair_engine_only_configuration": (200, 500),
        "theta": 0.3,
        "rounds": 5,
        "fair_rounds": 3,
        "min_speedup": 5.0,
        "fair_min_speedup": 5.0,
    },
    "smoke": {
        "configurations": ((40, 60), (60, 100)),
        "fair_configurations": ((15, 25), (20, 40)),
        "fair_engine_only_configuration": (60, 100),
        "theta": 0.3,
        "rounds": 5,
        "fair_rounds": 3,
        "min_speedup": 2.0,
        "fair_min_speedup": 2.0,
    },
}

#: Generous pass budget so both implementations always run to convergence.
_MAX_PASSES = 1000

#: Modal-ranking parity targets and threshold of the fair-repair benchmark.
_REPAIR_TARGETS = {"Race": 0.3, "Gender": 0.5}
_REPAIR_DELTA = 0.05


def test_perf_insertion(results_directory):
    scale = os.environ.get("MANI_RANK_PERF_SCALE", "full")
    parameters = _SCALE_PARAMETERS[scale]
    theta = parameters["theta"]

    # ------------------------------------------------------------------
    # insertion search: engine strategy vs from-scratch reference
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

        for seed_label, seed in (("borda", borda), ("cold", cold)):
            engine_ranking = local_search(
                rankings, seed, strategy="insertion", max_passes=_MAX_PASSES
            )
            reference_ranking = insertion_local_search_reference(
                rankings, seed, max_passes=_MAX_PASSES
            )
            assert engine_ranking == reference_ranking
            # Dominance: never worse than the adjacent-swap strategy.
            adjacent_ranking = local_search(
                rankings, seed, strategy="adjacent-swap", max_passes=_MAX_PASSES
            )
            assert kemeny_objective(engine_ranking, rankings) <= kemeny_objective(
                adjacent_ranking, rankings
            )

            (reference_s, engine_s), (speedup,) = paired_median(
                (
                    lambda: insertion_local_search_reference(
                        rankings, seed, max_passes=_MAX_PASSES
                    ),
                    lambda: local_search(
                        rankings, seed, strategy="insertion", max_passes=_MAX_PASSES
                    ),
                ),
                parameters["rounds"],
            )
            search_rows.append(
                {
                    "n_candidates": n_candidates,
                    "n_rankings": n_rankings,
                    "seed": seed_label,
                    "engine_s": engine_s,
                    "reference_s": reference_s,
                    "speedup": speedup,
                }
            )

    # The speedup gate applies at the acceptance configuration: the largest
    # cold-seed workload timed.  MANI_RANK_PERF_MIN_SPEEDUP loosens the gate
    # where timings are noisy but the run should still regenerate results.
    min_speedup = float(
        os.environ.get("MANI_RANK_PERF_MIN_SPEEDUP", parameters["min_speedup"])
    )
    acceptance = max(
        (row for row in search_rows if row["seed"] == "cold"),
        key=lambda row: row["n_candidates"] * row["n_rankings"],
    )
    assert acceptance["speedup"] >= min_speedup, (
        f"engine-backed insertion search only {acceptance['speedup']:.1f}x "
        f"faster than the from-scratch reference at "
        f"n={acceptance['n_candidates']}, m={acceptance['n_rankings']} "
        f"(required {min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # fairness-constrained insertion repair vs from-scratch reference
    # ------------------------------------------------------------------
    repair_rows = []
    fair_configurations = [
        *((size, True) for size in parameters["fair_configurations"]),
        (parameters["fair_engine_only_configuration"], False),
    ]
    for (n_candidates, n_rankings), with_reference in fair_configurations:
        table = scalability_table(n_candidates, rng=7)
        modal = calibrated_modal_ranking(table, _REPAIR_TARGETS, rng=7)
        rankings = sample_mallows(modal, theta, n_rankings, rng=11)
        rankings.precedence_matrix()
        corrected = make_mr_fair(
            BordaAggregator().aggregate(rankings), table, _REPAIR_DELTA
        ).ranking

        def run_engine():
            return fair_insertion_kemenization(
                rankings, corrected, table, _REPAIR_DELTA, max_passes=_MAX_PASSES
            )

        def run_reference():
            return fair_insertion_kemenization_reference(
                rankings, corrected, table, _REPAIR_DELTA, max_passes=_MAX_PASSES
            )

        engine_repair = run_engine()
        assert mani_rank_satisfied(engine_repair.ranking, table, _REPAIR_DELTA)
        row = {
            "n_candidates": n_candidates,
            "n_rankings": n_rankings,
            "n_swaps": engine_repair.n_swaps,
            "n_moves": engine_repair.n_moves,
        }
        if with_reference:
            reference_repair = run_reference()
            assert engine_repair.ranking == reference_repair.ranking
            assert engine_repair.n_swaps == reference_repair.n_swaps
            assert engine_repair.n_moves == reference_repair.n_moves
            (reference_s, engine_s), (speedup,) = paired_median(
                (run_reference, run_engine), parameters["fair_rounds"]
            )
        else:
            (engine_s,), _ = paired_median((run_engine,), parameters["rounds"])
            reference_s = speedup = None
        row.update(engine_s=engine_s, reference_s=reference_s, speedup=speedup)
        repair_rows.append(row)

    fair_min_speedup = float(
        os.environ.get(
            "MANI_RANK_PERF_MIN_SPEEDUP", parameters["fair_min_speedup"]
        )
    )
    fair_acceptance = max(
        (row for row in repair_rows if row["speedup"] is not None),
        key=lambda row: row["n_candidates"] * row["n_rankings"],
    )
    assert fair_acceptance["speedup"] >= fair_min_speedup, (
        f"fair insertion repair only {fair_acceptance['speedup']:.1f}x faster "
        f"than the from-scratch reference at "
        f"n={fair_acceptance['n_candidates']}, "
        f"m={fair_acceptance['n_rankings']} (required {fair_min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # persist the run (see results_directory in conftest.py)
    # ------------------------------------------------------------------
    payload = {
        "benchmark": "perf_insertion",
        "scale": scale,
        "machine": machine_stamp(),
        "parameters": {
            "configurations": [list(pair) for pair in parameters["configurations"]],
            "fair_configurations": [
                list(pair) for pair in parameters["fair_configurations"]
            ],
            "fair_engine_only_configuration": list(
                parameters["fair_engine_only_configuration"]
            ),
            "theta": theta,
            "rounds": parameters["rounds"],
            "fair_rounds": parameters["fair_rounds"],
            "max_passes": _MAX_PASSES,
            "repair_targets": _REPAIR_TARGETS,
            "repair_delta": _REPAIR_DELTA,
        },
        "insertion_search": search_rows,
        "fair_insertion_repair": repair_rows,
    }
    (results_directory / "perf_insertion.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    text = "\n\n".join(
        [
            f"perf_insertion (scale={scale})",
            "Insertion local search (delta engine vs from-scratch reference)\n"
            + render_table(search_rows, digits=4),
            "Fair insertion repair (incremental engines vs from-scratch)\n"
            + render_table(repair_rows, digits=4),
        ]
    )
    (results_directory / "perf_insertion.txt").write_text(text + "\n")
