"""Performance benchmark of the swap-loop hot paths.

Times the quantities the incremental fairness engine and the vectorised
pairwise kernels were built for:

* ``make_mr_fair`` at n ∈ {100, 200, 400} candidates with 2 protected
  attributes on Mallows data at the paper's tight Δ = 0.1, on both the
  incremental engine (:func:`make_mr_fair`) and the retained from-scratch
  evaluator (:func:`make_mr_fair_reference`), timed back to back in rounds
  (:func:`perf_timing.paired_median`);
* the three shared kernels at paper scale: ``favored_mixed_pairs_by_group``
  (vs its naive reference), ``RankingSet.precedence_matrix`` (cold cache,
  at m=100/n=500 and at the served acceptance scale m=500/n=200), and
  ``kendall_tau_to_set``, each row the median of rounds that time the
  kernels back to back (:func:`perf_timing.paired_median`);
* ``ingest``: one inline ``/aggregate`` body at the acceptance scale,
  decoded whole (``json.loads`` + ``ranking_set_from_dict``, the fallback)
  against the array path (``cut_orders`` + ``parse_orders`` +
  ``ranking_set_from_dict`` of the matrix), timed back to back in rounds;
* ``make_mr_fair_sharded`` repairing a batch of Mallows rankings (32 at
  n=200 at full scale) serially vs over a two-process pool.

Results are written as ``perf_hot_paths.{json,txt}`` to the run's
results directory (see ``conftest.py``); the committed full-scale baseline
in ``benchmarks/results/`` is the perf trajectory later changes compare
against.  Set ``MANI_RANK_PERF_SCALE=smoke`` for the reduced configuration
used by the CI perf smoke job.

Hard assertions:

* the incremental engine returns the *identical* ranking and ``n_swaps`` as
  the from-scratch evaluator;
* at the acceptance configuration (the largest n both are timed at) the
  incremental engine is >= 10x faster (>= 4x at smoke scale, where fixed
  per-iteration overheads weigh more), as the median of the per-round
  ratios;
* the sharded batch is bit-identical to the serial loop and, at full scale on
  a machine with at least two CPUs, >= 1.3x faster (median of the per-pair
  ratios over back-to-back serial/sharded timings; the persisted
  ``serial_s``/``sharded_s`` are the medians of each side).
"""

from __future__ import annotations

import json
import os

import numpy as np
from perf_timing import machine_stamp, paired_median

from repro.aggregation.borda import BordaAggregator
from repro.cache.fingerprint import fingerprint_ranking_set
from repro.core.distances import kendall_tau_to_set
from repro.core.pairwise import (
    favored_mixed_pairs_by_group,
    favored_mixed_pairs_by_group_naive,
)
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.experiments.reporting import render_table
from repro.fair.make_mr_fair import make_mr_fair, make_mr_fair_reference
from repro.fair.sharding import make_mr_fair_sharded
from repro.io.serialization import (
    candidate_table_to_dict,
    cut_orders,
    parse_orders,
    ranking_set_from_dict,
    ranking_set_to_dict,
)

#: Modal-ranking fairness targets matching the Figure 7 scalability dataset.
_MODAL_TARGETS = {"Race": 0.31, "Gender": 0.44}

_SCALE_PARAMETERS = {
    "full": {
        "candidate_counts": (100, 200, 400),
        "reference_counts": (100, 200),
        "n_rankings": 50,
        "delta": 0.1,
        "make_mr_fair_rounds": 5,
        "kernel_n": 500,
        "kernel_m": 100,
        "precedence_n": 200,
        "precedence_m": 500,
        "kernel_rounds": 7,
        "ingest_rounds": 15,
        "min_speedup": 10.0,
        "sharded_n": 200,
        "sharded_rankings": 32,
        "sharded_pairs": 9,
        "min_sharded_speedup": 1.3,
    },
    "smoke": {
        "candidate_counts": (50, 100),
        "reference_counts": (50, 100),
        "n_rankings": 20,
        "delta": 0.1,
        "make_mr_fair_rounds": 3,
        "kernel_n": 120,
        "kernel_m": 30,
        "precedence_n": 100,
        "precedence_m": 100,
        "kernel_rounds": 3,
        "ingest_rounds": 5,
        "min_speedup": 4.0,
        "sharded_n": 100,
        "sharded_rankings": 8,
        "sharded_pairs": 3,
        "min_sharded_speedup": None,
    },
}


def test_perf_hot_paths(results_directory):
    scale = os.environ.get("MANI_RANK_PERF_SCALE", "full")
    parameters = _SCALE_PARAMETERS[scale]
    delta = parameters["delta"]

    # ------------------------------------------------------------------
    # make_mr_fair: incremental engine vs from-scratch reference
    # ------------------------------------------------------------------
    make_mr_fair_rows = []
    acceptance_speedup = None
    for n_candidates in parameters["candidate_counts"]:
        table = scalability_table(n_candidates, rng=7)
        modal = calibrated_modal_ranking(table, _MODAL_TARGETS, rng=7)
        rankings = sample_mallows(modal, 0.6, parameters["n_rankings"], rng=7)
        seed = BordaAggregator().aggregate(rankings)

        def run_engine():
            return make_mr_fair(seed, table, delta)

        def run_reference():
            return make_mr_fair_reference(seed, table, delta)

        incremental = run_engine()
        row = {
            "n_candidates": n_candidates,
            "delta": delta,
            "n_swaps": incremental.n_swaps,
            "incremental_s": None,
            "reference_s": None,
            "speedup": None,
        }
        rounds = parameters["make_mr_fair_rounds"]
        if n_candidates in parameters["reference_counts"]:
            reference = run_reference()
            # Tentpole guarantee: identical swap sequence and result.
            assert incremental.ranking == reference.ranking
            assert incremental.n_swaps == reference.n_swaps
            assert incremental.corrected_entities == reference.corrected_entities
            seconds, speedups = paired_median((run_reference, run_engine), rounds)
            row["reference_s"], row["incremental_s"] = seconds
            row["speedup"] = acceptance_speedup = speedups[0]
        else:
            seconds, _ = paired_median((run_engine,), rounds)
            row["incremental_s"] = seconds[0]
        make_mr_fair_rows.append(row)

    # The speedup at the largest configuration both evaluators ran.
    # MANI_RANK_PERF_MIN_SPEEDUP loosens the gate where timings are noisy but
    # the run should still regenerate results (the nightly shared runners).
    min_speedup = float(
        os.environ.get("MANI_RANK_PERF_MIN_SPEEDUP", parameters["min_speedup"])
    )
    assert acceptance_speedup is not None
    assert acceptance_speedup >= min_speedup, (
        f"incremental make_mr_fair only {acceptance_speedup:.1f}x faster than "
        f"the from-scratch evaluator (required {min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # shared kernels at paper scale
    # ------------------------------------------------------------------
    kernel_n = parameters["kernel_n"]
    kernel_m = parameters["kernel_m"]
    rng = np.random.default_rng(11)
    kernel_table = scalability_table(kernel_n, rng=11)
    membership = kernel_table.group_membership_array(
        kernel_table.INTERSECTION
    )
    n_groups = len(kernel_table.groups(kernel_table.INTERSECTION))
    kernel_ranking = Ranking.random(kernel_n, rng)
    assert np.array_equal(
        favored_mixed_pairs_by_group(kernel_ranking, membership, n_groups),
        favored_mixed_pairs_by_group_naive(kernel_ranking, membership, n_groups),
    )
    (naive_s, vectorized_s), _ = paired_median(
        (
            lambda: favored_mixed_pairs_by_group_naive(kernel_ranking, membership, n_groups),
            lambda: favored_mixed_pairs_by_group(kernel_ranking, membership, n_groups),
        ),
        parameters["kernel_rounds"],
    )
    kernel_rows = [
        {
            "kernel": "favored_mixed_pairs_by_group",
            "configuration": f"n={kernel_n}, intersection groups",
            "vectorized_s": vectorized_s,
            "naive_s": naive_s,
        }
    ]

    base = [Ranking.random(kernel_n, rng) for _ in range(kernel_m)]

    def _cold_precedence() -> np.ndarray:
        return RankingSet(base).precedence_matrix()

    # The served acceptance scale: one build per cold query.
    precedence_n = parameters["precedence_n"]
    precedence_m = parameters["precedence_m"]
    acceptance_base = [Ranking.random(precedence_n, rng) for _ in range(precedence_m)]

    def _cold_acceptance_precedence() -> np.ndarray:
        return RankingSet(acceptance_base).precedence_matrix()

    ranking_set = RankingSet(base)

    def _set_distance() -> float:
        return kendall_tau_to_set(kernel_ranking, ranking_set)

    # One round times all three back to back, so they see the same drift.
    kernel_seconds, _ = paired_median(
        (_cold_precedence, _cold_acceptance_precedence, _set_distance),
        parameters["kernel_rounds"],
    )
    for (kernel, configuration), seconds in zip(
        (
            ("precedence_matrix", f"m={kernel_m}, n={kernel_n}, cold cache"),
            ("precedence_matrix", f"m={precedence_m}, n={precedence_n}, cold cache"),
            ("kendall_tau_to_set", f"m={kernel_m}, n={kernel_n}"),
        ),
        kernel_seconds,
    ):
        kernel_rows.append(
            {
                "kernel": kernel,
                "configuration": configuration,
                "vectorized_s": seconds,
                "naive_s": None,
            }
        )

    # ------------------------------------------------------------------
    # ingest: one inline body, decoded whole vs the array path
    # ------------------------------------------------------------------
    ingest_table = scalability_table(precedence_n, rng=7)
    ingest_modal = calibrated_modal_ranking(ingest_table, _MODAL_TARGETS, rng=7)
    ingest_profile = sample_mallows(ingest_modal, 0.6, precedence_m, rng=7)
    raw = json.dumps(
        {
            "rankings": ranking_set_to_dict(ingest_profile),
            "candidates": candidate_table_to_dict(ingest_table),
            "method": "fair-borda",
            "delta": delta,
        }
    ).encode()

    def run_fallback() -> RankingSet:
        return ranking_set_from_dict(json.loads(raw)["rankings"])

    def run_array() -> RankingSet:
        rest, text = cut_orders(raw)
        return ranking_set_from_dict({**rest["rankings"], "orders": parse_orders(text)})

    fallback_set, array_set = run_fallback(), run_array()
    assert np.array_equal(array_set.position_matrix(), ingest_profile.position_matrix())
    assert np.array_equal(array_set.position_matrix(), fallback_set.position_matrix())
    assert array_set.labels == fallback_set.labels
    assert fingerprint_ranking_set(array_set) == fingerprint_ranking_set(fallback_set)
    (fallback_s, array_s), (ingest_speedup,) = paired_median(
        (run_fallback, run_array), parameters["ingest_rounds"]
    )
    ingest_rows = [
        {
            "n_candidates": precedence_n,
            "n_rankings": precedence_m,
            "body_bytes": len(raw),
            "fallback_s": fallback_s,
            "array_s": array_s,
            "speedup": ingest_speedup,
        }
    ]

    # ------------------------------------------------------------------
    # make_mr_fair_sharded: serial loop vs a two-process pool
    # ------------------------------------------------------------------
    sharded_n = parameters["sharded_n"]
    n_shards = 2
    table = scalability_table(sharded_n, rng=7)
    modal = calibrated_modal_ranking(table, _MODAL_TARGETS, rng=7)
    batch = list(sample_mallows(modal, 0.6, parameters["sharded_rankings"], rng=7))

    def run_serial():
        return [make_mr_fair(ranking, table, delta) for ranking in batch]

    def run_sharded():
        return make_mr_fair_sharded(batch, table, delta, n_shards=n_shards)

    assert [(r.ranking, r.n_swaps) for r in run_sharded()] == [
        (r.ranking, r.n_swaps) for r in run_serial()
    ]
    # Time the two paths in back-to-back pairs and gate the median of the
    # per-pair ratios (see perf_timing.py).
    min_sharded_speedup = parameters["min_sharded_speedup"]
    gated = min_sharded_speedup is not None and (os.cpu_count() or 1) >= 2
    (serial_s, sharded_s), (sharded_speedup,) = paired_median(
        (run_serial, run_sharded), parameters["sharded_pairs"]
    )
    sharded_rows = [
        {
            "n_candidates": sharded_n,
            "n_rankings": len(batch),
            "delta": delta,
            "n_shards": n_shards,
            "serial_s": serial_s,
            "sharded_s": sharded_s,
            "speedup": sharded_speedup,
        }
    ]
    if gated:
        assert sharded_rows[0]["speedup"] >= min_sharded_speedup, (
            f"make_mr_fair_sharded only {sharded_rows[0]['speedup']:.2f}x faster "
            f"than the serial loop on {n_shards} shards "
            f"(required {min_sharded_speedup}x)"
        )

    # ------------------------------------------------------------------
    # persist the run (see results_directory in conftest.py)
    # ------------------------------------------------------------------
    payload = {
        "benchmark": "perf_hot_paths",
        "scale": scale,
        "machine": machine_stamp(),
        "parameters": {
            key: value
            for key, value in parameters.items()
            if not key.startswith("min_")
        },
        "make_mr_fair": make_mr_fair_rows,
        "kernels": kernel_rows,
        "ingest": ingest_rows,
        "make_mr_fair_sharded": sharded_rows,
    }
    (results_directory / "perf_hot_paths.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    text = "\n\n".join(
        [
            f"perf_hot_paths (scale={scale})",
            "make_mr_fair (incremental engine vs from-scratch reference)\n"
            + render_table(make_mr_fair_rows, digits=4),
            "shared kernels\n" + render_table(kernel_rows, digits=4),
            "ingest (json.loads + ranking_set_from_dict vs the array path)\n"
            + render_table(ingest_rows, digits=4),
            "make_mr_fair_sharded (serial loop vs process pool)\n"
            + render_table(sharded_rows, digits=4),
        ]
    )
    (results_directory / "perf_hot_paths.txt").write_text(text + "\n")
