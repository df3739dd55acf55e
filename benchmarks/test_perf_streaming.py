"""Perf gate of the streaming consensus engine: update cost vs recompute.

The batch pipeline answers a profile change by rebuilding everything: a fresh
:class:`~repro.core.ranking_set.RankingSet` (O(m n^2) precedence build) and a
cold aggregation plus PD-loss pass.  The streaming engine patches the cached
matrices per update (O(n^2) for a single ranking) and warm-starts
Make-MR-Fair + the fairness-preserving local search from the previous
consensus.  This benchmark measures one submit/retract round trip through
both consensus paths against the from-scratch recompute:

* ``update-and-repair`` — patch + warm-started repair (the streaming fast
  path); the acceptance gate requires **>= 10x** over recompute at the
  n = 200 / m = 500 full-scale configuration (>= 3x at smoke scale;
  ``MANI_RANK_PERF_MIN_SPEEDUP`` overrides for noisy shared runners).
* ``update-and-refresh`` — patch + the exact batch pipeline on the patched
  state; still skips every O(m n^2) term, and its payload is asserted
  **bit-identical** to ``compute_consensus_payload`` on a rebuilt profile.

Each speedup is the median of per-round ratios, one round timing a recompute
and both streaming paths back to back; the persisted seconds are the medians
of each column.

The warm repair payload is likewise asserted bit-identical to the retained
from-scratch reference (``rebuild`` + reference Make-MR-Fair + reference
local repair).  Results are written as ``perf_streaming.{json,txt}`` to the
run's results directory (see ``conftest.py``; the committed full-scale
baseline lives in ``benchmarks/results/``).
"""

from __future__ import annotations

import json
import os

from perf_timing import machine_stamp, paired_median

from repro.cache.service import compute_consensus_payload
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.experiments.reporting import render_table
from repro.streaming import StreamingConsensusEngine

_SCALE_PARAMETERS = {
    "full": {
        "n_candidates": 200,
        "n_rankings": 500,
        "theta": 1.0,
        "min_repair_speedup": 10.0,
        "min_refresh_speedup": 1.5,
        "rounds": 15,
    },
    "smoke": {
        "n_candidates": 60,
        "n_rankings": 100,
        "theta": 1.0,
        "min_repair_speedup": 3.0,
        "min_refresh_speedup": 1.1,
        "rounds": 5,
    },
}

_MODAL_TARGETS = {"Race": 0.3, "Gender": 0.5}


def test_perf_streaming(results_directory):
    scale = os.environ.get("MANI_RANK_PERF_SCALE", "full")
    parameters = _SCALE_PARAMETERS[scale]
    n_candidates = parameters["n_candidates"]
    n_rankings = parameters["n_rankings"]

    table = scalability_table(n_candidates, rng=7)
    modal = calibrated_modal_ranking(table, _MODAL_TARGETS, rng=7)
    rankings = sample_mallows(modal, parameters["theta"], n_rankings, rng=11)
    churn = sample_mallows(modal, parameters["theta"], 8, rng=13)
    churn_orders = [ranking.to_list() for ranking in churn]

    engine = StreamingConsensusEngine(table, rankings=rankings)
    # Materialise the cached matrices and the warm-start seed: a streaming
    # deployment is steady-state warm, and updates patch these in place.
    rankings.position_matrix()
    rankings.precedence_matrix()
    rankings.margin_matrix()
    engine.consensus()

    # ------------------------------------------------------------------
    # bit-identity: the fast paths against their from-scratch references
    # ------------------------------------------------------------------
    engine.add_rankings([churn_orders[0]])
    assert engine.consensus() == engine.rebuild_reference()
    previous = engine.last_consensus
    engine.add_rankings([churn_orders[1]])
    assert engine.repair() == engine.repair_reference(previous)
    engine.remove_rankings([churn_orders[0], churn_orders[1]])

    # ------------------------------------------------------------------
    # timings: one submit + one retract through each path, halved per update
    # ------------------------------------------------------------------
    def recompute() -> dict:
        return compute_consensus_payload(engine.rebuild(), table)

    cursor = {"i": 0}

    def next_order() -> list[int]:
        order = churn_orders[cursor["i"] % len(churn_orders)]
        cursor["i"] += 1
        return order

    def update_and_repair() -> None:
        order = next_order()
        engine.add_rankings([order])
        engine.repair()
        engine.remove_rankings([order])
        engine.repair()

    def update_and_refresh() -> None:
        order = next_order()
        engine.add_rankings([order])
        engine.consensus()
        engine.remove_rankings([order])
        engine.consensus()

    # One round times a recompute and both streaming paths back to back; the
    # gates take the median of the per-round ratios (see perf_timing.py).
    # Each update path makes two updates per call, so its seconds are halved
    # and its ratios doubled.
    (recompute_s, repair_pair_s, refresh_pair_s), (repair_ratio, refresh_ratio) = (
        paired_median(
            (recompute, update_and_repair, update_and_refresh), parameters["rounds"]
        )
    )
    repair_s = repair_pair_s / 2.0
    refresh_s = refresh_pair_s / 2.0
    repair_speedup = 2.0 * repair_ratio
    refresh_speedup = 2.0 * refresh_ratio
    min_repair = float(
        os.environ.get(
            "MANI_RANK_PERF_MIN_SPEEDUP", parameters["min_repair_speedup"]
        )
    )
    min_refresh = min(
        parameters["min_refresh_speedup"],
        float(
            os.environ.get(
                "MANI_RANK_PERF_MIN_SPEEDUP", parameters["min_refresh_speedup"]
            )
        ),
    )
    assert repair_speedup >= min_repair, (
        f"update-and-repair only {repair_speedup:.1f}x faster than recompute "
        f"at n={n_candidates}, m={n_rankings} (required {min_repair}x)"
    )
    assert refresh_speedup >= min_refresh, (
        f"update-and-refresh only {refresh_speedup:.1f}x faster than recompute "
        f"at n={n_candidates}, m={n_rankings} (required {min_refresh}x)"
    )

    # ------------------------------------------------------------------
    # persist the run (see results_directory in conftest.py)
    # ------------------------------------------------------------------
    operations = [
        {
            "operation": "update-and-repair",
            "n_candidates": n_candidates,
            "n_rankings": n_rankings,
            "seconds": repair_s,
            "speedup": repair_speedup,
        },
        {
            "operation": "update-and-refresh",
            "n_candidates": n_candidates,
            "n_rankings": n_rankings,
            "seconds": refresh_s,
            "speedup": refresh_speedup,
        },
    ]
    payload = {
        "benchmark": "perf_streaming",
        "scale": scale,
        "machine": machine_stamp(),
        "parameters": {
            "n_candidates": n_candidates,
            "n_rankings": n_rankings,
            "theta": parameters["theta"],
            "modal_targets": _MODAL_TARGETS,
            "method": "fair-borda",
            "delta": 0.1,
        },
        "recompute_s": recompute_s,
        "operations": operations,
    }
    (results_directory / "perf_streaming.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    text = "\n\n".join(
        [
            f"perf_streaming (scale={scale})",
            f"From-scratch recompute (rebuild + re-aggregate) at "
            f"n={n_candidates}, m={n_rankings}: {recompute_s:.4f}s per update",
            "Streaming updates (one submit/retract round trip, halved)\n"
            + render_table(operations, digits=4),
        ]
    )
    (results_directory / "perf_streaming.txt").write_text(text + "\n")
