"""Policy-comparison benchmark: eviction policies under the Zipf replay.

Replays the ``perf_cache`` Zipf trace (same query universe, same seed, same
popularity permutation) through one memory-only
:class:`~repro.cache.store.ResultCache` per eviction policy (``lru``,
``cost-aware``), with the memory tier sized *below* the distinct working set
so every policy is forced to choose victims.  The caches are
memory-only on purpose: with a disk tier attached every distinct query is
computed at most once regardless of policy (evicted entries stay servable
from disk), which would flatten the recompute-seconds signal the comparison
measures.

Each distinct query's cold payload and recompute cost are measured up front
and pinned: every cache replays the identical request stream against the
identical payloads with the identical per-entry ``compute_seconds``, so hit
placement — and therefore ``recompute_seconds_saved`` — is a deterministic
function of the policy alone.  The pinned cost is the *minimum* over
``_COST_REPEATS`` timed computations — min-of-k strips the scheduler noise
spikes that would otherwise reorder near-boundary costs between runs and
flake the cost-aware-vs-LRU gate on shared CI runners.

Hard assertions guarding the tentpole:

* every served payload is **bit-identical** to the cold computation, for
  both policies;
* each policy's ``saved + recomputed`` recompute-seconds reconcile exactly
  with the request stream (no work is silently lost or double-counted);
* the cost-aware policy's total recompute-seconds-saved is >= the retained
  LRU reference's on the measured trace — the replacement upgrade must not
  regress the very currency it optimises.

Results are written as ``perf_eviction.{json,txt}`` to the run's results
directory (see ``conftest.py``; the committed baseline lives in
``benchmarks/results/``) with one speedup row per policy (``saved_s``
normalised by LRU's), which the CI perf summary pairs by policy name.  Set
``MANI_RANK_PERF_SCALE=smoke`` for the reduced CI configuration.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from perf_timing import machine_stamp

from repro.cache.service import compute_consensus_payload
from repro.cache.store import ResultCache
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.experiments.reporting import render_table

_POLICIES = ("lru", "cost-aware")

#: Mirrors ``test_perf_cache``'s trace recipe so the two benchmarks measure
#: the same workload; only the cache construction differs.
_SCALE_PARAMETERS = {
    "full": {
        "profiles": ((200, 500, 0.3), (200, 500, 1.0), (100, 200, 0.3)),
        "methods": ("fair-borda", "fair-borda-insertion", "fair-copeland"),
        "deltas": (0.05, 0.1),
        "n_requests": 300,
        "memory_capacity": 8,
        "zipf_exponent": 1.1,
    },
    "smoke": {
        # Two deltas and capacity 3 keep the distinct-query universe (8)
        # diverse enough that the policies genuinely separate — with only 4
        # queries at capacity 2 the cost-aware-vs-LRU margin sits within
        # timing noise and the gate flakes.
        "profiles": ((60, 100, 0.3), (60, 100, 1.0)),
        "methods": ("fair-borda", "fair-borda-insertion"),
        "deltas": (0.05, 0.1),
        "n_requests": 120,
        "memory_capacity": 3,
        "zipf_exponent": 1.1,
    },
}

_MODAL_TARGETS = {"Race": 0.3, "Gender": 0.5}

#: Timed repetitions per distinct query; the pinned cost is the minimum.
_COST_REPEATS = 3


def test_perf_eviction(results_directory):
    scale = os.environ.get("MANI_RANK_PERF_SCALE", "full")
    parameters = _SCALE_PARAMETERS[scale]

    # ------------------------------------------------------------------
    # build the Mallows-grid query universe (identical to perf_cache)
    # ------------------------------------------------------------------
    datasets = {}
    for n_candidates, n_rankings, theta in parameters["profiles"]:
        table = scalability_table(n_candidates, rng=7)
        modal = calibrated_modal_ranking(table, _MODAL_TARGETS, rng=7)
        rankings = sample_mallows(modal, theta, n_rankings, rng=11)
        rankings.precedence_matrix()  # warm the shared cached kernel
        datasets[(n_candidates, n_rankings, theta)] = (rankings, table)

    queries = [
        {"profile": profile, "method": method, "strategy": None, "delta": delta}
        for profile in parameters["profiles"]
        for method in parameters["methods"]
        for delta in parameters["deltas"]
    ]
    assert parameters["memory_capacity"] < len(queries)  # force real evictions

    # Cold ground truth and pinned recompute cost for every distinct query
    # (min-of-k timing; repeat payloads must be bit-identical).
    cold_payloads = []
    cold_seconds = []
    for query in queries:
        rankings, table = datasets[query["profile"]]
        best = None
        for repeat in range(_COST_REPEATS):
            start = time.perf_counter()
            payload = compute_consensus_payload(
                rankings,
                table,
                method=query["method"],
                strategy=query["strategy"],
                delta=query["delta"],
            )
            elapsed = time.perf_counter() - start
            if repeat == 0:
                cold_payloads.append(payload)
                best = elapsed
            else:
                assert payload == cold_payloads[-1]  # recompute is deterministic
                best = min(best, elapsed)
        cold_seconds.append(best)

    # ------------------------------------------------------------------
    # Zipf request stream (same seed and permutation as perf_cache)
    # ------------------------------------------------------------------
    rng = np.random.default_rng(2022)
    ranks = np.arange(1, len(queries) + 1, dtype=float)
    popularity = ranks ** -parameters["zipf_exponent"]
    popularity /= popularity.sum()
    rank_to_query = rng.permutation(len(queries))
    request_stream = rank_to_query[
        rng.choice(len(queries), size=parameters["n_requests"], p=popularity)
    ]
    stream_cost = float(sum(cold_seconds[index] for index in request_stream))

    # ------------------------------------------------------------------
    # replay the identical trace through one cache per policy
    # ------------------------------------------------------------------
    policy_rows = []
    policy_stats = {}
    for policy in _POLICIES:
        cache = ResultCache(
            memory_capacity=parameters["memory_capacity"], policy=policy
        )
        recomputed = 0.0
        for query_index in request_stream:
            digest = f"q{query_index:03d}"
            served = cache.get(digest)
            if served is None:
                # The "recompute" replays the pinned cold result at its
                # pinned cost, so hit placement — and the saved total — is a
                # deterministic function of the policy alone.
                recomputed += cold_seconds[query_index]
                cache.put(
                    digest,
                    cold_payloads[query_index],
                    compute_seconds=cold_seconds[query_index],
                )
            else:
                # Bit-identity: whatever the policy chose to keep, a hit
                # serves exactly the cold computation's payload.
                assert served == cold_payloads[query_index]

        stats = cache.stats()
        saved = stats.recompute_seconds_saved
        assert stats.policy == policy
        assert stats.requests == parameters["n_requests"]
        assert stats.evictions > 0  # the capacity bound actually bit
        # Work conservation: every request's recompute cost was either saved
        # by a cache hit or spent recomputing — nothing lost, nothing double-
        # counted.
        assert abs(saved + recomputed - stream_cost) < 1e-9
        policy_rows.append({"policy": policy, "saved_s": saved})
        policy_stats[policy] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate,
            "evictions": stats.evictions,
            "recomputed_s": recomputed,
            "memory_cost_s": stats.memory_cost_seconds,
        }

    saved_by_policy = {row["policy"]: row["saved_s"] for row in policy_rows}
    for row in policy_rows:
        row["speedup"] = (
            row["saved_s"] / saved_by_policy["lru"] if saved_by_policy["lru"] else 1.0
        )

    # ------------------------------------------------------------------
    # acceptance gate: cost-aware must save at least as much as LRU
    # ------------------------------------------------------------------
    assert saved_by_policy["cost-aware"] >= saved_by_policy["lru"], (
        f"cost-aware saved {saved_by_policy['cost-aware']:.3f}s of recompute "
        f"vs LRU's {saved_by_policy['lru']:.3f}s on the measured Zipf trace"
    )

    # ------------------------------------------------------------------
    # persist the run (see results_directory in conftest.py)
    # ------------------------------------------------------------------
    payload = {
        "benchmark": "perf_eviction",
        "scale": scale,
        "machine": machine_stamp(),
        "parameters": {
            "profiles": [list(profile) for profile in parameters["profiles"]],
            "methods": list(parameters["methods"]),
            "deltas": list(parameters["deltas"]),
            "n_requests": parameters["n_requests"],
            "memory_capacity": parameters["memory_capacity"],
            "zipf_exponent": parameters["zipf_exponent"],
            "modal_targets": _MODAL_TARGETS,
        },
        "distinct_queries": len(queries),
        "stream_recompute_s": stream_cost,
        "policies": policy_rows,
        "policy_stats": policy_stats,
    }
    (results_directory / "perf_eviction.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    detail_rows = [
        {
            "policy": row["policy"],
            "saved_s": row["saved_s"],
            "speedup": row["speedup"],
            **policy_stats[row["policy"]],
        }
        for row in policy_rows
    ]
    text = "\n\n".join(
        [
            f"perf_eviction (scale={scale})",
            f"Zipf replay: {parameters['n_requests']} requests over "
            f"{len(queries)} distinct queries, memory capacity "
            f"{parameters['memory_capacity']}, total stream recompute cost "
            f"{stream_cost:.3f}s",
            "Policy comparison (saved_s = recompute seconds served from "
            "cache; speedup normalised by lru)\n"
            + render_table(detail_rows, digits=4),
        ]
    )
    (results_directory / "perf_eviction.txt").write_text(text + "\n")
