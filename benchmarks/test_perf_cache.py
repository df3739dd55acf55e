"""Load-test benchmark of the content-addressed consensus cache.

Replays Mallows-grid consensus queries through
:class:`repro.cache.service.ConsensusCacheService` under a Zipf popularity
distribution — the skewed-reuse workload the caching literature measures
hit-rate against ("A unified approach to the performance analysis of caching
systems", Martina et al.) — over a memory-LRU-tier-over-disk
:class:`~repro.cache.store.ResultCache` sized *below* the distinct-query
count, so the run exercises evictions and disk-tier promotions, not just
memory hits (the explicit eviction accounting motivated by "Compact CAR").

Results are written as ``perf_cache.{json,txt}`` to the run's results
directory (see ``conftest.py``; the committed baseline lives in
``benchmarks/results/``): per-query cold-compute seconds, replay latency
percentiles (overall / warm-hit / miss), the cache counters, and the
acceptance speedup.  Set ``MANI_RANK_PERF_SCALE=smoke`` for the reduced CI
configuration.

Hard assertions guarding the tentpole:

* every replayed response is **bit-identical** to the cold computation of the
  same query — across memory hits, disk promotions, and recomputed misses;
* at the acceptance configuration (n = 200 candidates, m = 500 rankings at
  full scale) the warm-cache aggregate is >= 10x faster than recomputing
  (>= 5x at smoke scale; ``MANI_RANK_PERF_MIN_SPEEDUP`` overrides for noisy
  shared runners), as the median of back-to-back per-round ratios
  (:func:`perf_timing.paired_median`);
* the replay's hit rate clears the scale's floor, and the counters reconcile
  exactly with the replay (requests, hits + misses, per-response flags).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from perf_timing import machine_stamp, paired_median

from repro.cache.service import ConsensusCacheService, compute_consensus_payload
from repro.cache.store import ResultCache
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.experiments.reporting import render_table

_SCALE_PARAMETERS = {
    "full": {
        "profiles": ((200, 500, 0.3), (200, 500, 1.0), (100, 200, 0.3)),
        "methods": ("fair-borda", "fair-borda-insertion", "fair-copeland"),
        "deltas": (0.05, 0.1),
        "n_requests": 300,
        "memory_capacity": 8,
        "zipf_exponent": 1.1,
        "min_speedup": 10.0,
        "min_hit_rate": 0.55,
    },
    "smoke": {
        "profiles": ((60, 100, 0.3), (60, 100, 1.0)),
        "methods": ("fair-borda", "fair-borda-insertion"),
        "deltas": (0.1,),
        "n_requests": 80,
        "memory_capacity": 2,
        "zipf_exponent": 1.1,
        "min_speedup": 5.0,
        "min_hit_rate": 0.5,
    },
}

#: Modal-ranking parity targets of the synthetic profiles (as in the other
#: perf benchmarks): mildly unfair seeds so Make-MR-Fair has real work to do.
_MODAL_TARGETS = {"Race": 0.3, "Gender": 0.5}

#: Back-to-back recompute/warm rounds behind the acceptance ratio.
_ROUNDS = 5


def _percentiles(latencies_s: list[float]) -> dict[str, float]:
    values = np.asarray(latencies_s, dtype=float) * 1000.0
    return {
        "p50_ms": float(np.percentile(values, 50)),
        "p90_ms": float(np.percentile(values, 90)),
        "p99_ms": float(np.percentile(values, 99)),
        "mean_ms": float(values.mean()),
    }


def test_perf_cache(results_directory, tmp_path):
    scale = os.environ.get("MANI_RANK_PERF_SCALE", "full")
    parameters = _SCALE_PARAMETERS[scale]

    # ------------------------------------------------------------------
    # build the Mallows-grid query universe
    # ------------------------------------------------------------------
    datasets = {}
    for n_candidates, n_rankings, theta in parameters["profiles"]:
        table = scalability_table(n_candidates, rng=7)
        modal = calibrated_modal_ranking(table, _MODAL_TARGETS, rng=7)
        rankings = sample_mallows(modal, theta, n_rankings, rng=11)
        rankings.precedence_matrix()  # warm the shared cached kernel
        datasets[(n_candidates, n_rankings, theta)] = (rankings, table)

    queries = [
        {
            "profile": profile,
            "method": method,
            "strategy": None,
            "delta": delta,
        }
        for profile in parameters["profiles"]
        for method in parameters["methods"]
        for delta in parameters["deltas"]
    ]

    def run_cold(query) -> dict:
        rankings, table = datasets[query["profile"]]
        return compute_consensus_payload(
            rankings,
            table,
            method=query["method"],
            strategy=query["strategy"],
            delta=query["delta"],
        )

    # Cold ground truth (and recompute cost) for every distinct query.
    query_rows = []
    cold_payloads = []
    for query in queries:
        start = time.perf_counter()
        cold_payloads.append(run_cold(query))
        n_candidates, n_rankings, theta = query["profile"]
        query_rows.append(
            {
                "n_candidates": n_candidates,
                "n_rankings": n_rankings,
                "theta": theta,
                "method": query["method"],
                "delta": query["delta"],
                "cold_s": time.perf_counter() - start,
                "requests": 0,
                "hits": 0,
            }
        )

    # ------------------------------------------------------------------
    # Zipf-popularity replay through the two-tier cache
    # ------------------------------------------------------------------
    rng = np.random.default_rng(2022)
    ranks = np.arange(1, len(queries) + 1, dtype=float)
    popularity = ranks ** -parameters["zipf_exponent"]
    popularity /= popularity.sum()
    # Assign popularity ranks to queries at random so heavy hitters are not
    # systematically the first-constructed (cheapest) configurations.
    rank_to_query = rng.permutation(len(queries))
    request_stream = rank_to_query[
        rng.choice(len(queries), size=parameters["n_requests"], p=popularity)
    ]

    service = ConsensusCacheService(
        ResultCache(
            memory_capacity=parameters["memory_capacity"],
            directory=tmp_path / "cache",
        )
    )
    latencies, warm_latencies, miss_latencies = [], [], []
    for query_index in request_stream:
        query = queries[query_index]
        rankings, table = datasets[query["profile"]]
        start = time.perf_counter()
        response = service.aggregate(
            rankings,
            table,
            method=query["method"],
            strategy=query["strategy"],
            delta=query["delta"],
        )
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        (warm_latencies if response["cached"] else miss_latencies).append(elapsed)
        query_rows[query_index]["requests"] += 1
        query_rows[query_index]["hits"] += int(response["cached"])
        # Bit-identity: every replayed result — memory hit, disk promotion,
        # or recomputed miss — equals the cold computation exactly.
        assert response["result"] == cold_payloads[query_index]

    stats = service.cache.stats()
    distinct_served = sum(1 for row in query_rows if row["requests"])
    assert stats.requests == parameters["n_requests"]
    assert stats.hits == len(warm_latencies)
    assert stats.misses == len(miss_latencies) == distinct_served
    hit_rate = stats.hit_rate
    assert hit_rate >= parameters["min_hit_rate"], (
        f"replay hit rate {hit_rate:.2f} below the "
        f"{parameters['min_hit_rate']:.2f} floor (K={len(queries)} distinct, "
        f"Q={parameters['n_requests']} requests)"
    )
    # The memory tier is sized below the distinct-query count, so the replay
    # must have exercised the eviction path.
    assert stats.evictions > 0

    # ------------------------------------------------------------------
    # acceptance gate: warm-cache aggregate vs recompute
    # ------------------------------------------------------------------
    acceptance_index = max(
        range(len(queries)),
        key=lambda i: (
            queries[i]["profile"][0] * queries[i]["profile"][1],
            queries[i]["method"] == "fair-borda",
        ),
    )
    acceptance = queries[acceptance_index]
    rankings, table = datasets[acceptance["profile"]]

    def run_warm():
        return service.aggregate(
            rankings,
            table,
            method=acceptance["method"],
            strategy=acceptance["strategy"],
            delta=acceptance["delta"],
        )

    warm_response = run_warm()
    assert warm_response["cached"] is True
    assert warm_response["result"] == cold_payloads[acceptance_index]
    (recompute_s, warm_s), (speedup,) = paired_median(
        (lambda: run_cold(acceptance), run_warm), _ROUNDS
    )
    min_speedup = float(
        os.environ.get("MANI_RANK_PERF_MIN_SPEEDUP", parameters["min_speedup"])
    )
    assert speedup >= min_speedup, (
        f"warm-cache aggregate only {speedup:.1f}x faster than recompute at "
        f"n={acceptance['profile'][0]}, m={acceptance['profile'][1]} "
        f"(required {min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # persist the run (see results_directory in conftest.py)
    # ------------------------------------------------------------------
    payload = {
        "benchmark": "perf_cache",
        "scale": scale,
        "machine": machine_stamp(),
        "parameters": {
            "profiles": [list(profile) for profile in parameters["profiles"]],
            "methods": list(parameters["methods"]),
            "deltas": list(parameters["deltas"]),
            "n_requests": parameters["n_requests"],
            "memory_capacity": parameters["memory_capacity"],
            "zipf_exponent": parameters["zipf_exponent"],
            "rounds": _ROUNDS,
            "modal_targets": _MODAL_TARGETS,
        },
        "distinct_queries": len(queries),
        "hit_rate": hit_rate,
        "cache_stats": stats.to_dict(),
        "latency": {
            "overall": _percentiles(latencies),
            "warm_hits": _percentiles(warm_latencies),
            "cold_misses": _percentiles(miss_latencies),
        },
        "acceptance": {
            "n_candidates": acceptance["profile"][0],
            "n_rankings": acceptance["profile"][1],
            "theta": acceptance["profile"][2],
            "method": acceptance["method"],
            "delta": acceptance["delta"],
            "recompute_s": recompute_s,
            "warm_s": warm_s,
            "speedup": speedup,
        },
        "queries": query_rows,
    }
    (results_directory / "perf_cache.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    latency_rows = [
        {"requests": label, **values}
        for label, values in (
            ("overall", payload["latency"]["overall"]),
            ("warm_hits", payload["latency"]["warm_hits"]),
            ("cold_misses", payload["latency"]["cold_misses"]),
        )
    ]
    text = "\n\n".join(
        [
            f"perf_cache (scale={scale})",
            f"Zipf replay: {parameters['n_requests']} requests over "
            f"{len(queries)} distinct queries, hit rate {hit_rate:.3f}, "
            f"evictions {stats.evictions}, disk hits {stats.disk_hits}",
            "Warm-cache acceptance: "
            f"n={acceptance['profile'][0]}, m={acceptance['profile'][1]}, "
            f"method={acceptance['method']}: recompute {recompute_s:.4f}s vs "
            f"warm {warm_s * 1000:.3f}ms ({speedup:.1f}x)",
            "Latency percentiles\n" + render_table(latency_rows, digits=3),
            "Distinct queries\n" + render_table(query_rows, digits=4),
        ]
    )
    (results_directory / "perf_cache.txt").write_text(text + "\n")
