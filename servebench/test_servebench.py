"""Smoke-scale tests of the benchmark's own rules and its traced replay."""

from __future__ import annotations

import json

import pytest

from servebench.metrics import (
    Outcome,
    count_failures,
    coverage,
    reconcile,
    tail,
)
from servebench.traced import Span, Tracer


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(100, 0, -1)]  # unsorted on purpose
    value, percentile = tail(values)
    assert value == 90.0
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(90.0)


def test_tail_moves_smoothly_with_the_sample_count():
    value, percentile = tail([float(v) for v in range(1, 58)])
    assert value == 47.0 and percentile == pytest.approx(100.0 * 47 / 57)


def test_tail_stops_at_p95_on_large_samples():
    values = [float(v) for v in range(1, 1001)]
    assert tail(values) == (950.0, 95.0)
    value, percentile = tail(values[:200])
    assert value == 190.0 and percentile == pytest.approx(95.0)


def test_tail_of_small_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([]) == (0.0, 0.0)


def test_failures_count_errors_statuses_and_mismatches():
    outcomes = [
        Outcome((200,), True),
        Outcome((500,), True),
        Outcome((0,), False),  # connection error
        Outcome((200,), False),  # body differs from the oracle
        Outcome((200, 503), True),  # second request of the op shed
        Outcome((200, 200), True),
    ]
    failures = count_failures(outcomes)
    assert (failures.attempted, failures.failed) == (6, 4)
    assert failures.error_rate == pytest.approx(4 / 6)
    assert count_failures([]).error_rate == 0.0


def _stats(requests=21, statuses=None, endpoints=None, hits=15, misses=5, invalidations=0):
    return {
        "server": {
            "requests": requests,
            "responses_by_status": statuses or {"200": 21},
            "endpoints": endpoints or {"/aggregate": 20, "/readyz": 1, "/stats": 1},
        },
        "cache": {"hits": hits, "misses": misses, "invalidations": invalidations},
    }


def _reconcile(stats, **overrides):
    arguments = dict(
        sent_paths={"/aggregate": 20, "/readyz": 1},
        statuses={200: 21},
        lookups=20,
        hits_seen=15,
        distinct_keys=4,
    )
    arguments.update(overrides)
    return reconcile(stats, **arguments)


def test_reconciliation_passes_and_derives_duplicate_misses():
    result = _reconcile(_stats())
    assert result.ok, result.problems
    assert result.duplicate_misses == 1


def test_reconciliation_counts_earlier_stats_polls():
    stats = _stats(
        requests=22,
        statuses={"200": 22},
        endpoints={"/aggregate": 20, "/readyz": 1, "/stats": 2},
    )
    sent_paths = {"/aggregate": 20, "/readyz": 1, "/stats": 1}
    result = _reconcile(stats, sent_paths=sent_paths, statuses={200: 22})
    assert result.ok, result.problems


@pytest.mark.parametrize(
    "stats, overrides",
    [
        (_stats(requests=20), {}),
        (_stats(statuses={"200": 20, "503": 1}), {}),
        (_stats(hits=14, misses=6), {}),
        (_stats(hits=15, misses=6), {}),
        (_stats(hits=16, misses=3), {"lookups": 19, "hits_seen": 16}),
        (_stats(invalidations=3), {"invalidated_seen": 2}),
    ],
)
def test_reconciliation_flags_disagreement(stats, overrides):
    assert not _reconcile(stats, **overrides).ok


def test_endless_sources_do_not_depend_on_how_far_they_were_made():
    from servebench.inputs import ZIPF_CHUNK, Endless, zipf_stream

    ahead, lazy = zipf_stream(5, 18), zipf_stream(5, 18)
    ahead.extend_to(3 * ZIPF_CHUNK)
    far = 5 * ZIPF_CHUNK + 7
    assert [lazy[index] for index in range(far)] == [ahead[index] for index in range(far)]
    assert all(0 <= lazy[index] < 18 for index in range(far))

    counted = Endless(iter([[0, 1], [2], [3, 4, 5]]))
    assert [counted[index] for index in (4, 0, 5)] == [4, 0, 5]


def test_coverage_is_the_median_per_request_share():
    assert coverage([(0.9, 1.0), (0.5, 1.0), (2.0, 2.0), (0.0, 0.0)]) == pytest.approx(0.9)


def test_tracer_coverage_from_nested_spans():
    tracer = Tracer()
    tracer.walls = [Span(0, "request", 0.0, 1.0), Span(1, "request", 1.0, 3.0)]
    tracer.spans = [
        Span(0, "io.serialization.decode", 0.0, 0.5),
        Span(0, "cache.store.get_memory", 0.5, 0.9),
        Span(1, "io.serialization.decode", 1.0, 2.9),
    ]
    assert tracer.stage_sums() == pytest.approx([0.9, 1.9])
    summary = tracer.summary()
    assert summary["trace.coverage"] == pytest.approx((0.9 + 0.95) / 2)
    assert summary["io.serialization.decode.calls"] == 2
    assert summary["io.serialization.decode_ms"] == pytest.approx(1200.0)
    assert summary["fair.local_repair.calls"] == 0


def test_traced_replay_matches_compute_consensus_payload():
    from repro.cache.service import compute_consensus_payload
    from repro.cache.store import ResultCache
    from repro.datagen.attributes import scalability_table
    from repro.datagen.fair_modal import calibrated_modal_ranking
    from repro.datagen.mallows import sample_mallows
    from repro.io.serialization import candidate_table_to_dict, ranking_set_to_dict

    from servebench.traced import traced_aggregate

    table = scalability_table(24, rng=7)
    rankings = sample_mallows(calibrated_modal_ranking(table, {"Race": 0.3}, rng=7), 0.3, 30, rng=1)
    body = json.dumps(
        {
            "rankings": ranking_set_to_dict(rankings),
            "candidates": candidate_table_to_dict(table),
            "method": "fair-borda-insertion",
            "delta": 0.3,
        }
    ).encode()
    tracer, cache = Tracer(), ResultCache()
    cold = traced_aggregate(tracer, cache, body)
    warm = traced_aggregate(tracer, cache, body)
    expected = compute_consensus_payload(rankings, table, method="fair-borda-insertion", delta=0.3)
    assert cold["result"] == expected and warm["result"] == expected
    assert (cold["cached"], warm["cached"]) == (False, True)
    summary = tracer.summary()
    assert summary["cache.store.get_miss.calls"] == 1
    assert summary["cache.store.get_memory.calls"] == 1
    assert summary["fair.local_repair.calls"] == 1
    assert 0.0 < summary["trace.coverage"] <= 1.0


def test_traced_stream_round_matches_the_engine():
    from repro.cache.store import ResultCache
    from repro.datagen.attributes import scalability_table
    from repro.datagen.fair_modal import calibrated_modal_ranking
    from repro.datagen.mallows import sample_mallows
    from repro.streaming.engine import StreamingConsensusEngine
    from repro.streaming.replay import StreamEvent
    from repro.streaming.service import StreamingConsensusService

    from servebench.traced import traced_stream_round

    table = scalability_table(24, rng=7)
    orders = sample_mallows(
        calibrated_modal_ranking(table, {"Race": 0.3}, rng=7), 0.3, 24, rng=2
    ).to_order_lists()
    service = StreamingConsensusService(
        StreamingConsensusEngine(table, delta=0.3), cache=ResultCache()
    )
    service.update(add=[StreamEvent("add", tuple(order)) for order in orders[:20]])
    oracle = StreamingConsensusEngine(table, delta=0.3)
    oracle.add_rankings(orders[:20])
    tracer = Tracer()
    body = json.dumps({"add": orders[20:], "remove": orders[:4]}).encode()
    update, read = traced_stream_round(tracer, service, body)
    oracle.add_rankings(orders[20:])
    oracle.remove_rankings(orders[:4])
    assert update["n_rankings"] == 20
    assert read["result"] == oracle.consensus() == oracle.rebuild_reference()
    summary = tracer.summary()
    assert summary["streaming.engine.update.calls"] == 1
    assert summary["streaming.engine.consensus.calls"] == 1
    assert summary["io.serialization.encode.calls"] == 2
