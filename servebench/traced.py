"""In-process traced replay: the server's path, one span per call into a layer.

The replay calls the same public functions, in the same order, that
``mani-rank serve`` runs for a request, and wraps each call in a span
recorded from here, outside the program:

1. ``json.loads``, then ``candidate_table_from_dict`` and ``ranking_set_from_dict``;
2. ``cache_key`` and ``ResultCache.get`` (tagged memory, disk or miss);
3. on a miss, the seed aggregator, ``make_mr_fair``, ``fair_local_search``
   and the MANI-Rank check that ``aggregate_with_diagnostics`` runs;
4. ``pd_loss``, ``parity_scores``, ``fairness_row`` and ``canonical_json``,
   then ``ResultCache.put`` and the response encode;
5. for streaming, ``StreamingConsensusService.update`` and ``.aggregate``.

Stage names are the repository's module names.  Spans live in memory and are
summarised when the replay ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.cache.fingerprint import cache_key
from repro.cache.service import resolve_method
from repro.cache.store import ResultCache
from repro.exceptions import AggregationError
from repro.fair.local_repair import fair_local_search
from repro.fair.make_mr_fair import make_mr_fair
from repro.fair.registry import canonical_fair_method_name
from repro.fairness.parity import mani_rank_violations, parity_scores
from repro.fairness.pd_loss import pd_loss
from repro.fairness.report import fairness_row
from repro.fairness.thresholds import FairnessThresholds
from repro.io.serialization import (
    candidate_table_from_dict,
    canonical_json,
    ranking_set_from_dict,
    to_jsonable,
)
from repro.streaming.replay import StreamEvent, resolve_order
from repro.streaming.service import StreamingConsensusService

from servebench.metrics import coverage, p50

#: Every stage a traced request can record, in server-path order.
STAGES = (
    "io.serialization.decode",
    "core.ranking_set.build",
    "streaming.replay.resolve",
    "cache.fingerprint.key",
    "cache.store.get_memory",
    "cache.store.get_disk",
    "cache.store.get_miss",
    "aggregation.seed",
    "fair.make_mr_fair",
    "fair.local_repair",
    "fairness.check",
    "fairness.pd_loss",
    "fairness.parity",
    "fairness.row",
    "io.serialization.canonical",
    "cache.store.put",
    "streaming.engine.update",
    "streaming.engine.consensus",
    "io.serialization.encode",
)

#: Per-call engine counters, reported as means over the calls that made them.
COUNTERS = (
    "fair.make_mr_fair.swaps",
    "fair.local_repair.moves",
    "fair.local_repair.swaps",
    "streaming.service.invalidated",
)


@dataclass
class Span:
    """One timed call: its request, stage name and perf-counter interval."""

    request: int
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans and counters; every span belongs to the current request."""

    def __init__(self) -> None:
        """Start with no requests."""
        self.spans: list[Span] = []
        self.walls: list[Span] = []
        self.counts: dict[str, list[int]] = defaultdict(list)

    @contextmanager
    def request(self) -> Iterator[Span]:
        """The root span of one request; stage spans nest inside it."""
        root = Span(len(self.walls), "request", time.perf_counter())
        self.walls.append(root)
        try:
            yield root
        finally:
            root.end = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time one call into a layer."""
        record = Span(len(self.walls) - 1, name, time.perf_counter())
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.spans.append(record)

    def count(self, name: str, value: int) -> None:
        """Record one call's engine counter."""
        self.counts[name].append(int(value))

    def stage_sums(self) -> list[float]:
        """Per request, the summed seconds of its stage spans."""
        sums = [0.0] * len(self.walls)
        for record in self.spans:
            sums[record.request] += record.end - record.start
        return sums

    def summary(self) -> dict[str, float]:
        """Mean ms and call count per stage, counter means, and trace coverage."""
        by_stage: dict[str, list[float]] = defaultdict(list)
        for record in self.spans:
            by_stage[record.name].append(record.end - record.start)
        metrics: dict[str, float] = {}
        for stage in STAGES:
            durations = by_stage.get(stage, [])
            metrics[f"{stage}_ms"] = (
                1000.0 * sum(durations) / len(durations) if durations else 0.0
            )
            metrics[f"{stage}.calls"] = len(durations)
        for name in COUNTERS:
            values = self.counts.get(name, [])
            metrics[name] = sum(values) / len(values) if values else 0.0
        walls = [root.end - root.start for root in self.walls]
        metrics["trace.coverage"] = coverage(list(zip(self.stage_sums(), walls)))
        metrics["trace.requests"] = len(self.walls)
        return metrics

    def stage_sum_p50_ms(self, requests: list[int] | None = None) -> float:
        """Median stage sum in ms over the given requests (default: all)."""
        sums = self.stage_sums()
        chosen = range(len(sums)) if requests is None else requests
        return 1000.0 * p50([sums[index] for index in chosen])


def staged_payload(tracer: Tracer, rankings, table, method: str, strategy, delta) -> dict:
    """``compute_consensus_payload`` split into one span per layer call.

    Serves the seeded fair methods (every method the workloads send); the
    replay asserts the result equals ``compute_consensus_payload``.
    """
    thresholds = FairnessThresholds.coerce(delta)
    aggregator = resolve_method(method, strategy)
    with tracer.span("aggregation.seed"):
        seed = aggregator.seed_aggregator.aggregate_with_diagnostics(rankings)
    with tracer.span("fair.make_mr_fair"):
        correction = make_mr_fair(seed.ranking, table, thresholds)
    tracer.count("fair.make_mr_fair.swaps", correction.n_swaps)
    consensus = correction.ranking
    diagnostics: dict[str, object] = {
        "seed_method": aggregator.seed_aggregator.name,
        "n_swaps": correction.n_swaps,
        "corrected_entities": correction.corrected_entities,
    }
    if aggregator.local_repair:
        with tracer.span("fair.local_repair"):
            repair = fair_local_search(
                rankings, consensus, table, thresholds, strategy=str(aggregator.local_repair)
            )
        tracer.count("fair.local_repair.moves", repair.n_moves or 0)
        tracer.count("fair.local_repair.swaps", repair.n_swaps)
        consensus = repair.ranking
        diagnostics["repair_strategy"] = aggregator.local_repair
        diagnostics["repair_swaps"] = repair.n_swaps
        diagnostics["repair_objective"] = repair.objective
        if repair.n_moves is not None:
            diagnostics["repair_moves"] = repair.n_moves
    with tracer.span("fairness.check"):
        violations = mani_rank_violations(consensus, table, thresholds)
    if violations:
        raise AggregationError(f"traced replay violates MANI-Rank for {sorted(violations)}")
    payload = {
        "method": canonical_fair_method_name(method),
        "method_label": aggregator.name,
        "strategy": strategy,
        "delta": {"default": thresholds.default, "per_entity": thresholds.per_entity},
        "consensus": {
            "order": consensus.to_list(),
            "names": [table.name_of(candidate) for candidate in consensus],
        },
        "unaware_order": seed.ranking.to_list(),
    }
    with tracer.span("fairness.pd_loss"):
        payload["pd_loss"] = pd_loss(rankings, consensus)
    with tracer.span("fairness.parity"):
        payload["parity"] = parity_scores(consensus, table)
    with tracer.span("fairness.row"):
        payload["fairness"] = fairness_row(consensus, table)
    payload["diagnostics"] = diagnostics
    with tracer.span("io.serialization.canonical"):
        return json.loads(canonical_json(payload))


def _encode(tracer: Tracer, response: dict) -> bytes:
    """The server's response-body encode."""
    with tracer.span("io.serialization.encode"):
        return json.dumps(to_jsonable(response)).encode()


def traced_aggregate(tracer: Tracer, cache: ResultCache, raw_body: bytes) -> dict:
    """One ``POST /aggregate`` through the traced path; returns the response dict."""
    before = cache.stats()
    with tracer.request():
        with tracer.span("io.serialization.decode"):
            body = json.loads(raw_body)
        with tracer.span("core.ranking_set.build"):
            table = candidate_table_from_dict(body["candidates"])
            rankings = ranking_set_from_dict(body["rankings"])
        method = str(body.get("method", "fair-borda"))
        delta = body.get("delta", 0.1)
        with tracer.span("cache.fingerprint.key"):
            key = cache_key(
                rankings, table, method=method, strategy=body.get("strategy"), delta=delta
            )
            digest = key.digest
        with tracer.span("cache.store.get_miss") as lookup:
            payload = cache.get(digest)
        cached = payload is not None
        if not cached:
            started = time.perf_counter()
            payload = staged_payload(tracer, rankings, table, key.method, key.strategy, delta)
            elapsed = time.perf_counter() - started
            with tracer.span("cache.store.put"):
                cache.put(digest, payload, compute_seconds=elapsed)
        response = {"key": digest, "cached": cached, "result": payload}
        _encode(tracer, response)
    after = cache.stats()
    if after.memory_hits > before.memory_hits:
        lookup.name = "cache.store.get_memory"
    elif after.disk_hits > before.disk_hits:
        lookup.name = "cache.store.get_disk"
    return response


def traced_stream_round(tracer: Tracer, service: StreamingConsensusService, raw_body: bytes):
    """One sliding-window round (``/update`` then ``/consensus``) through the traced path."""
    table = service.engine.table
    with tracer.request():
        with tracer.span("io.serialization.decode"):
            body = json.loads(raw_body)
        with tracer.span("streaming.replay.resolve"):
            add = [StreamEvent("add", tuple(resolve_order(r, table))) for r in body["add"]]
            remove = [
                StreamEvent("remove", tuple(resolve_order(r, table))) for r in body["remove"]
            ]
        with tracer.span("streaming.engine.update"):
            update = service.update(add=add, remove=remove)
        tracer.count("streaming.service.invalidated", update["invalidated"])
        _encode(tracer, update)
        with tracer.span("streaming.engine.consensus"):
            consensus = service.aggregate()
        _encode(tracer, consensus)
    return update, consensus
