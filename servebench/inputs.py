"""Seeded inputs of the three workloads, encoded once before any timing.

The server receives only these generated inputs.  Candidate tables and modal
rankings are the fixed ``perf_cache`` universe; every Mallows draw comes from
the workload seed, so one seed always gives the same request bodies.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Generic, TypeVar

import numpy as np

from repro.core.ranking import Ranking
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.io.serialization import candidate_table_to_dict

#: Modal-ranking parity targets shared with the ``perf_*`` benchmarks: mildly
#: unfair seeds, so Make-MR-Fair has real work to do.
MODAL_TARGETS = {"Race": 0.3, "Gender": 0.5}

#: The ``perf_cache`` query universe: profiles (n, m, theta) x methods x deltas.
ZIPF_PROFILES = ((200, 500, 0.3), (200, 500, 1.0), (100, 200, 0.3))
METHODS = ("fair-borda", "fair-borda-insertion", "fair-copeland")
ZIPF_DELTAS = (0.05, 0.1)
ZIPF_EXPONENT = 1.1

#: Acceptance scale of the cold-miss and streaming workloads.
N_CANDIDATES = 200
N_RANKINGS = 500
THETA = 0.3
DELTA = 0.1

#: Rankings submitted (and retracted) per streaming window slide.
STREAM_SLIDE = 10

#: Zipf draws made per extension of the replay's query stream.
ZIPF_CHUNK = 256

T = TypeVar("T")


class Endless(Generic[T]):
    """An unbounded sequence, produced in order from a seeded generator.

    Item ``i`` is the same however far the sequence has been read, so the
    timed phase can run for as long as ``--seconds`` asks whatever the
    server's throughput.  :meth:`extend_to` makes items ahead of time, so
    the timed phase only reads a list while throughput stays near the
    expected rate.  Not thread-safe: callers serialise access.
    """

    def __init__(self, batches: Iterator[list[T]]) -> None:
        """Read items from ``batches``, a never-ending iterator of item lists."""
        self._batches = batches
        self._items: list[T] = []

    def extend_to(self, count: int) -> None:
        """Make sure the first ``count`` items exist."""
        while len(self._items) < count:
            self._items.extend(next(self._batches))

    def __getitem__(self, index: int) -> T:
        """Item ``index`` (made on demand)."""
        self.extend_to(index + 1)
        return self._items[index]


def _universe(n_candidates: int) -> tuple[Ranking, str]:
    """The fixed table's calibrated modal ranking and the table's JSON encoding."""
    table = scalability_table(n_candidates, rng=7)
    modal = calibrated_modal_ranking(table, MODAL_TARGETS, rng=7)
    return modal, json.dumps(candidate_table_to_dict(table))


def _order_fragments(modal: Ranking, theta: float, count: int, rng) -> list[str]:
    """JSON text of ``count`` Mallows draws, one best-to-worst id list each."""
    rankings = sample_mallows(modal, theta, count, rng=rng)
    return [json.dumps(order) for order in rankings.to_order_lists()]


def _aggregate_body(fragments: list[str], table_json: str, method: str, delta: float) -> bytes:
    """An inline-JSON ``/aggregate`` body over the given ranking fragments."""
    return (
        '{"rankings": {"orders": [' + ", ".join(fragments) + ']}, '
        f'"candidates": {table_json}, "method": {json.dumps(method)}, "delta": {delta!r}}}'
    ).encode()


def zipf_queries(seed: int) -> list[bytes]:
    """``/aggregate`` bodies of the 18 Zipf-replay keys (3 profiles x 3 methods x 2 deltas)."""
    rng = np.random.default_rng([seed, 1])
    queries = []
    for n_candidates, n_rankings, theta in ZIPF_PROFILES:
        modal, table_json = _universe(n_candidates)
        fragments = _order_fragments(modal, theta, n_rankings, rng)
        for method in METHODS:
            for delta in ZIPF_DELTAS:
                queries.append(_aggregate_body(fragments, table_json, method, delta))
    return queries


def zipf_stream(seed: int, n_queries: int) -> Endless[int]:
    """Query indices drawn under Zipf popularity; the seed drives the draws.

    Popularity ranks go to queries through one fixed permutation, not a
    seeded one: the profile sizes differ fivefold, so a seeded assignment
    would change the workload's mix from seed to seed.  Under this one
    about 82% of the traffic asks for the n=200/m=500 profiles, so the
    median request is a warm hit at the acceptance scale on every seed.
    """
    rank_to_query = np.random.default_rng(0).permutation(n_queries)
    popularity = np.arange(1, n_queries + 1, dtype=float) ** -ZIPF_EXPONENT
    popularity /= popularity.sum()
    rng = np.random.default_rng([seed, 2])

    def batches() -> Iterator[list[int]]:
        while True:
            draws = rng.choice(n_queries, size=ZIPF_CHUNK, p=popularity)
            yield [int(index) for index in rank_to_query[draws]]

    return Endless(batches())


def cold_queries(seed: int) -> Endless[bytes]:
    """``/aggregate`` bodies of distinct n=200/m=500 Mallows profiles, without end.

    Each profile is 500 rankings drawn without replacement from a seeded pool
    of Mallows draws, so every profile is itself a Mallows sample and no two
    requests share a cache key.  Methods rotate through :data:`METHODS`.
    """
    rng = np.random.default_rng([seed, 3])
    modal, table_json = _universe(N_CANDIDATES)
    fragments = _order_fragments(modal, THETA, 2 * N_RANKINGS, rng)

    def batches() -> Iterator[list[bytes]]:
        seen: set[tuple[int, ...]] = set()
        while True:
            chosen = rng.choice(len(fragments), size=N_RANKINGS, replace=False)
            signature = tuple(sorted(int(index) for index in chosen))
            if signature in seen:
                continue
            seen.add(signature)
            method = METHODS[(len(seen) - 1) % len(METHODS)]
            yield [_aggregate_body([fragments[i] for i in chosen], table_json, method, DELTA)]

    return Endless(batches())


@dataclass(frozen=True)
class StreamInputs:
    """The initial ``/update`` body and one ``/update`` body per window slide."""

    initial: bytes
    slides: Endless[bytes]


def stream_inputs(seed: int) -> StreamInputs:
    """An n=200/m=500 fair-borda profile, then sliding-window updates without end.

    Slide ``r`` adds :data:`STREAM_SLIDE` fresh Mallows draws and retracts
    the :data:`STREAM_SLIDE` oldest rankings still in the window.
    """
    rng = np.random.default_rng([seed, 4])
    modal, table_json = _universe(N_CANDIDATES)
    fragments = _order_fragments(modal, THETA, N_RANKINGS, rng)
    initial = (
        f'{{"candidates": {table_json}, "method": "fair-borda", "delta": {DELTA!r}, '
        '"add": [' + ", ".join(fragments) + "]}"
    ).encode()

    def batches() -> Iterator[list[bytes]]:
        window = list(fragments)
        while True:
            fresh = _order_fragments(modal, THETA, STREAM_SLIDE, rng)
            old, window = window[:STREAM_SLIDE], window[STREAM_SLIDE:] + fresh
            yield [
                (
                    '{"add": [' + ", ".join(fresh) + '], '
                    '"remove": [' + ", ".join(old) + "]}"
                ).encode()
            ]

    return StreamInputs(initial, Endless(batches()))
