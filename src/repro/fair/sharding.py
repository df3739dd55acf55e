"""Sharded Make-MR-Fair: correct many rankings across a process pool.

Multi-consensus workloads — correcting every base ranking of a profile, a
batch of per-query consensus rankings, or the candidates of a
pick-fairest-style baseline — run Make-MR-Fair (Algorithm 2) once per
ranking.  The corrections are mutually independent (each one reads only its
own ranking plus the shared candidate table), so the batch parallelises
trivially: :func:`make_mr_fair_sharded` splits the rankings into contiguous
shards, repairs each shard in a worker process, and reassembles the results
in input order.

Bit-identity: every shard runs the exact serial
:func:`~repro.fair.make_mr_fair.make_mr_fair` on the same inputs, and no
correction reads another's output, so the result list is **bit-identical** to
the serial loop for every shard count (the property tests in
``tests/fair/test_sharding.py`` replay randomized batches through both
paths).
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence

from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.exceptions import ValidationError
from repro.fair.make_mr_fair import MakeMRFairResult, make_mr_fair
from repro.fairness.thresholds import FairnessThresholds

__all__ = ["make_mr_fair_sharded", "default_shard_count"]


def default_shard_count(n_rankings: int) -> int:
    """Default shard count: one per CPU, never more than one per ranking."""
    return max(1, min(n_rankings, os.cpu_count() or 1))


def make_mr_fair_sharded(
    rankings: Sequence[Ranking],
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_swaps: int | None = None,
    n_shards: int | None = None,
) -> list[MakeMRFairResult]:
    """Run Make-MR-Fair on every ranking, sharded over a process pool.

    Parameters
    ----------
    rankings:
        The rankings to correct (each independently, against the same table).
    table:
        Candidate table defining the protected attributes and intersection.
    delta:
        Fairness threshold(s); see
        :class:`~repro.fairness.thresholds.FairnessThresholds`.
    max_swaps:
        Per-ranking safety cap, forwarded to
        :func:`~repro.fair.make_mr_fair.make_mr_fair`.
    n_shards:
        Number of worker shards.  ``None`` picks
        :func:`default_shard_count`; ``1`` (or a single-ranking batch) runs
        serially in-process with no pool overhead.

    Returns
    -------
    list[MakeMRFairResult]
        One result per input ranking, in input order — bit-identical to
        ``[make_mr_fair(r, table, delta, max_swaps) for r in rankings]``.
    """
    batch = list(rankings)
    if not batch:
        return []
    for index, ranking in enumerate(batch):
        if not isinstance(ranking, Ranking):
            raise ValidationError(
                f"item {index} is not a Ranking (got {type(ranking).__name__})"
            )
    shards = default_shard_count(len(batch)) if n_shards is None else int(n_shards)
    if shards < 1:
        raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
    shards = min(shards, len(batch))
    if shards == 1:
        return [
            make_mr_fair(ranking, table, delta, max_swaps=max_swaps)
            for ranking in batch
        ]

    from concurrent.futures import ProcessPoolExecutor

    thresholds = FairnessThresholds.coerce(delta)
    # Contiguous shards, sized within one ranking of each other, reassembled
    # by pool.map in submission (= input) order.
    bounds = [round(i * len(batch) / shards) for i in range(shards + 1)]
    tasks = [
        (batch[bounds[i] : bounds[i + 1]], table, thresholds, max_swaps)
        for i in range(shards)
        if bounds[i] < bounds[i + 1]
    ]
    results: list[MakeMRFairResult] = []
    with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        for shard_results in pool.map(_repair_shard, tasks):
            results.extend(shard_results)
    return results


def _repair_shard(
    task: tuple[
        list[Ranking],
        CandidateTable,
        FairnessThresholds,
        int | None,
    ],
) -> list[MakeMRFairResult]:
    """Worker entry point: repair one contiguous shard serially.

    Module-level so it pickles under every multiprocessing start method.
    """
    shard, table, thresholds, max_swaps = task
    return [
        make_mr_fair(ranking, table, thresholds, max_swaps=max_swaps)
        for ranking in shard
    ]
