"""Stable high-level facade for the MANI-Rank reproduction.

The internal packages (:mod:`repro.core`, :mod:`repro.aggregation`,
:mod:`repro.fair`, ...) are free to move and rename symbols between PRs; this
module is the one import surface with a compatibility promise.  It covers the
five verbs a typical caller needs — load a preference profile, aggregate it
into a consensus, repair a ranking to MANI-Rank fairness, evaluate fairness,
and open a consensus cache.

Stability policy
----------------

* Names exported here (``repro.api.__all__``) keep their signature semantics;
  new keyword arguments may be added with defaults that preserve behaviour.
* Internal modules may change without notice; import from ``repro.api`` (or
  the top-level ``repro`` re-exports) in downstream code.
* Deprecated aliases warn with :class:`DeprecationWarning` for at least two
  PRs before removal (see ``docs/api.md``).

Example
-------

>>> import repro.api as api
>>> from repro import CandidateTable, RankingSet
>>> table = CandidateTable({"Gender": ["M", "W", "M", "W"]})
>>> rankings = RankingSet.from_orders([[0, 1, 2, 3], [1, 0, 3, 2], [0, 2, 1, 3]])
>>> payload = api.aggregate(rankings, table, method="fair-borda", delta=0.2)
>>> payload["consensus"]["order"]  # doctest: +ELLIPSIS
[...]
>>> api.evaluate_fairness(payload["consensus"]["order"], table, delta=0.2).satisfied
True
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

from repro.cache.service import ConsensusCacheService, compute_consensus_payload
from repro.cache.store import ResultCache
from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.fair.make_mr_fair import MakeMRFairResult, make_mr_fair
from repro.fair.sharding import make_mr_fair_sharded
from repro.fairness.parity import ManiRankReport, evaluate_mani_rank
from repro.fairness.thresholds import FairnessThresholds
from repro.io.csv_io import read_candidate_table, read_ranking_set

__all__ = [
    "load_profile",
    "aggregate",
    "repair",
    "evaluate_fairness",
    "open_cache",
    "Profile",
]


class Profile(NamedTuple):
    """A preference profile: the base rankings plus their candidate table."""

    rankings: RankingSet
    table: CandidateTable


def load_profile(
    candidates_path: str | Path, rankings_path: str | Path
) -> Profile:
    """Load a preference profile from its two CSV files.

    ``candidates_path`` is a candidate-table CSV (``name`` + one column per
    protected attribute); ``rankings_path`` is a ranking-set CSV whose rows
    list candidate names best-to-worst.  Malformed files raise
    :class:`~repro.exceptions.ValidationError` with ``path:row`` positions.
    """
    table = read_candidate_table(candidates_path)
    rankings = read_ranking_set(rankings_path, table)
    return Profile(rankings, table)


def aggregate(
    rankings: RankingSet,
    table: CandidateTable,
    method: str = "fair-borda",
    strategy: str | None = None,
    delta: FairnessThresholds | float | Mapping[str, float] = 0.1,
) -> dict:
    """Aggregate a profile into a fair consensus and return the JSON payload.

    A thin wrapper over
    :func:`~repro.cache.service.compute_consensus_payload`.
    """
    return compute_consensus_payload(
        rankings, table, method=method, strategy=strategy, delta=delta
    )


def repair(
    rankings: Ranking | Sequence[Ranking],
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_swaps: int | None = None,
    n_shards: int | None = None,
) -> MakeMRFairResult | list[MakeMRFairResult]:
    """Repair ranking(s) to MANI-Rank fairness with Make-MR-Fair.

    Pass a single :class:`~repro.core.ranking.Ranking` to repair it in
    process (``n_shards`` is ignored), or a sequence of rankings to repair
    the batch — sharded across a process pool when ``n_shards`` is ``None``
    (one shard per CPU) or greater than one, bit-identical to the serial
    loop either way.
    """
    if isinstance(rankings, Ranking):
        return make_mr_fair(rankings, table, delta, max_swaps=max_swaps)
    return make_mr_fair_sharded(
        rankings, table, delta, max_swaps=max_swaps, n_shards=n_shards
    )


def evaluate_fairness(
    ranking: Ranking | Sequence[int],
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
) -> ManiRankReport:
    """Evaluate MANI-Rank fairness (FPR/ARP/IRP) and return the full report.

    Accepts a :class:`~repro.core.ranking.Ranking` or a plain best-to-worst
    candidate-id sequence (as found in aggregation payloads).
    """
    if not isinstance(ranking, Ranking):
        ranking = Ranking(ranking)
    return evaluate_mani_rank(ranking, table, delta)


def open_cache(
    directory: str | Path | None = None,
    memory_capacity: int | None = 256,
    **cache_options: object,
) -> ConsensusCacheService:
    """Open a consensus cache service backed by a two-tier result store.

    ``directory=None`` gives a memory-only cache; otherwise results are also
    persisted as content-addressed blobs under ``directory``.  Extra keyword
    arguments (``ttl``, ``retry``, ``breaker``, ...) are
    forwarded to :class:`~repro.cache.store.ResultCache`.
    """
    cache = ResultCache(
        memory_capacity=memory_capacity, directory=directory, **cache_options
    )
    return ConsensusCacheService(cache)
