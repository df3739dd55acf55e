"""Content-addressed cache keys for consensus queries.

A consensus result is fully determined by five inputs: the multiset of
weighted base rankings, the candidate table's group schema, the aggregation
method, the optional local-repair strategy, and the fairness thresholds Δ.
:func:`cache_key` fingerprints each input and combines them into one SHA-256
digest, so the cache never needs to compare payloads — equal digest means
equal query.

Two properties matter for correctness:

* **Construction-order invariance.**  Every aggregation method treats the
  base rankings as a weighted multiset, so :func:`fingerprint_ranking_set`
  hashes the *sorted* per-ranking tokens: building the same profile in a
  different ranking order (or through a different constructor) produces the
  identical fingerprint.  Per-ranking labels are cosmetic and excluded.
* **Spelling invariance.**  Method names are canonicalised through the
  registry (``"A3"`` and ``"Fair-Borda"`` share a key with ``"fair-borda"``),
  strategy names through :func:`repro.aggregation.search.get_strategy`, and
  thresholds through :meth:`repro.fairness.thresholds.FairnessThresholds.coerce`.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidateTable
from repro.core.ranking_set import RankingSet
from repro.fair.registry import canonical_fair_method_name
from repro.fairness.thresholds import FairnessThresholds
from repro.io.serialization import candidate_table_to_dict, canonical_json

__all__ = [
    "CacheKey",
    "cache_key",
    "fingerprint_candidate_table",
    "fingerprint_ranking_set",
    "fingerprint_thresholds",
    "profile_digest",
    "profile_tokens",
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def profile_tokens(
    orders: np.ndarray, weights: Sequence[float] | np.ndarray
) -> list[bytes]:
    """One fixed-width byte token per row of a ``k x n`` order matrix, in order.

    A token is the ranking's candidate order in the narrowest little-endian
    unsigned type that holds ``n - 1`` (one byte per candidate up to
    n = 256), followed by its weight as a little-endian float64.  Every
    token of an ``n``-candidate profile has the same width, so joining them
    is unambiguous.  The tokens are cut from one narrowed copy of the order
    matrix, with no hashing per ranking.
    """
    k, n = orders.shape
    width = np.dtype(np.min_scalar_type(n - 1)).newbyteorder("<")
    rows = np.concatenate(
        [
            np.ascontiguousarray(orders, dtype=width).view(np.uint8).reshape(k, -1),
            np.asarray(weights, dtype="<f8").view(np.uint8).reshape(k, 8),
        ],
        axis=1,
    )
    data = rows.tobytes()
    step = rows.shape[1]
    return [data[start : start + step] for start in range(0, len(data), step)]


def profile_digest(n_candidates: int, sorted_tokens: list[bytes]) -> str:
    """SHA-256 of the candidate count and the sorted :func:`profile_tokens`."""
    return _digest(f"n={n_candidates};".encode() + b"".join(sorted_tokens))


def fingerprint_ranking_set(rankings: RankingSet) -> str:
    """SHA-256 fingerprint of the weighted multiset of base rankings.

    Each row of the order matrix contributes one :func:`profile_tokens`
    token (its order in the narrowest unsigned type, then its weight); the
    tokens are sorted before one hash over all of them, so the fingerprint
    is invariant to the construction order of the set.  Labels are
    excluded: they never influence an aggregation result.
    """
    tokens = profile_tokens(rankings.order_matrix(), rankings.weights)
    tokens.sort()
    return profile_digest(rankings.n_candidates, tokens)


def fingerprint_candidate_table(table: CandidateTable) -> str:
    """SHA-256 fingerprint of the candidate names, attributes, and domains.

    Uses the canonical JSON encoding of
    :func:`repro.io.serialization.candidate_table_to_dict`, so any change to
    the group schema — attribute values, domain composition, or candidate
    names (which appear in served payloads) — changes the key.
    """
    return _digest(canonical_json(candidate_table_to_dict(table)).encode())


def fingerprint_thresholds(
    delta: FairnessThresholds | float | Mapping[str, float],
) -> str:
    """Canonical JSON encoding of the fairness thresholds (default + per-entity)."""
    thresholds = FairnessThresholds.coerce(delta)
    return canonical_json(
        {"default": thresholds.default, "per_entity": thresholds.per_entity}
    )


@dataclass(frozen=True)
class CacheKey:
    """The five normalised components of a consensus cache key.

    ``digest`` is the content address: the SHA-256 of the canonical JSON of
    all five fields, used as the memory-tier key and the disk blob filename.
    """

    profile: str
    schema: str
    method: str
    strategy: str | None
    thresholds: str

    @property
    def digest(self) -> str:
        """The combined SHA-256 content address of this key."""
        return _digest(
            canonical_json(
                {
                    "profile": self.profile,
                    "schema": self.schema,
                    "method": self.method,
                    "strategy": self.strategy,
                    "thresholds": self.thresholds,
                }
            ).encode()
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-safe view of the key components (served next to cached payloads)."""
        return {
            "profile": self.profile,
            "schema": self.schema,
            "method": self.method,
            "strategy": self.strategy,
            "thresholds": self.thresholds,
            "digest": self.digest,
        }


def cache_key(
    rankings: RankingSet,
    table: CandidateTable,
    method: str = "fair-borda",
    strategy: str | None = None,
    delta: FairnessThresholds | float | Mapping[str, float] = 0.1,
) -> CacheKey:
    """Build the content-addressed key of one consensus query.

    Raises
    ------
    AggregationError
        If ``method`` or ``strategy`` does not resolve through its registry.
    """
    canonical_strategy: str | None = None
    if strategy is not None:
        from repro.aggregation.search import get_strategy

        canonical_strategy = get_strategy(strategy).name
    return CacheKey(
        profile=fingerprint_ranking_set(rankings),
        schema=fingerprint_candidate_table(table),
        method=canonical_fair_method_name(method),
        strategy=canonical_strategy,
        thresholds=fingerprint_thresholds(delta),
    )
