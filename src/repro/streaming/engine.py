"""Incremental consensus engine over a mutable ranking profile.

:class:`StreamingConsensusEngine` owns the live profile of a streaming
deployment.  Submitting or retracting rankings patches the cached
position/precedence/margin matrices of the underlying
:class:`~repro.core.ranking_set.RankingSet` (via
:meth:`~repro.core.ranking_set.RankingSet.with_added` /
:meth:`~repro.core.ranking_set.RankingSet.with_removed`) and updates the
content-address fingerprint incrementally — O(k n^2) per update of k
rankings instead of the O(m n^2) rebuild.

Two consensus paths with different cost/freshness trade-offs:

* :meth:`consensus` runs the batch pipeline,
  :func:`repro.cache.service.compute_consensus_payload`, on the patched set,
  so it is **bit-identical** to the same call on a from-scratch rebuild of
  the profile.  The O(m n^2) matrix builds are replaced by the cache
  patches, and PD loss reads the patched precedence matrix in O(n^2).
* :meth:`repair` warm-starts Make-MR-Fair and the fairness-preserving local
  search from the *previous* consensus instead of a cold seed, so one
  update costs a handful of local-search passes — the ``update-and-repair``
  operation gated by ``benchmarks/test_perf_streaming.py``.

Both paths retain from-scratch references (:meth:`rebuild_reference`,
:meth:`repair_reference`) that the property tests keep bit-identical under
randomized add/remove sequences.
"""

from __future__ import annotations

import bisect
import json
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cache.fingerprint import (
    fingerprint_candidate_table,
    profile_digest,
    profile_tokens,
)
from repro.cache.service import compute_consensus_payload, consensus_json, resolve_method
from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import ValidationError
from repro.fair.local_repair import (
    fair_insertion_kemenization_reference,
    fair_local_kemenization_reference,
    fair_local_search,
)
from repro.fair.make_mr_fair import make_mr_fair, make_mr_fair_reference
from repro.fair.registry import canonical_fair_method_name
from repro.fairness.parity import parity_scores
from repro.fairness.pd_loss import pd_loss
from repro.fairness.thresholds import FairnessThresholds
from repro.io.serialization import canonical_json

__all__ = ["StreamingConsensusEngine"]


def _coerce_ranking(order: Ranking | Sequence[int], n_candidates: int) -> Ranking:
    """Validate one submitted order against the engine's candidate universe."""
    ranking = order if isinstance(order, Ranking) else Ranking(order)
    if ranking.n_candidates != n_candidates:
        raise ValidationError(
            f"submitted ranking covers {ranking.n_candidates} candidates; the "
            f"profile universe has {n_candidates}"
        )
    return ranking


def _order_matrix(rankings: Sequence[Ranking]) -> np.ndarray:
    """The ``k x n`` order matrix of a batch of rankings."""
    return np.stack([ranking.order for ranking in rankings])


class StreamingConsensusEngine:
    """Mutable ranking profile with incremental matrices and warm-started repair.

    Parameters
    ----------
    table:
        The candidate table (group schema) of the profile's universe.
    method:
        Registered aggregation method used by :meth:`consensus`; canonicalised
        through the registry at construction.
    strategy:
        Optional local-repair strategy name; canonicalised through
        :func:`repro.aggregation.search.get_strategy`.
    delta:
        Fairness threshold(s); see :class:`FairnessThresholds`.
    rankings:
        Optional seed profile.  The engine also starts empty — an empty
        profile is a legal streaming state (unlike :class:`RankingSet`,
        which is never empty), and :meth:`consensus` raises until rankings
        are submitted.
    """

    def __init__(
        self,
        table: CandidateTable,
        method: str = "fair-borda",
        strategy: str | None = None,
        delta: FairnessThresholds | float | Mapping[str, float] = 0.1,
        rankings: RankingSet | None = None,
    ) -> None:
        """See the class docstring for the parameter contract."""
        self._table = table
        self._method = canonical_fair_method_name(method)
        if strategy is not None:
            from repro.aggregation.search import get_strategy

            self._strategy: str | None = get_strategy(strategy).name
        else:
            self._strategy = None
        # Resolve once so an unknown method/strategy fails at construction.
        resolve_method(self._method, self._strategy)
        self._thresholds = FairnessThresholds.coerce(delta)
        self._schema = fingerprint_candidate_table(table)
        self._set: RankingSet | None = None
        # The sorted fingerprint tokens of the profile (see
        # repro.cache.fingerprint.profile_tokens): one bisect insertion or
        # removal per submitted or retracted ranking keeps the profile
        # fingerprint bit-identical to a batch fingerprint of a rebuild.
        self._tokens: list[bytes] = []
        self._version = 0
        self._previous: Ranking | None = None
        self._payload: bytes | None = None
        self._payload_version = -1
        if rankings is not None:
            if rankings.n_candidates != table.n_candidates:
                raise ValidationError(
                    "seed rankings and candidate table cover different universes: "
                    f"{rankings.n_candidates} vs {table.n_candidates} candidates"
                )
            self._set = rankings
            self._tokens = sorted(
                profile_tokens(rankings.order_matrix(), rankings.weights)
            )

    # ------------------------------------------------------------------
    # profile state
    # ------------------------------------------------------------------
    @property
    def table(self) -> CandidateTable:
        """The candidate table of the profile's universe."""
        return self._table

    @property
    def method(self) -> str:
        """Canonical name of the aggregation method."""
        return self._method

    @property
    def strategy(self) -> str | None:
        """Canonical name of the local-repair strategy, if any."""
        return self._strategy

    @property
    def thresholds(self) -> FairnessThresholds:
        """The fairness thresholds."""
        return self._thresholds

    @property
    def schema_fingerprint(self) -> str:
        """Fingerprint of the candidate table (fixed for the engine's lifetime)."""
        return self._schema

    @property
    def profile_version(self) -> int:
        """Monotonic counter, bumped once per successful add/remove batch."""
        return self._version

    @property
    def n_rankings(self) -> int:
        """Number of rankings currently in the profile (0 when empty)."""
        return 0 if self._set is None else self._set.n_rankings

    @property
    def is_empty(self) -> bool:
        """Whether the profile currently holds no rankings."""
        return self._set is None

    @property
    def rankings(self) -> RankingSet | None:
        """The live (cache-patched) ranking set, or ``None`` when empty."""
        return self._set

    @property
    def last_consensus(self) -> Ranking | None:
        """The most recent consensus from either path (the warm-start seed)."""
        return self._previous

    @property
    def profile_fingerprint(self) -> str | None:
        """Incrementally-maintained profile fingerprint, or ``None`` when empty.

        Bit-identical to :func:`repro.cache.fingerprint.fingerprint_ranking_set`
        on a from-scratch rebuild of the current profile — the property tests
        hold this under randomized add/remove sequences.
        """
        if self._set is None:
            return None
        return profile_digest(self._table.n_candidates, self._tokens)

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def add_rankings(
        self,
        orders: Sequence[Ranking | Sequence[int]],
        weights: Sequence[float] | None = None,
        labels: Sequence[str] | None = None,
    ) -> int:
        """Submit a batch of rankings, patching the cached matrices in place.

        Returns the new profile version.  Duplicate submissions are legal —
        the profile is a weighted multiset, so each copy contributes its own
        precedence increment and fingerprint token.
        """
        added = [_coerce_ranking(order, self._table.n_candidates) for order in orders]
        if not added:
            raise ValidationError("add_rankings needs at least one ranking")
        if weights is None:
            batch_weights = np.ones(len(added), dtype=float)
        else:
            batch_weights = np.asarray(list(weights), dtype=float)
            if batch_weights.shape != (len(added),):
                raise ValidationError(
                    "weights must have one entry per submitted ranking"
                )
        if self._set is None:
            self._set = RankingSet(added, labels=labels, weights=batch_weights)
        else:
            self._set = self._set.with_added(
                added, labels=labels, weights=batch_weights
            )
        for token in profile_tokens(_order_matrix(added), batch_weights):
            bisect.insort(self._tokens, token)
        self._version += 1
        return self._version

    def remove_rankings(
        self,
        orders: Sequence[Ranking | Sequence[int]],
        weights: Sequence[float] | None = None,
    ) -> int:
        """Retract a batch of rankings, patching the cached matrices in place.

        Each entry retracts *one* copy matching both the order and the weight
        (default 1.0), so retracting a duplicated submission leaves the other
        copies in the profile.  Returns the new profile version.

        Raises
        ------
        ValidationError
            If any requested ranking/weight pair is not present in the
            profile (nothing is removed in that case), or the profile is
            already empty.
        """
        targets = [_coerce_ranking(order, self._table.n_candidates) for order in orders]
        if not targets:
            raise ValidationError("remove_rankings needs at least one ranking")
        if weights is None:
            batch_weights = [1.0] * len(targets)
        else:
            batch_weights = [float(weight) for weight in weights]
            if len(batch_weights) != len(targets):
                raise ValidationError(
                    "weights must have one entry per retracted ranking"
                )
        if self._set is None:
            raise ValidationError("cannot remove rankings from an empty profile")
        positions = self._set.position_matrix()
        set_weights = self._set.weights
        chosen: list[int] = []
        taken: set[int] = set()
        for ranking, weight in zip(targets, batch_weights):
            matches = np.flatnonzero(
                (positions == ranking.positions).all(axis=1) & (set_weights == weight)
            )
            index = next((int(i) for i in matches if int(i) not in taken), None)
            if index is None:
                raise ValidationError(
                    f"no ranking with order {ranking.to_list()} and weight "
                    f"{weight} is present in the profile"
                )
            taken.add(index)
            chosen.append(index)
        if len(chosen) == self._set.n_rankings:
            self._set = None
        else:
            self._set = self._set.with_removed(chosen)
        for token in profile_tokens(_order_matrix(targets), batch_weights):
            self._tokens.pop(bisect.bisect_left(self._tokens, token))
        self._version += 1
        return self._version

    # ------------------------------------------------------------------
    # consensus paths
    # ------------------------------------------------------------------
    def _require_profile(self) -> RankingSet:
        """Return the live set or raise the canonical empty-profile error."""
        if self._set is None:
            raise ValidationError(
                "the streaming profile is empty; submit rankings before "
                "requesting a consensus"
            )
        return self._set

    def consensus(self) -> dict:
        """Exact batch consensus of the current profile from the patched state.

        :func:`compute_consensus_payload` on the live set, so bit-identical
        to the same call on :meth:`rebuild` — the cold O(m n^2) precedence
        build is replaced by the incremental cache patches.  Parsed afresh
        from :meth:`consensus_json` on every call.
        """
        return json.loads(self.consensus_json())

    def consensus_json(self) -> bytes:
        """The canonical JSON bytes of :meth:`consensus`.

        :func:`~repro.cache.service.consensus_json` on the live set, computed
        once per profile version, so repeated reads between updates do not
        recompute.
        """
        rankings = self._require_profile()
        if self._payload is None or self._payload_version != self._version:
            self._payload = consensus_json(
                rankings,
                self._table,
                method=self._method,
                strategy=self._strategy,
                delta=self._thresholds,
            )
            self._payload_version = self._version
            self._previous = Ranking(json.loads(self._payload)["consensus"]["order"])
        return self._payload

    def repair(self) -> dict:
        """Warm-started update-and-repair from the previous consensus.

        Instead of re-seeding from scratch, the previous consensus is
        corrected with Make-MR-Fair (ARP/IRP feasibility depends only on the
        ranking and the group schema, not the profile, so a feasible
        consensus usually needs zero swaps) and polished with the
        fairness-preserving local search over the patched ranking set —
        warm-starting the ``KemenyDeltaEngine`` + ``FairnessState`` pair
        from the previous order.  Falls back to :meth:`consensus` when no
        previous consensus exists yet.
        """
        rankings = self._require_profile()
        if self._previous is None:
            payload = self.consensus()
            return json.loads(
                canonical_json({**payload, "seeded_from": "cold-start"})
            )
        fair = make_mr_fair(self._previous, self._table, self._thresholds)
        search = fair_local_search(
            rankings,
            fair.ranking,
            self._table,
            self._thresholds,
            strategy=self._strategy or "adjacent-swap",
        )
        payload = self._repair_payload(fair, search, rankings)
        self._previous = search.ranking
        self._payload = None
        self._payload_version = -1
        return payload

    def _repair_payload(self, fair, search, rankings: RankingSet) -> dict:
        """Assemble the JSON-safe payload shared by repair and its reference."""
        consensus = search.ranking
        payload = {
            "method": self._method,
            "strategy": self._strategy,
            "seeded_from": "previous-consensus",
            "consensus": {
                "order": consensus.to_list(),
                "names": [self._table.name_of(candidate) for candidate in consensus],
            },
            "pd_loss": pd_loss(rankings, consensus),
            "parity": parity_scores(consensus, self._table),
            "diagnostics": {
                "fairness_swaps": fair.n_swaps,
                "repair_swaps": search.n_swaps,
                "repair_moves": search.n_moves,
                "repair_passes": search.n_passes,
                "repair_objective": search.objective,
            },
        }
        return json.loads(canonical_json(payload))

    # ------------------------------------------------------------------
    # from-scratch references
    # ------------------------------------------------------------------
    def rebuild(self) -> RankingSet:
        """Rebuild the current profile from scratch, sharing no caches.

        The returned set re-derives every position/precedence/margin matrix
        on demand; it is the ground truth the property tests compare the
        patched caches against, byte for byte.
        """
        rankings = self._require_profile()
        return RankingSet(
            [Ranking(ranking.order.copy()) for ranking in rankings.rankings],
            labels=list(rankings.labels),
            weights=np.array(rankings.weights, dtype=float, copy=True),
        )

    def rebuild_reference(self) -> dict:
        """From-scratch consensus payload of the current profile.

        ``rebuild + re-aggregate`` through the batch pipeline; the retained
        reference that :meth:`consensus` must match bit-for-bit.
        """
        return compute_consensus_payload(
            self.rebuild(),
            self._table,
            method=self._method,
            strategy=self._strategy,
            delta=self._thresholds,
        )

    def repair_reference(self, previous: Ranking) -> dict:
        """From-scratch update-and-repair: reference for :meth:`repair`.

        Rebuilds the profile, corrects ``previous`` with
        :func:`make_mr_fair_reference`, and polishes it with the
        from-scratch local-repair references — the same pipeline
        :meth:`repair` runs incrementally.
        """
        self._require_profile()
        rebuilt = self.rebuild()
        fair = make_mr_fair_reference(previous, self._table, self._thresholds)
        name = self._strategy or "adjacent-swap"
        if name == "adjacent-swap":
            search = fair_local_kemenization_reference(
                rebuilt, fair.ranking, self._table, self._thresholds
            )
        elif name == "insertion":
            search = fair_insertion_kemenization_reference(
                rebuilt, fair.ranking, self._table, self._thresholds
            )
        else:
            search = fair_local_search(
                rebuilt, fair.ranking, self._table, self._thresholds, strategy=name
            )
        return self._repair_payload(fair, search, rebuilt)
