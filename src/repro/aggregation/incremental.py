"""Incremental Kemeny-delta engine: O(1)/O(window) objective deltas for local search.

Every local-search consensus path in this codebase (the local-Kemenization
post-processing step, :class:`~repro.aggregation.local_search.LocalSearchKemenyAggregator`,
and the fairness-preserving local repair in :mod:`repro.fair.local_repair`)
repeatedly asks the same question: *what does the Kemeny objective become if
this move is applied?*  The objective of a concrete permutation is

    K(pi) = sum over ordered pairs (a above b in pi) of W[a, b]

where ``W`` is the cached precedence matrix (Definition 11; ``W[a, b]``
counts the base rankings placing ``b`` before ``a``).  Re-evaluating it from
scratch costs O(n^2); this engine maintains it incrementally so that the
standard local-search moves cost:

* **adjacent swap** — O(1).  Swapping the candidates at positions ``p`` and
  ``p + 1`` only re-orders one pair ``(u, l)``, so the objective changes by
  ``W[l, u] - W[u, l]``, i.e. by minus the *margin* ``M[u, l]`` where
  ``M = W - W^T``;
* **general swap** — O(window).  Swapping candidates ``u`` (position ``p_u``)
  and ``v`` (position ``p_v > p_u``) re-orders only the pairs each of them
  forms with the candidates strictly between the two positions, plus the pair
  ``(u, v)`` itself:  ``delta = sum_c (M[v, c] - M[u, c]) - M[u, v]`` over the
  in-between candidates ``c``;
* **block move** — O(window).  Moving one candidate ``x`` from position ``p``
  to position ``q`` shifts the block between the two positions by one and
  re-orders exactly the pairs ``(x, c)`` for ``c`` in that block:
  ``delta = sum_c M[x, c]`` when ``x`` rises (``q < p``) and
  ``- sum_c M[x, c]`` when it falls.

**The bubble pass as carry runs.**  :meth:`KemenyDeltaEngine.sweep_adjacent`
performs one full left-to-right local-Kemenization pass (swap whenever the
adjacent margin is positive), reproducing byte-for-byte the decisions of the
retained from-scratch pass in
:func:`repro.aggregation.local_search.local_kemenization_reference`.  The key
structural fact: within one pass, consecutive swaps always chain the *same*
falling candidate — once the pair at ``p`` swaps, the demoted candidate is
compared against the next element, and so on until it finally wins a
comparison.  A pass therefore decomposes into a handful of *carry runs*, and
each run is resolved with one vectorised gather of the carried candidate's
margin row against the untouched tail of the order (the first non-positive
entry ends the run), one slice shift, and an O(1) patch of the maintained
"improving adjacent pair" mask.  Converged inputs cost a single O(n) mask
check and no Python loop; a pass with ``r`` runs costs O(r) numpy calls
instead of ``n - 1`` scalar matrix reads.

**Exactness.**  For unweighted ranking sets every entry of ``W`` (and hence of
``M``) is an integer-valued float, so the running objective is maintained by
exact integer-valued additions and stays **bit-identical** to recomputing
:func:`repro.core.distances.kemeny_objective` on the materialised ranking (all
values are far below 2^53).  The property tests in
``tests/aggregation/test_kemeny_delta_engine.py`` drive randomized swap / block-move
sequences through the engine and assert exactly that, mirroring the
``FairnessState`` contract of :mod:`repro.fairness.incremental`.  For weighted
precedence matrices the deltas are still exact in the algebraic sense but
float rounding may differ from a from-scratch evaluation; callers that need
bit-identity should recompute at the end.
"""

from __future__ import annotations

import numpy as np

from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError

__all__ = ["KemenyDeltaEngine"]


class KemenyDeltaEngine:
    """Mutable ranking state with an incrementally maintained Kemeny objective.

    Parameters
    ----------
    rankings:
        The base rankings — either a :class:`RankingSet` (its cached
        precedence matrix is used; with ``weighted=True`` the weighted
        variant) or a precomputed square precedence matrix.
    initial:
        The starting ranking (not modified; its arrays are copied).
    weighted:
        Use the ranking-set weights when building the precedence matrix.
        Ignored when ``rankings`` is already a matrix.
    """

    def __init__(
        self,
        rankings: RankingSet | np.ndarray,
        initial: Ranking,
        weighted: bool = False,
    ) -> None:
        if isinstance(rankings, RankingSet):
            precedence = rankings.precedence_matrix(weighted=weighted)
            margin = rankings.margin_matrix(weighted=weighted)
        else:
            precedence = np.asarray(rankings, dtype=float)
            if precedence.ndim != 2 or precedence.shape[0] != precedence.shape[1]:
                raise AggregationError(
                    "precedence matrix must be square, got shape "
                    f"{precedence.shape}"
                )
            margin = precedence - precedence.T
            margin.setflags(write=False)
        n = precedence.shape[0]
        if initial.n_candidates != n:
            raise AggregationError(
                "initial ranking and precedence matrix cover different "
                f"universes: {initial.n_candidates} vs {n} candidates"
            )
        self._n = n
        self._precedence = precedence
        self._margin = margin
        self._order_array = initial.order.astype(np.int64, copy=True)
        self._order_list: list[int] = self._order_array.tolist()
        self._order_dirty = False
        self._positions_list: list[int] = initial.positions.tolist()
        self._positions_dirty = False
        # Everything O(n^2) (the objective) or O(n) but sweep-specific (the
        # improving-pair mask) is built lazily: the common already-converged
        # sweep must cost one O(n) gather, not an up-front quadratic build.
        self._objective_cache: float | None = None
        self._sweep_mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    # lazy internals
    # ------------------------------------------------------------------
    def _order(self) -> list[int]:
        """Candidate-order list, rebuilt lazily after sweep shifts.

        The sweep operates on the numpy order array alone (its shifts are
        C-speed slice copies); point-mutation paths keep both mirrors in sync
        and only pay the O(n) rebuild when they follow a sweep.
        """
        if self._order_dirty:
            self._order_list = self._order_array.tolist()
            self._order_dirty = False
        return self._order_list

    def _positions(self) -> list[int]:
        """Candidate -> position list, rebuilt lazily after sweep shifts."""
        if self._positions_dirty:
            positions = np.empty(self._n, dtype=np.int64)
            positions[self._order_array] = np.arange(self._n, dtype=np.int64)
            self._positions_list = positions.tolist()
            self._positions_dirty = False
        return self._positions_list

    def _add_to_objective(self, delta: float) -> None:
        """Fold an applied move's delta into the running objective, if built.

        When the objective has not been queried yet there is nothing to
        maintain — the lazy computation reads the *current* order, so skipped
        deltas are already reflected in it.
        """
        if self._objective_cache is not None:
            self._objective_cache += delta

    def _invalidate_sweep_mask(self) -> None:
        if self._sweep_mask is not None:
            self._sweep_mask = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        """Number of candidates in the ranking."""
        return self._n

    @property
    def objective(self) -> float:
        """Current Kemeny objective (summed pairwise disagreement) of the order.

        Computed on first access with the same masked-sum expression as
        :func:`repro.core.distances.kemeny_objective` (so the value is
        bit-identical to the from-scratch evaluator) and maintained
        incrementally from then on.
        """
        if self._objective_cache is None:
            positions = np.asarray(self._positions(), dtype=np.int64)
            above = positions[:, np.newaxis] < positions[np.newaxis, :]
            self._objective_cache = float(self._precedence[above].sum())
        return self._objective_cache

    @property
    def order_list(self) -> list[int]:
        """Current candidate order, best to worst (live internal list)."""
        return self._order()

    @property
    def positions_list(self) -> list[int]:
        """Current candidate -> position mapping (live internal list)."""
        return self._positions()

    @property
    def precedence(self) -> np.ndarray:
        """The precedence matrix the objective is defined over."""
        return self._precedence

    def to_ranking(self) -> Ranking:
        """Materialise the current order as an immutable :class:`Ranking`."""
        return Ranking(self._order_array.copy(), validate=False)

    def margin(self, first: int, second: int) -> float:
        """``W[first, second] - W[second, first]`` (positive: ``first`` above
        ``second`` costs more than the reverse)."""
        return float(self._margin[first, second])

    def adjacent_margins(self) -> list[float]:
        """``margin(order[p], order[p + 1])`` for every position ``p``.

        One O(n) gather along the current order, for passes that read every
        adjacent pair and usually accept no swap.
        """
        order = self._order_array
        return self._margin[order[:-1], order[1:]].tolist()

    # ------------------------------------------------------------------
    # adjacent swaps (O(1))
    # ------------------------------------------------------------------
    def delta_adjacent_swap(self, position: int) -> float:
        """Objective change of swapping the candidates at ``position`` and
        ``position + 1`` (negative: the swap improves the consensus)."""
        order = self._order()
        upper = order[position]
        lower = order[position + 1]
        return float(self._margin[lower, upper])

    def apply_adjacent_swap(self, position: int) -> float:
        """Swap positions ``position``/``position + 1``; return the applied delta."""
        order = self._order()
        positions = self._positions()
        upper = order[position]
        lower = order[position + 1]
        delta = float(self._margin[lower, upper])
        order[position] = lower
        order[position + 1] = upper
        self._order_array[position] = lower
        self._order_array[position + 1] = upper
        positions[upper] = position + 1
        positions[lower] = position
        self._add_to_objective(delta)
        self._invalidate_sweep_mask()
        return delta

    # ------------------------------------------------------------------
    # general swaps (O(window))
    # ------------------------------------------------------------------
    def delta_swap(self, first: int, second: int) -> float:
        """Objective change of swapping candidates ``first`` and ``second``.

        O(window) in the number of candidates strictly between the two
        positions; the swapped ranking is never materialised.
        """
        if first == second:
            return 0.0
        positions = self._positions()
        if positions[first] <= positions[second]:
            upper, lower = first, second
        else:
            upper, lower = second, first
        position_upper = positions[upper]
        position_lower = positions[lower]
        delta = -self._margin[upper, lower]
        if position_lower - position_upper > 1:
            margin = self._margin
            window = self._order_array[position_upper + 1 : position_lower]
            delta += float((margin[lower, window] - margin[upper, window]).sum())
        return float(delta)

    def apply_swap(self, first: int, second: int) -> float:
        """Swap two candidates; return the applied objective delta."""
        delta = self.delta_swap(first, second)
        if first != second:
            order = self._order()
            positions = self._positions()
            position_first = positions[first]
            position_second = positions[second]
            order[position_first] = second
            order[position_second] = first
            self._order_array[position_first] = second
            self._order_array[position_second] = first
            positions[first] = position_second
            positions[second] = position_first
            self._add_to_objective(delta)
            self._invalidate_sweep_mask()
        return delta

    # ------------------------------------------------------------------
    # block moves (O(window))
    # ------------------------------------------------------------------
    def delta_move(self, candidate: int, new_position: int) -> float:
        """Objective change of moving ``candidate`` to ``new_position``.

        The candidates between the old and new position shift by one
        (a standard insertion move); cost is O(window).
        """
        if not 0 <= new_position < self._n:
            raise AggregationError(
                f"move target {new_position} outside positions 0..{self._n - 1}"
            )
        old_position = self._positions()[candidate]
        if new_position == old_position:
            return 0.0
        margin = self._margin
        if new_position < old_position:
            window = self._order_array[new_position:old_position]
            return float(margin[candidate, window].sum())
        window = self._order_array[old_position + 1 : new_position + 1]
        return -float(margin[candidate, window].sum())

    def apply_move(self, candidate: int, new_position: int) -> float:
        """Move ``candidate`` to ``new_position``; return the applied delta."""
        delta = self.delta_move(candidate, new_position)
        old_position = self._positions()[candidate]
        if new_position != old_position:
            order = self._order()
            positions = self._positions_list
            order.pop(old_position)
            order.insert(new_position, candidate)
            low = min(old_position, new_position)
            high = max(old_position, new_position)
            self._order_array[low : high + 1] = order[low : high + 1]
            for position in range(low, high + 1):
                positions[order[position]] = position
            self._add_to_objective(delta)
            self._invalidate_sweep_mask()
        return delta

    def move_deltas(self, candidate: int) -> np.ndarray:
        """Objective change of moving ``candidate`` to *every* target position.

        One vectorised gather of the candidate's margin row against the
        current order; entry ``q`` equals ``delta_move(candidate, q)``
        (``0.0`` at the current position).  Writing ``g`` for the gathered
        row and ``P`` for its prefix sums, a move from position ``p`` costs
        ``P[p] - P[q]`` when rising and ``P[p + 1] - P[q + 1]`` when falling
        — so the whole row of targets is scored in O(n) with no Python loop.

        For unweighted ranking sets every value is an exact integer-valued
        float and matches :meth:`delta_move` bit for bit; for weighted
        matrices the prefix-sum differences may round differently from the
        window sums, so treat the entries as scores, not committed deltas
        (:meth:`apply_move` always recomputes the applied delta).
        """
        position = self._positions()[candidate]
        gathered = self._margin[candidate, self._order_array]
        prefix = np.empty(self._n + 1, dtype=float)
        prefix[0] = 0.0
        np.cumsum(gathered, out=prefix[1:])
        deltas = np.empty(self._n, dtype=float)
        deltas[: position + 1] = prefix[position] - prefix[: position + 1]
        deltas[position + 1 :] = prefix[position + 1] - prefix[position + 2 :]
        return deltas

    def best_move(self, candidate: int) -> tuple[float, int]:
        """Best-improvement insertion target for ``candidate``.

        Returns ``(delta, position)`` for the target position minimising the
        objective change (ties broken towards the smallest position, matching
        ``argmin``); ``delta >= 0.0`` means no insertion move of this
        candidate improves the consensus.
        """
        deltas = self.move_deltas(candidate)
        best = int(deltas.argmin())
        return float(deltas[best]), best

    # ------------------------------------------------------------------
    # local-Kemenization bubble pass
    # ------------------------------------------------------------------
    def sweep_adjacent(self) -> bool:
        """One left-to-right local-Kemenization pass; ``True`` if it swapped.

        Identical decisions to the retained from-scratch pass in
        :func:`repro.aggregation.local_search.local_kemenization_reference`
        (see the module docstring for the carry-run decomposition argument):

        * the maintained mask marks the adjacent pairs whose swap strictly
          improves the objective; a pass that finds none is free of Python
          loops (and repeated sweeps reuse the mask — it is patched in O(1)
          per run and only rebuilt after out-of-band mutations);
        * each carry run gathers the carried candidate's margin row against
          the untouched tail once; the first non-positive entry is exactly
          where the reference's scalar scan stops swapping;
        * the scan resumes after the run at the next marked pair — pairs the
          run skipped were unmarked originals, on which the reference scan
          would not have swapped either.
        """
        if self._n < 2:
            return False
        mask = self._sweep_mask
        order_array = self._order_array
        margin = self._margin
        if mask is None:
            gathered = margin[order_array[:-1], order_array[1:]]
            mask = gathered > 0.0
            self._sweep_mask = mask
        p = int(mask.argmax())
        if not mask[p]:
            return False
        n = self._n
        # Accumulating the pass's improvement costs one extra slice-sum per
        # run; skip it while the lazy objective has never been queried (it
        # would be recomputed from the final order anyway).
        track_objective = self._objective_cache is not None
        improvement = 0.0
        while True:
            carry = int(order_array[p])
            tail = order_array[p + 1 :]
            losses = margin[carry, tail]
            stops = losses <= 0.0
            stop_index = int(stops.argmax())
            run_length = stop_index if stops[stop_index] else tail.shape[0]
            # run_length >= 1: the pair at p was marked improving.
            q = p + run_length
            if track_objective:
                improvement += float(losses[:run_length].sum())
            order_array[p:q] = order_array[p + 1 : q + 1]
            order_array[q] = carry
            # Patch the mask.  Pairs p..q-2 are the old pairs p+1..q-1
            # shifted left.  Pair q-1 is (old order[q], carry): the carry
            # lost against old order[q], so the reverse margin is negative.
            # Pair q is (carry, old order[q+1]): the carry won, so not
            # improving.  Pair p-1 gained a new right-hand element and is
            # recomputed (the scan already passed it; the patch is for the
            # next pass).
            mask[p : q - 1] = mask[p + 1 : q]
            mask[q - 1] = False
            if q < n - 1:
                mask[q] = False
            if p > 0:
                mask[p - 1] = margin[order_array[p - 1], order_array[p]] > 0.0
            # Resume the scan at the next marked pair after the run.
            remainder = mask[q + 1 :]
            if remainder.size == 0:
                break
            offset = int(remainder.argmax())
            if not remainder[offset]:
                break
            p = q + 1 + offset
        self._order_dirty = True
        self._positions_dirty = True
        if track_objective:
            self._add_to_objective(-improvement)
        return True
