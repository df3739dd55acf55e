"""Incremental fairness engine: O(n_groups)-per-move MANI-Rank statistics.

Every swap-based algorithm in this codebase (Make-MR-Fair / Algorithm 2, the
local-search Kemeny heuristics, the exhaustive stall fallback) repeatedly asks
the same question: *what do the parity scores become if these two candidates
trade places?*  Answering it from scratch costs O(n · n_groups) per evaluated
move plus an O(n) :class:`~repro.core.ranking.Ranking` copy.  This module
maintains the statistics incrementally so the same question costs
O(Σ n_groups) — independent of ``n`` and of the gap between the two
positions.

**The cancellation that makes it cheap.**  Swap candidates ``u`` (position
``p_u``) and ``v`` (position ``p_v``, ``p_u < p_v``) and consider the
per-group favored-mixed-pair counts (the numerators of the FPR scores,
Definition 4).  For a third candidate ``c`` strictly between the two
positions, the pair ``(u, c)`` flips against ``u`` while the pair ``(v, c)``
flips in favor of ``v`` — so ``c``'s *group* gains one favored pair from the
first flip and loses one from the second.  Group totals of every third-party
group therefore cancel exactly, and only the groups of the two swapped
candidates change::

    favored[group(u)] -= p_v - p_u        # u falls past (p_v - p_u) rivals
    favored[group(v)] += p_v - p_u        # v rises past the same rivals

(and nothing changes when ``u`` and ``v`` share the group).  The proof is a
two-line case analysis per pair; the property tests in
``tests/fairness/test_incremental.py`` additionally verify it against the
from-scratch evaluator on randomized swap sequences.

Per-operation complexity (``E`` = fairness entities, ``G`` = groups of one
entity, ``n`` = candidates):

* construction — O(n · Σ_E G) (one vectorised favored-pair count per entity);
* :meth:`FairnessState.delta_swap` — O(Σ_E 1) to locate the two affected
  groups per entity;
* :meth:`FairnessState.parity_after_swap` /
  :meth:`FairnessState.potential_after_swap` — O(Σ_E G);
* :meth:`FairnessState.apply_swap` — O(Σ_E G), plus, for each entity whose
  sorted group position lists are built, a bisect removal and insertion in
  the two swapped candidates' groups (O(log n) search, O(group) list shift
  in C);
* :meth:`FairnessState.group_positions` — O(1) on a built list; the first
  read after construction or a block move builds the entity's lists in
  O(n);
* :meth:`FairnessState.parity_after_moves` — O(n · Σ_E G) for the whole
  target row of one candidate, in a handful of array operations (plus an
  O(n · Σ_E G) prefix-count table, built once per order);
* :meth:`FairnessState.apply_move` — O(window + Σ_E G); it drops the sorted
  position lists;
* :meth:`FairnessState.parity_scores` / :meth:`FairnessState.potential` —
  O(E) (cached per-entity floats);
* :meth:`FairnessState.to_ranking` — O(n).

All parity values are **bit-identical** to
:func:`repro.fairness.parity.parity_scores` because the engine maintains the
exact integer favored-pair counts and performs the same correctly-rounded
float divisions and max/min reductions on them.  The group-level vectors have
at most a handful of entries, so they are kept as plain Python lists — for
arrays this small, interpreter-level arithmetic is several times faster than
numpy dispatch, and ``int / int`` division produces the identical IEEE-754
double as numpy's ``int64 / int64``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence

import numpy as np

from repro.core.candidates import CandidateTable
from repro.core.pairwise import favored_mixed_pairs_by_group
from repro.core.ranking import Ranking
from repro.exceptions import FairnessError

__all__ = ["FairnessState"]


def _replace_sorted(values: list[int], old: int, new: int) -> None:
    """Replace ``old`` by ``new`` in the sorted list ``values``, keeping it sorted."""
    del values[bisect_left(values, old)]
    insort(values, new)


class _EntityStats:
    """Per-entity group structure and incrementally maintained counts.

    Group-indexed vectors (``favored``, ``denominators``, ``fpr``) and the
    sorted member positions are plain Python lists: entities have at most a
    handful of groups, where list arithmetic beats numpy dispatch by a wide
    margin in the per-move hot path.
    """

    __slots__ = (
        "name",
        "membership",
        "n_groups",
        "denominators",
        "favored",
        "group_positions",
        "parity",
        "fpr",
        "highest_index",
        "lowest_index",
    )

    def __init__(self, name: str, table: CandidateTable, ranking: Ranking) -> None:
        groups = table.groups(name)
        n = table.n_candidates
        self.name = name
        membership = table.group_membership_array(name)
        self.membership: list[int] = membership.tolist()
        self.n_groups = len(groups)
        self.denominators: list[int] = [
            group.size * (n - group.size) for group in groups
        ]
        if any(denominator == 0 for denominator in self.denominators):
            # Same failure mode (and message) as repro.fairness.fpr.fpr_vector.
            raise FairnessError(
                f"attribute {name!r} has a group covering all candidates; "
                "FPR is undefined"
            )
        self.favored: list[int] = favored_mixed_pairs_by_group(
            ranking, membership, self.n_groups
        ).tolist()
        # Sorted member positions per group, built on first use (see
        # FairnessState.group_positions) and dropped by block moves.
        self.group_positions: list[list[int]] | None = None
        self._refresh()

    def _refresh(self) -> None:
        """Recompute every group's FPR from the integer counts, then the extremes."""
        self.fpr = [
            favored / denominator
            for favored, denominator in zip(self.favored, self.denominators)
        ]
        self._refresh_extremes()

    def _refresh_extremes(self) -> None:
        """Recompute the parity and the extreme groups from the cached FPRs.

        The divisions and max/min reductions produce bit-identical values to
        :func:`repro.fairness.fpr.fpr_vector` and
        :func:`repro.fairness.parity.arp` (correctly rounded division of
        exact integers; first-occurrence argmax/argmin tie-breaking).
        """
        fpr = self.fpr
        highest = max(fpr)
        lowest = min(fpr)
        self.parity = highest - lowest
        self.highest_index = fpr.index(highest)
        self.lowest_index = fpr.index(lowest)

    def parity_after(self, group_u: int, group_v: int, gap: int) -> float:
        """ARP after moving ``gap`` favored pairs from ``group_u`` to ``group_v``.

        Only the two groups' FPRs change; the others are read from the cache.
        """
        if group_u == group_v:
            return self.parity
        favored = self.favored
        denominators = self.denominators
        fpr = self.fpr.copy()
        fpr[group_u] = (favored[group_u] - gap) / denominators[group_u]
        fpr[group_v] = (favored[group_v] + gap) / denominators[group_v]
        return max(fpr) - min(fpr)

    def apply(
        self, group_u: int, group_v: int, upper_position: int, lower_position: int
    ) -> None:
        """Commit a swap of the candidates at two positions.

        The upper candidate (group ``group_u``) falls from ``upper_position``
        to ``lower_position`` and the lower one rises the other way.  Updates
        the favored counts, the derived caches and, when built, the two
        groups' sorted position lists.
        """
        if group_u == group_v:
            return
        gap = lower_position - upper_position
        favored = self.favored
        denominators = self.denominators
        favored[group_u] -= gap
        favored[group_v] += gap
        self.fpr[group_u] = favored[group_u] / denominators[group_u]
        self.fpr[group_v] = favored[group_v] / denominators[group_v]
        self._refresh_extremes()
        if self.group_positions is not None:
            _replace_sorted(self.group_positions[group_u], upper_position, lower_position)
            _replace_sorted(self.group_positions[group_v], lower_position, upper_position)

    def sorted_positions(self, order: list[int]) -> list[list[int]]:
        """Every group's member positions in increasing order.

        Built from ``order`` in one pass on first use; :meth:`apply` keeps
        the lists sorted and a block move drops them.
        """
        if self.group_positions is None:
            lists: list[list[int]] = [[] for _ in range(self.n_groups)]
            membership = self.membership
            for position, candidate in enumerate(order):
                lists[membership[candidate]].append(position)
            self.group_positions = lists
        return self.group_positions

    def move_deltas(self, candidate: int, window: list[int], falling: bool) -> list[int]:
        """Favored-count deltas of a block move of ``candidate`` past ``window``.

        A block move re-orders exactly the pairs ``(candidate, other)`` for
        the ``other`` candidates in the window; a falling candidate loses
        every mixed pair among them to the other member's group (and a
        rising candidate gains them back), so the delta vector is the
        window's per-group membership histogram with the candidate's own
        group holding minus the mixed-pair count.
        """
        membership = self.membership
        counts = [0] * self.n_groups
        for other in window:
            counts[membership[other]] += 1
        group = membership[candidate]
        mixed = len(window) - counts[group]
        counts[group] = -mixed
        if not falling:
            counts = [-count for count in counts]
        return counts

    def apply_deltas(self, deltas: list[int]) -> None:
        """Commit per-group favored-count deltas and refresh the caches."""
        favored = self.favored
        for group, delta in enumerate(deltas):
            favored[group] += delta
        self._refresh()


class FairnessState:
    """Mutable ranking state with incrementally maintained MANI-Rank statistics.

    Holds the order and positions of a ranking plus, for every fairness
    entity (each protected attribute and the intersection), the per-group
    favored-mixed-pair counts.  Swap-based search algorithms use
    :meth:`parity_after_swap` / :meth:`potential_after_swap` to evaluate a
    candidate move in O(Σ n_groups) — *without* materialising the swapped
    ranking — and :meth:`apply_swap` to commit it.

    Parameters
    ----------
    ranking:
        Initial ranking (not modified; its arrays are copied to lists).
    table:
        Candidate table defining the protected attributes and intersection.
    """

    def __init__(self, ranking: Ranking, table: CandidateTable) -> None:
        if ranking.n_candidates != table.n_candidates:
            raise FairnessError(
                "ranking and candidate table sizes differ: "
                f"{ranking.n_candidates} vs {table.n_candidates}"
            )
        self._table = table
        self._n = table.n_candidates
        # The permutation is kept as Python lists only: every per-move read
        # and write is a scalar one, which costs several times less on a
        # list than on a numpy array.
        self._order_list: list[int] = ranking.order.tolist()
        self._positions_list: list[int] = ranking.positions.tolist()
        self._entities = table.all_fairness_entities()
        self._stats = [
            _EntityStats(entity, table, ranking) for entity in self._entities
        ]
        self._stats_by_name = {stats.name: stats for stats in self._stats}
        self._move_layout_cache: tuple[np.ndarray, ...] | None = None
        self._move_tables: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def table(self) -> CandidateTable:
        """The candidate table the statistics are defined over."""
        return self._table

    @property
    def n_candidates(self) -> int:
        """Number of candidates in the ranking."""
        return self._n

    @property
    def entities(self) -> tuple[str, ...]:
        """Fairness entity names in :meth:`CandidateTable.all_fairness_entities` order."""
        return self._entities

    @property
    def order_list(self) -> list[int]:
        """Current candidate order as a live plain-int list (scalar-read fast path)."""
        return self._order_list

    def to_ranking(self) -> Ranking:
        """Materialise the current state as an immutable :class:`Ranking`."""
        return Ranking(np.asarray(self._order_list, dtype=np.int64), validate=False)

    def favored_counts(self, entity: str) -> np.ndarray:
        """Favored-mixed-pair counts per group of ``entity`` (fresh int64 array)."""
        return np.asarray(self._stats_by_name[entity].favored, dtype=np.int64)

    def fpr_vector(self, entity: str) -> np.ndarray:
        """Current FPR per group of ``entity`` (group order of ``table.groups``).

        Built from the cache refreshed on every :meth:`apply_swap`;
        bit-identical to :func:`repro.fairness.fpr.fpr_vector`.
        """
        return np.asarray(self._stats_by_name[entity].fpr, dtype=float)

    def extreme_groups(self, entity: str) -> tuple[int, int]:
        """Indices of the highest- and lowest-FPR groups of ``entity``.

        Cached ``(argmax, argmin)`` of :meth:`fpr_vector`, with
        first-occurrence tie-breaking — exactly what Algorithm 2's move
        selection computes from scratch.
        """
        stats = self._stats_by_name[entity]
        return stats.highest_index, stats.lowest_index

    def group_positions(self, entity: str, group_index: int) -> list[int]:
        """Positions of the members of one group of ``entity``, in increasing order.

        A live list that callers must not modify: built from the current
        order on first use, kept sorted by :meth:`apply_swap` (a bisect
        removal and insertion per affected group) and rebuilt after
        :meth:`apply_move`.
        """
        return self._stats_by_name[entity].sorted_positions(self._order_list)[
            group_index
        ]

    # ------------------------------------------------------------------
    # parity queries
    # ------------------------------------------------------------------
    def parity_scores(self) -> dict[str, float]:
        """ARP per attribute plus IRP, bit-identical to
        :func:`repro.fairness.parity.parity_scores`.

        Served from the cached per-entity values in O(E); the cache is exact
        because it is refreshed from the integer counts on every
        :meth:`apply_swap`.
        """
        return {stats.name: stats.parity for stats in self._stats}

    def delta_swap(self, first: int, second: int) -> dict[str, np.ndarray]:
        """Exact per-entity favored-count deltas of swapping two candidates.

        Returns ``{entity: delta}`` where ``delta[g]`` is the change of group
        ``g``'s favored-mixed-pair count if ``first`` and ``second`` traded
        positions.  Thanks to the third-party cancellation (module docstring)
        at most two entries per entity are non-zero.  The swapped ranking is
        never materialised.
        """
        positions = self._positions_list
        gap = abs(positions[first] - positions[second])
        upper, lower = self._oriented(first, second)
        deltas: dict[str, np.ndarray] = {}
        for stats in self._stats:
            delta = np.zeros(stats.n_groups, dtype=np.int64)
            group_u = stats.membership[upper]
            group_v = stats.membership[lower]
            if group_u != group_v:
                delta[group_u] -= gap
                delta[group_v] += gap
            deltas[stats.name] = delta
        return deltas

    def parity_after_swap(self, first: int, second: int) -> dict[str, float]:
        """Parity scores of the hypothetically swapped ranking.

        Bit-identical to ``parity_scores(ranking.swap(first, second), table)``
        but O(Σ n_groups) instead of O(n · Σ n_groups) plus a ranking copy.
        """
        positions = self._positions_list
        gap = abs(positions[first] - positions[second])
        upper, lower = self._oriented(first, second)
        return {
            stats.name: stats.parity_after(
                stats.membership[upper], stats.membership[lower], gap
            )
            for stats in self._stats
        }

    def potential(self, limits: Sequence[float]) -> float:
        """Total threshold violation of the current ranking.

        ``limits`` holds each entity's threshold in :attr:`entities` order.
        Summed with the same ``sum`` expression as
        ``_violation_potential(parity_scores(), thresholds)``, so the two
        agree exactly (the builtin ``sum`` compensates rounding on Python
        3.12+).
        """
        return sum(
            max(0.0, stats.parity - limit) for stats, limit in zip(self._stats, limits)
        )

    def potential_after_swap(
        self, first: int, second: int, limits: Sequence[float]
    ) -> float:
        """Total threshold violation of the hypothetically swapped ranking.

        ``limits`` as in :meth:`potential`.  Matches
        ``_violation_potential(parity_after_swap(...), thresholds)`` exactly.
        """
        positions = self._positions_list
        gap = abs(positions[first] - positions[second])
        upper, lower = self._oriented(first, second)
        return sum(
            max(
                0.0,
                stats.parity_after(
                    stats.membership[upper], stats.membership[lower], gap
                )
                - limit,
            )
            for stats, limit in zip(self._stats, limits)
        )

    def parity_after_moves(self, candidate: int) -> dict[str, np.ndarray]:
        """Parity scores after a block move of ``candidate`` to every position.

        Returns ``{entity: parity}`` where ``parity[t]`` is the entity's
        score once the candidate is moved to position ``t`` (its own
        position gives the current score).  A block move re-orders only the
        pairs between the candidate and the shifted window, so each
        entity's favored counts change by the window's per-group
        histogram (see :meth:`_EntityStats.move_deltas`).  Every window's
        histogram is a difference of two rows of a prefix-count table
        along the current order, which makes the whole target row a few
        ``(n, Σ n_groups)`` array operations.  The counts are the same
        exact integers and the divisions the same correctly rounded ones as
        rescoring the materialised moved ranking with
        :func:`repro.fairness.parity.parity_scores`, so every entry is
        bit-identical to it.  The companion of
        :meth:`KemenyDeltaEngine.move_deltas <repro.aggregation.incremental.KemenyDeltaEngine.move_deltas>`
        for the fairness-constrained insertion search.
        """
        block_starts, group_columns, denominator_row, targets = self._move_layout()
        prefix, favored = self._current_move_tables()
        position = self._positions_list[candidate]
        falling = targets > position
        # A falling move passes order[position + 1 : t + 1]; a rising one
        # passes order[t : position], and its deltas are negated.  Shifting
        # both prefix rows by one for falling targets gives both cases (and
        # zero for t == position) in one gather.
        deltas = prefix[targets + falling] - prefix[position + falling]
        # The candidate's own group trades its in-group count for minus the
        # mixed pairs: count - |window| (falling) or its negation (rising).
        deltas[:, group_columns[candidate]] -= (targets - position)[:, np.newaxis]
        scores = (favored + deltas) / denominator_row
        parity = np.maximum.reduceat(scores, block_starts, axis=1)
        parity -= np.minimum.reduceat(scores, block_starts, axis=1)
        return {name: parity[:, index] for index, name in enumerate(self._entities)}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_swap(self, first: int, second: int) -> None:
        """Swap two candidates and update every maintained statistic.

        O(Σ n_groups): the favored-count deltas touch at most two groups per
        entity and the order/position update is O(1).  Built sorted position
        lists get one bisect removal and insertion in each of the two groups.
        """
        positions = self._positions_list
        upper, lower = self._oriented(first, second)
        upper_position = positions[upper]
        lower_position = positions[lower]
        for stats in self._stats:
            stats.apply(
                stats.membership[upper],
                stats.membership[lower],
                upper_position,
                lower_position,
            )
        self._move_tables = None
        position_first = positions[first]
        position_second = positions[second]
        self._order_list[position_first] = second
        self._order_list[position_second] = first
        positions[first] = position_second
        positions[second] = position_first

    def apply_move(self, candidate: int, new_position: int) -> None:
        """Move ``candidate`` to ``new_position`` and update every statistic.

        O(window + Σ n_groups); a no-op when the candidate already sits at
        the target position.  The sorted position lists are dropped and
        rebuilt on their next read.
        """
        window, falling = self._move_window(candidate, new_position)
        if not window:
            return
        for stats in self._stats:
            stats.apply_deltas(stats.move_deltas(candidate, window, falling))
            stats.group_positions = None
        self._move_tables = None
        order = self._order_list
        positions = self._positions_list
        old_position = positions[candidate]
        order.pop(old_position)
        order.insert(new_position, candidate)
        low = min(old_position, new_position)
        high = max(old_position, new_position)
        for position in range(low, high + 1):
            positions[order[position]] = position

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _move_layout(self) -> tuple[np.ndarray, ...]:
        """Every entity's groups side by side in one table, for move queries.

        Returns ``(block_starts, group_columns, denominator_row, targets)``:
        entity i owns the columns from ``block_starts[i]`` up to the next
        start, ``group_columns[c, i]`` is candidate c's column there,
        ``denominator_row`` holds each column's FPR denominator and
        ``targets`` the positions 0..n-1.  Built on the first move query;
        Make-MR-Fair and the adjacent repair never make one.
        """
        if self._move_layout_cache is None:
            sizes = [stats.n_groups for stats in self._stats]
            block_starts = np.cumsum([0, *sizes[:-1]])
            group_columns = np.stack(
                [
                    np.asarray(stats.membership, dtype=np.int64) + start
                    for stats, start in zip(self._stats, block_starts)
                ],
                axis=1,
            )
            denominator_row = np.asarray(
                [value for stats in self._stats for value in stats.denominators],
                dtype=np.int64,
            )
            targets = np.arange(self._n, dtype=np.int64)
            self._move_layout_cache = (
                block_starts,
                group_columns,
                denominator_row,
                targets,
            )
        return self._move_layout_cache

    def _current_move_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Prefix group counts along the current order, and the favored row.

        ``prefix[k, c]`` counts the candidates of group column ``c`` among
        the first ``k`` positions.  Both arrays depend only on the current
        order, so they are built on first use and dropped by every
        mutation.
        """
        if self._move_tables is None:
            n = self._n
            _, group_columns, denominator_row, targets = self._move_layout()
            counts = np.zeros((n, denominator_row.size), dtype=np.int64)
            counts[targets[:, np.newaxis], group_columns[self._order_list]] = 1
            prefix = np.zeros((n + 1, counts.shape[1]), dtype=np.int64)
            np.cumsum(counts, axis=0, out=prefix[1:])
            favored = np.asarray(
                [count for stats in self._stats for count in stats.favored],
                dtype=np.int64,
            )
            self._move_tables = (prefix, favored)
        return self._move_tables

    def _move_window(self, candidate: int, new_position: int) -> tuple[list[int], bool]:
        """The candidates a block move shifts past, and the move's direction.

        Returns ``(window, falling)`` where ``falling`` is ``True`` when the
        candidate moves towards the bottom; an in-place move yields an empty
        window.
        """
        if not 0 <= new_position < self._n:
            raise FairnessError(
                f"move target {new_position} outside positions 0..{self._n - 1}"
            )
        old_position = self._positions_list[candidate]
        if new_position > old_position:
            return self._order_list[old_position + 1 : new_position + 1], True
        return self._order_list[new_position:old_position], False

    def _oriented(self, first: int, second: int) -> tuple[int, int]:
        """Return ``(upper, lower)`` with ``upper`` the better-ranked candidate."""
        if self._positions_list[first] <= self._positions_list[second]:
            return first, second
        return second, first
