"""Pairwise machinery shared by the fairness metrics and aggregators.

The MANI-Rank criteria are defined entirely in terms of *pairs* of candidates
(Section II-B of the paper):

* ``ω(X) = n(n-1)/2`` — total number of unordered pairs (Equation 2),
* ``ω_M(G) = |G| (|X| - |G|)`` — number of *mixed* pairs containing exactly one
  member of group ``G`` (Equation 3),
* the count of mixed pairs in which a group member is *favored* (appears
  higher), which feeds the FPR score (Definition 4).

Everything here is vectorised on top of a ranking's position array so the
fairness metrics are O(n) per group after the ranking is built.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.candidates import CandidateTable, Group
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import FairnessError

__all__ = [
    "total_pairs",
    "mixed_pairs",
    "total_mixed_pairs",
    "favored_mixed_pairs",
    "favored_mixed_pairs_by_group",
    "favored_mixed_pairs_by_group_naive",
    "precedence_matrix",
    "pairwise_contest_wins",
    "group_of",
]


def total_pairs(n_candidates: int) -> int:
    """Return ``ω(X) = n(n-1)/2``, the number of unordered candidate pairs."""
    if n_candidates < 0:
        raise FairnessError("n_candidates must be non-negative")
    return n_candidates * (n_candidates - 1) // 2


def mixed_pairs(group_size: int, n_candidates: int) -> int:
    """Return ``ω_M(G) = |G| * (|X| - |G|)``: pairs with exactly one group member.

    This is Equation (3) of the paper and the denominator of the FPR score.
    """
    if group_size < 0 or n_candidates < 0:
        raise FairnessError("group_size and n_candidates must be non-negative")
    if group_size > n_candidates:
        raise FairnessError(
            f"group of size {group_size} cannot exceed the universe of "
            f"{n_candidates} candidates"
        )
    return group_size * (n_candidates - group_size)


def total_mixed_pairs(group_sizes: Sequence[int], n_candidates: int) -> int:
    """Return the number of pairs joining candidates of *different* groups.

    This is Equation (4): total pairs minus the within-group pairs of every
    group of the partition described by ``group_sizes``.
    """
    sizes = list(group_sizes)
    if sum(sizes) != n_candidates:
        raise FairnessError(
            f"group sizes {sizes} do not partition {n_candidates} candidates"
        )
    within = sum(total_pairs(size) for size in sizes)
    return total_pairs(n_candidates) - within


def favored_mixed_pairs(ranking: Ranking, members: Sequence[int]) -> int:
    """Count mixed pairs in which a member of ``members`` is favored.

    A mixed pair is favored for the group when the group member appears
    *above* the non-member.  The count is the numerator of the FPR score
    (Definition 4).  Computed in O(n) using a single pass over the ranking:
    walking from best to worst, a group member at position ``p`` is favored
    over every non-member that appears after it.
    """
    n = ranking.n_candidates
    member_mask = np.zeros(n, dtype=bool)
    member_mask[np.asarray(list(members), dtype=np.int64)] = True
    ordered_membership = member_mask[ranking.order]
    # For each position, the number of non-members appearing strictly after it.
    non_members_after = np.cumsum(~ordered_membership[::-1])[::-1] - (~ordered_membership)
    return int(non_members_after[ordered_membership].sum())


def favored_mixed_pairs_by_group(
    ranking: Ranking, membership: np.ndarray, n_groups: int
) -> np.ndarray:
    """Vectorised favored-pair counts for every group of a partition.

    Parameters
    ----------
    ranking:
        The ranking to evaluate.
    membership:
        Array mapping candidate id -> group index (a partition of the
        candidates, e.g. from
        :meth:`repro.core.candidates.CandidateTable.group_membership_array`).
    n_groups:
        Number of groups in the partition.

    Returns
    -------
    numpy.ndarray
        ``counts[g]`` is the number of mixed pairs in which a member of group
        ``g`` appears above a candidate of any other group.  Two O(n)
        ``bincount`` passes cover every group at once: a member at position
        ``p`` has ``n - 1 - p`` candidates below it, and over a group of
        ``size`` members ``size * (size - 1) / 2`` of those are same-group
        pairs.  The float64 sums hold exact integers (each is below ``n**2``).
    """
    n = ranking.n_candidates
    below = np.bincount(
        membership, weights=(n - 1) - ranking.positions, minlength=n_groups
    )
    sizes = np.bincount(membership, minlength=n_groups)
    return below.astype(np.int64) - sizes * (sizes - 1) // 2


def favored_mixed_pairs_by_group_naive(
    ranking: Ranking, membership: np.ndarray, n_groups: int
) -> np.ndarray:
    """Position-by-position reference for :func:`favored_mixed_pairs_by_group`.

    The original O(n) Python loop, retained as the ground truth the property
    tests compare the vectorised kernel against.
    """
    ordered_groups = membership[ranking.order]
    n = ordered_groups.shape[0]
    counts = np.zeros(n_groups, dtype=np.int64)
    # remaining[g] = how many candidates of group g appear at or after the
    # current position while scanning best -> worst.
    remaining = np.bincount(ordered_groups, minlength=n_groups).astype(np.int64)
    for position in range(n):
        group = ordered_groups[position]
        remaining[group] -= 1
        others_after = (n - position - 1) - remaining[group]
        counts[group] += others_after
    return counts


def precedence_matrix(rankings: RankingSet, weighted: bool = False) -> np.ndarray:
    """Return the precedence matrix ``W`` of Definition 11 for a ranking set.

    Thin functional wrapper over
    :meth:`repro.core.ranking_set.RankingSet.precedence_matrix` so callers that
    work with free functions do not need to know about the caching method.
    """
    return rankings.precedence_matrix(weighted=weighted)


def pairwise_contest_wins(rankings: RankingSet, weighted: bool = False) -> np.ndarray:
    """Return, for each candidate, the number of pairwise contests it wins.

    A candidate ``a`` wins the contest against ``b`` when at least half of the
    base rankings prefer ``a`` (ties count as a win for both sides, following
    Copeland's convention as described in Section III-B).
    """
    support = rankings.pairwise_support(weighted=weighted)
    wins = (support >= support.T).astype(np.int64)
    np.fill_diagonal(wins, 0)
    return wins.sum(axis=1)


def group_of(table: CandidateTable, attribute: str, value: object) -> Group:
    """Convenience lookup of a single group; see :meth:`CandidateTable.group`."""
    return table.group(attribute, value)
