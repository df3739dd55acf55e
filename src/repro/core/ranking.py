"""Ranking data structure: a strict total order over a candidate universe.

A :class:`Ranking` is a permutation ``[x1 ≺ x2 ≺ ... ≺ xn]`` of candidate ids
``0 .. n-1`` where earlier positions are *better* (position 1 in the paper's
notation, position index 0 here).  The class keeps both the order array and
its inverse (candidate -> position) so that position lookups and pairwise
comparisons are O(1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import RankingError

__all__ = ["Ranking"]


class Ranking:
    """An immutable strict ranking (permutation) over candidates ``0..n-1``.

    Parameters
    ----------
    order:
        Candidate ids from best to worst.  Must be a permutation of
        ``0..n-1``.
    validate:
        When ``True`` (default) the permutation property is checked.  Internal
        code paths that construct rankings from verified arrays can disable
        the check for speed.
    """

    __slots__ = ("_order", "_positions")

    def __init__(self, order: Sequence[int] | np.ndarray, validate: bool = True) -> None:
        try:
            order_array = np.asarray(order, dtype=np.int64)
        except OverflowError:
            values = [int(value) for value in order]
            raise RankingError(
                "ranking must contain candidate ids 0..n-1; "
                f"got values in [{min(values)}, {max(values)}] for n={len(values)}"
            ) from None
        if order_array.ndim != 1:
            raise RankingError(
                f"a ranking must be a 1-D sequence, got shape {order_array.shape}"
            )
        n = order_array.shape[0]
        if n == 0:
            raise RankingError("a ranking must contain at least one candidate")
        if validate:
            seen = np.zeros(n, dtype=bool)
            if order_array.min(initial=0) < 0 or order_array.max(initial=0) >= n:
                raise RankingError(
                    "ranking must contain candidate ids 0..n-1; "
                    f"got values in [{order_array.min()}, {order_array.max()}] for n={n}"
                )
            seen[order_array] = True
            if not seen.all():
                missing = np.flatnonzero(~seen)[:5].tolist()
                raise RankingError(
                    f"ranking is not a permutation: candidates {missing} missing "
                    "or duplicated"
                )
        self._order = order_array
        self._order.setflags(write=False)
        positions = np.empty(n, dtype=np.int64)
        positions[order_array] = np.arange(n, dtype=np.int64)
        positions.setflags(write=False)
        self._positions = positions

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_arrays(cls, order: np.ndarray, positions: np.ndarray) -> "Ranking":
        """A ranking over a verified read-only order and its inverse.

        Neither array is checked or copied: :class:`RankingSet` builds its
        members this way from rows of its order and position matrices.
        """
        ranking = cls.__new__(cls)
        ranking._order = order
        ranking._positions = positions
        return ranking

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        """Return the identity ranking ``0 ≺ 1 ≺ ... ≺ n-1``."""
        if n <= 0:
            raise RankingError("n must be positive")
        return cls(np.arange(n, dtype=np.int64), validate=False)

    @classmethod
    def from_scores(cls, scores: Sequence[float] | np.ndarray, descending: bool = True) -> "Ranking":
        """Rank candidates by score.

        Parameters
        ----------
        scores:
            One score per candidate id; higher is better when ``descending``.
        descending:
            If ``True`` the highest score gets rank position 0.  Ties are
            broken by candidate id (lower id wins), which makes the
            construction deterministic.
        """
        score_array = np.asarray(scores, dtype=float)
        if score_array.ndim != 1 or score_array.size == 0:
            raise RankingError("scores must be a non-empty 1-D sequence")
        if np.isnan(score_array).any():
            raise RankingError("scores must not contain NaN")
        # stable sort on candidate id, then stable sort on score keeps id order
        # within ties.
        order = np.argsort(-score_array if descending else score_array, kind="stable")
        return cls(order.astype(np.int64), validate=False)

    @classmethod
    def from_positions(cls, positions: Sequence[int] | np.ndarray) -> "Ranking":
        """Build a ranking from a candidate -> position mapping (0 = best)."""
        position_array = np.asarray(positions, dtype=np.int64)
        n = position_array.shape[0]
        if n == 0 or sorted(position_array.tolist()) != list(range(n)):
            raise RankingError("positions must be a permutation of 0..n-1")
        order = np.empty(n, dtype=np.int64)
        order[position_array] = np.arange(n, dtype=np.int64)
        return cls(order, validate=False)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator | None = None) -> "Ranking":
        """Return a uniformly random ranking over ``n`` candidates."""
        generator = rng if rng is not None else np.random.default_rng()
        return cls(generator.permutation(n).astype(np.int64), validate=False)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        """Number of candidates in the ranking."""
        return int(self._order.shape[0])

    def __len__(self) -> int:
        return self.n_candidates

    @property
    def order(self) -> np.ndarray:
        """Read-only array of candidate ids from best to worst."""
        return self._order

    @property
    def positions(self) -> np.ndarray:
        """Read-only array mapping candidate id -> 0-based position."""
        return self._positions

    def position_of(self, candidate: int) -> int:
        """Return the 0-based position of ``candidate`` (0 is best)."""
        return int(self._positions[candidate])

    def rank_of(self, candidate: int) -> int:
        """Return the 1-based rank of ``candidate`` (1 is best, paper notation)."""
        return self.position_of(candidate) + 1

    def candidate_at(self, position: int) -> int:
        """Return the candidate occupying 0-based ``position``."""
        return int(self._order[position])

    def prefers(self, first: int, second: int) -> bool:
        """Return ``True`` when ``first ≺ second`` (first is ranked better)."""
        return bool(self._positions[first] < self._positions[second])

    def top(self, k: int) -> np.ndarray:
        """Return the best ``k`` candidates in order."""
        if k < 0:
            raise RankingError("k must be non-negative")
        return self._order[:k].copy()

    def __iter__(self) -> Iterator[int]:
        return iter(self._order.tolist())

    def __getitem__(self, position: int) -> int:
        return self.candidate_at(position)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def swap(self, first: int, second: int) -> "Ranking":
        """Return a new ranking with candidates ``first`` and ``second`` swapped."""
        order = self._order.copy()
        pos_first = self._positions[first]
        pos_second = self._positions[second]
        order[pos_first], order[pos_second] = second, first
        return Ranking(order, validate=False)

    def move(self, candidate: int, new_position: int) -> "Ranking":
        """Return a new ranking with ``candidate`` moved to ``new_position``."""
        if not 0 <= new_position < self.n_candidates:
            raise RankingError(
                f"new_position {new_position} out of range [0, {self.n_candidates})"
            )
        order = [c for c in self._order.tolist() if c != candidate]
        order.insert(new_position, candidate)
        return Ranking(np.asarray(order, dtype=np.int64), validate=False)

    def reversed(self) -> "Ranking":
        """Return the reverse ranking (worst becomes best)."""
        return Ranking(self._order[::-1].copy(), validate=False)

    def restricted_to(self, candidates: Iterable[int]) -> list[int]:
        """Return the candidates of ``candidates`` in the order they appear here.

        This is the projection of the ranking onto a subset of candidates,
        used, e.g., to preserve within-group orderings.
        """
        keep = set(int(c) for c in candidates)
        return [int(c) for c in self._order.tolist() if c in keep]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Yield every ordered pair ``(better, worse)`` in the ranking.

        There are ``n * (n - 1) / 2`` such pairs; iterate lazily to avoid
        materialising them for large ``n``.
        """
        order = self._order.tolist()
        for i, better in enumerate(order):
            for worse in order[i + 1 :]:
                yield better, worse

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return bool(np.array_equal(self._order, other._order))

    def __hash__(self) -> int:
        return hash(self._order.tobytes())

    def __repr__(self) -> str:
        if self.n_candidates <= 12:
            body = " > ".join(str(int(c)) for c in self._order)
        else:
            head = " > ".join(str(int(c)) for c in self._order[:6])
            body = f"{head} > ... ({self.n_candidates} candidates)"
        return f"Ranking({body})"

    def to_list(self) -> list[int]:
        """Return the order as a plain Python list of ints."""
        return [int(c) for c in self._order.tolist()]
