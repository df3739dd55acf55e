"""A set of base rankings (``R`` in the paper) produced by ``m`` rankers.

:class:`RankingSet` holds the profile as its ``m x n`` order matrix (row
``r`` lists ranking ``r``'s candidates best to worst) and the position matrix
scattered from it, over one candidate universe, and provides the aggregate
views the consensus methods consume: the precedence matrix ``W``
(Definition 11), the position matrix used by positional methods (Borda), and
per-ranking weights for weighted aggregation baselines.  The member
:class:`~repro.core.ranking.Ranking` objects are built only when asked for.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.ranking import Ranking
from repro.exceptions import RankingError, ValidationError

__all__ = ["RankingSet"]


def _scatter_positions(orders: np.ndarray) -> np.ndarray | None:
    """The position matrix of an ``m x n`` order matrix, or ``None``.

    ``positions[r, orders[r, i]] = i``.  ``None`` means some row is not a
    permutation of ``0..n-1``: an id out of range, or a repeated id, which
    leaves some candidate without a position.
    """
    m, n = orders.shape
    if orders.min() < 0 or orders.max() >= n:
        return None
    positions = np.full((m, n), -1, dtype=np.int64)
    positions[np.arange(m)[:, np.newaxis], orders] = np.arange(n, dtype=np.int64)
    if (positions < 0).any():
        return None
    return positions


class RankingSet:
    """An ordered collection of base rankings over one candidate universe.

    Parameters
    ----------
    rankings:
        The base rankings.  Every ranking must cover the same number of
        candidates.
    labels:
        Optional per-ranking labels (e.g. ranker names, exam subjects, or
        years).  Defaults to ``r1, r2, ...``.
    weights:
        Optional non-negative, finite per-ranking weights used by weighted
        consensus methods.  Defaults to uniform weight 1.
    """

    def __init__(
        self,
        rankings: Sequence[Ranking],
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
    ) -> None:
        members = tuple(rankings)
        if not members:
            raise RankingError("a ranking set must contain at least one ranking")
        self._check_members(members, members[0])
        self._adopt(
            np.stack([ranking.order for ranking in members]),
            np.stack([ranking.positions for ranking in members]),
            labels,
            weights,
        )
        self._members = members

    @staticmethod
    def _check_members(
        members: Sequence[Ranking], first: Ranking | RankingSet, start: int = 0
    ) -> None:
        """Raise unless every member is a :class:`Ranking` over as many
        candidates as ``first``.

        ``start`` is the index of ``members[0]`` in the set they will join,
        which the messages name.
        """
        for index, ranking in enumerate(members, start):
            if not isinstance(ranking, Ranking):
                raise RankingError(
                    f"item {index} is not a Ranking (got {type(ranking).__name__})"
                )
        n = first.n_candidates
        for index, ranking in enumerate(members, start):
            if ranking.n_candidates != n:
                raise RankingError(
                    "all base rankings must cover the same candidates: "
                    f"ranking 0 has {n}, ranking {index} has {ranking.n_candidates}"
                )

    def _adopt(
        self,
        orders: np.ndarray,
        positions: np.ndarray,
        labels: Sequence[str] | None,
        weights: Sequence[float] | None,
    ) -> None:
        """The one initialiser: take verified order and position matrices.

        Every constructor ends here.  ``orders`` and ``positions`` are
        ``m x n`` int64 matrices, inverse row by row; they are frozen in
        place.  Labels and weights are checked here, once for every path.
        """
        m, self._n = orders.shape
        orders.setflags(write=False)
        positions.setflags(write=False)
        self._orders = orders
        self._positions = positions
        self._members: tuple[Ranking, ...] | None = None

        if labels is not None:
            if len(labels) != m:
                raise ValidationError(f"got {len(labels)} labels for {m} rankings")
            self._labels = tuple(str(label) for label in labels)
        else:
            self._labels = tuple(f"r{i + 1}" for i in range(m))

        if weights is not None:
            weight_array = np.asarray(weights, dtype=float)
            if weight_array.shape != (m,):
                raise ValidationError(
                    f"weights must have one entry per ranking; got shape "
                    f"{weight_array.shape} for {m} rankings"
                )
            if (weight_array < 0).any():
                raise ValidationError("ranking weights must be non-negative")
            # NaN passes both neighbouring checks, and one NaN or infinite
            # weight turns every weighted precedence entry into NaN.
            if not np.isfinite(weight_array).all():
                raise ValidationError("ranking weights must be finite")
            if weight_array.sum() == 0:
                raise ValidationError("at least one ranking weight must be positive")
            self._weights = weight_array
        else:
            self._weights = np.ones(m, dtype=float)
        self._weights.setflags(write=False)

        self._precedence_cache: np.ndarray | None = None
        self._weighted_precedence_cache: np.ndarray | None = None
        self._margin_cache: np.ndarray | None = None
        self._weighted_margin_cache: np.ndarray | None = None
        self._unit_weights_cache: np.ndarray | None = None

    @classmethod
    def _from_matrices(
        cls,
        orders: np.ndarray,
        positions: np.ndarray,
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
    ) -> "RankingSet":
        """A set over verified order and position matrices (see :meth:`_adopt`)."""
        ranking_set = cls.__new__(cls)
        ranking_set._adopt(orders, positions, labels, weights)
        return ranking_set

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_orders(
        cls,
        orders: Iterable[Sequence[int]] | np.ndarray,
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
    ) -> "RankingSet":
        """Build a ranking set from raw candidate-order sequences.

        Rectangular integer input (nested lists of ints, or an integer
        matrix) becomes the order matrix in one ``np.asarray``, is validated
        in one vectorised pass, and has its positions scattered once; no
        member :class:`Ranking` is built.  Ragged input, input that is not
        all integers, and input with a row that is not a permutation take
        the per-ranking path, which raises the message of the first bad
        ranking.
        """
        if not isinstance(orders, np.ndarray):
            orders = list(orders)
        try:
            matrix = np.asarray(orders)
        except ValueError:  # ragged
            matrix = None
        if (
            matrix is not None
            and matrix.ndim == 2
            and matrix.dtype.kind == "i"
            and matrix.shape[0] > 0
            and matrix.shape[1] > 0
        ):
            # Lists went through np.asarray, which made a fresh matrix; a
            # caller's array is copied, so later mutation cannot reach the set.
            matrix = matrix.astype(np.int64, order="C", copy=matrix is orders)
            positions = _scatter_positions(matrix)
            if positions is not None:
                return cls._from_matrices(matrix, positions, labels, weights)
        rankings = [Ranking(order) for order in orders]
        return cls(rankings, labels=labels, weights=weights)

    @classmethod
    def from_position_matrix(
        cls,
        positions: np.ndarray,
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
        validate: bool = True,
        copy: bool = True,
    ) -> "RankingSet":
        """Bulk-build a ranking set from an ``m x n`` candidate-position matrix.

        Row ``r`` maps candidate id -> 0-based position in base ranking ``r``
        (the same layout :meth:`position_matrix` returns, so the two are
        inverses).  This is the fast path for batched generators such as
        :func:`repro.datagen.mallows.sample_mallows`: the order matrix is
        produced by one vectorised scatter, and the position matrix is kept
        as given, so downstream kernels (precedence matrix, batched Kendall
        tau) never re-stack per-ranking arrays.

        Parameters
        ----------
        positions:
            Integer matrix of shape ``(m, n)``; every row must be a
            permutation of ``0..n-1``.
        validate:
            When ``True`` (default) every row's permutation property is
            checked (vectorised).  Trusted internal callers can disable it.
        copy:
            When ``True`` (default) the kept matrix is decoupled from the
            caller's array, so later caller-side mutation cannot desync
            :meth:`position_matrix` from the member rankings.  Callers that
            hand over ownership of a freshly built matrix (e.g. the batched
            Mallows sampler) pass ``False`` to skip the redundant copy; the
            array is then frozen read-only in place.
        """
        position_matrix = np.ascontiguousarray(positions, dtype=np.int64)
        if copy and isinstance(positions, np.ndarray) and np.shares_memory(
            position_matrix, positions
        ):
            position_matrix = position_matrix.copy()
        if position_matrix.ndim != 2 or position_matrix.shape[1] == 0:
            raise RankingError(
                "position matrix must be 2-D with at least one candidate, "
                f"got shape {position_matrix.shape}"
            )
        m, n = position_matrix.shape
        if m == 0:
            raise RankingError("a ranking set must contain at least one ranking")
        if validate:
            # Orders and positions are inverse permutations, so the scatter
            # that turns positions into orders also validates them.
            orders = _scatter_positions(position_matrix)
            if orders is None:
                expected = np.arange(n, dtype=np.int64)
                bad = int(
                    np.flatnonzero(
                        (np.sort(position_matrix, axis=1) != expected).any(axis=1)
                    )[0]
                )
                raise RankingError(
                    f"row {bad} of the position matrix is not a permutation of 0..{n - 1}"
                )
        else:
            orders = np.empty((m, n), dtype=np.int64)
            orders[np.arange(m)[:, np.newaxis], position_matrix] = np.arange(
                n, dtype=np.int64
            )
        return cls._from_matrices(orders, position_matrix, labels, weights)

    @classmethod
    def from_score_columns(
        cls,
        score_columns: dict[str, Sequence[float]],
        descending: bool = True,
    ) -> "RankingSet":
        """Build one base ranking per score column (e.g. one per exam subject)."""
        labels = list(score_columns)
        rankings = [
            Ranking.from_scores(scores, descending=descending)
            for scores in score_columns.values()
        ]
        return cls(rankings, labels=labels)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        """Number of candidates every base ranking covers."""
        return self._n

    @property
    def n_rankings(self) -> int:
        """Number of base rankings ``|R|``."""
        return self._orders.shape[0]

    def __len__(self) -> int:
        return self._orders.shape[0]

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self.rankings)

    def __getitem__(self, index: int) -> Ranking:
        return self.rankings[index]

    @property
    def rankings(self) -> tuple[Ranking, ...]:
        """The base rankings as a tuple, built from the matrices on first use."""
        if self._members is None:
            self._members = tuple(
                Ranking._from_arrays(order, positions)
                for order, positions in zip(self._orders, self._positions)
            )
        return self._members

    def order_matrix(self) -> np.ndarray:
        """The read-only ``m x n`` order matrix: row ``r`` lists ranking
        ``r``'s candidates from best to worst."""
        return self._orders

    @property
    def labels(self) -> tuple[str, ...]:
        """Per-ranking labels."""
        return self._labels

    @property
    def weights(self) -> np.ndarray:
        """Per-ranking non-negative weights (read-only array)."""
        return self._weights

    @property
    def unit_weights(self) -> np.ndarray:
        """Cached read-only all-ones weight vector for unweighted computations.

        Kept on the set so hot callers (e.g. the batched Kendall tau) do not
        allocate a fresh ``np.ones`` array on every call.
        """
        if self._unit_weights_cache is None:
            unit = np.ones(self.n_rankings, dtype=float)
            unit.setflags(write=False)
            self._unit_weights_cache = unit
        return self._unit_weights_cache

    def with_weights(self, weights: Sequence[float]) -> "RankingSet":
        """Return a copy of this set with different per-ranking weights."""
        return RankingSet._from_matrices(
            self._orders, self._positions, self._labels, weights
        )

    def label_of(self, index: int) -> str:
        """Return the label of ranking ``index``."""
        return self._labels[index]

    # ------------------------------------------------------------------
    # aggregate matrices
    # ------------------------------------------------------------------
    #: Target byte budget for one boolean comparison block of the chunked
    #: broadcast.  A cold build holds two blocks at once (the next one is
    #: allocated before the previous one is released) beside the n x n
    #: accumulators and the narrowed positions, so its traced peak stays
    #: within 2 x budget + 18 n^2 + m n w bytes, w the position width (1 byte
    #: up to n = 256): 4.4 MiB at n = 200, m = 500.  2 MiB won a paired sweep
    #: of 256 KiB-64 MiB over both chunked kernels (docs/ARCHITECTURE.md): the
    #: n = 200, m = 500 build is ~15% faster than at 64 MiB, and smaller
    #: budgets pay an n x n reduce per few rows at n = 500 and small m.
    _CHUNK_BYTE_BUDGET = 1 << 21

    #: Most rankings one chunk of the unweighted kernel holds: it sums each
    #: chunk's comparisons in int16, which is exact up to this many rows.
    _INT16_ROWS = int(np.iinfo(np.int16).max)

    def _row_chunks(
        self, rows: np.ndarray, max_rows: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, block)`` slices of ``rows``, one ranking per row.

        Blocks are sized so the ``k x n x n`` boolean comparison tensor built
        from each stays within :data:`_CHUNK_BYTE_BUDGET` bytes, and hold at
        most ``max_rows`` rows when that is given.
        """
        rows_per_chunk = max(1, self._CHUNK_BYTE_BUDGET // max(1, self._n * self._n))
        if max_rows is not None:
            rows_per_chunk = min(rows_per_chunk, max_rows)
        for start in range(0, rows.shape[0], rows_per_chunk):
            yield start, rows[start : start + rows_per_chunk]

    def _precedence_sum(
        self, position_rows: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Summed precedence contribution of the given position rows.

        ``result[a, b]`` counts the rows in which ``b`` precedes ``a``
        (``positions[b] < positions[a]``), or sums those rows' ``weights``.
        This is the one kernel behind :meth:`precedence_matrix` (which
        describes its integer and weighted paths) and the streaming patches
        of :meth:`with_added`/:meth:`with_removed`.
        """
        n = self._n
        if weights is None:
            narrow = position_rows.astype(np.min_scalar_type(n - 1))
            counts = np.zeros((n, n), dtype=np.int64)
            for _, block in self._row_chunks(narrow, self._INT16_ROWS):
                # precedes[r, a, b] <=> positions_r[b] < positions_r[a]
                precedes = block[:, np.newaxis, :] < block[:, :, np.newaxis]
                counts += np.add.reduce(precedes, axis=0, dtype=np.int16)
            return counts.astype(float)
        matrix = np.zeros((n, n), dtype=float)
        for start, block in self._row_chunks(position_rows):
            precedes = block[:, np.newaxis, :] < block[:, :, np.newaxis]
            matrix += np.einsum(
                "r,rab->ab", weights[start : start + block.shape[0]], precedes
            )
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def precedence_matrix(self, weighted: bool = False) -> np.ndarray:
        """Return the precedence matrix ``W`` of Definition 11.

        ``W[a, b]`` counts the base rankings in which ``b`` precedes ``a``
        (i.e. the number of disagreements incurred by placing ``a`` above
        ``b`` in the consensus).  With ``weighted=True`` each ranking
        contributes its weight instead of 1.

        Computed as a chunked broadcast over the ``m x n`` position matrix —
        O(m n^2) numpy work with bounded peak memory instead of a Python loop
        over the m rankings.  The unweighted matrix is counted in narrow
        integers: positions are compared in the smallest unsigned type that
        holds ``n - 1`` (uint8 up to n = 256), each chunk of at most 32,767
        rankings is summed in int16, the chunks in int64, and the total is
        converted to float64 once.  A chunk's int16 sum cannot overflow and
        every entry is an exact integer count, so the matrix is exact for
        any ``m``.  The weighted matrix keeps a float64 ``einsum`` of each
        chunk's weights against its comparisons; with weights that are not
        dyadic rationals, where a float sum depends on its order, the chunk
        boundaries can move the last ulp of an entry (as the streaming
        patches of :meth:`with_added`/:meth:`with_removed` already can).
        Both variants are cached because several aggregators request them
        for the same (immutable) ranking set.
        """
        if weighted and self._weighted_precedence_cache is not None:
            return self._weighted_precedence_cache
        if not weighted and self._precedence_cache is not None:
            return self._precedence_cache
        matrix = self._precedence_sum(
            self.position_matrix(), self._weights if weighted else None
        )
        matrix.setflags(write=False)
        if weighted:
            self._weighted_precedence_cache = matrix
        else:
            self._precedence_cache = matrix
        return matrix

    def margin_matrix(self, weighted: bool = False) -> np.ndarray:
        """Return the pairwise margin matrix ``M = W - W^T``.

        ``M[a, b]`` is the net number of base rankings preferring ``b`` to
        ``a`` — the objective change of demoting ``a`` below ``b`` from
        adjacent positions, which is the quantity every swap-based local
        search reads per candidate move.  Cached (like the precedence matrix
        it derives from) because each
        :class:`~repro.aggregation.incremental.KemenyDeltaEngine` built over
        this set starts from it.
        """
        if weighted and self._weighted_margin_cache is not None:
            return self._weighted_margin_cache
        if not weighted and self._margin_cache is not None:
            return self._margin_cache
        precedence = self.precedence_matrix(weighted=weighted)
        margin = precedence - precedence.T
        margin.setflags(write=False)
        if weighted:
            self._weighted_margin_cache = margin
        else:
            self._margin_cache = margin
        return margin

    def kendall_tau_vector(self, ranking: Ranking) -> np.ndarray:
        """Exact Kendall tau distance from ``ranking`` to every base ranking.

        One batched O(m n^2 / chunk) computation over the position matrix
        instead of m separate merge sorts.  Positions are compared in the
        smallest unsigned type that holds ``n - 1``, as in
        :meth:`precedence_matrix`, and each ranking's disagreements are
        summed in int32 (int64 past n = 46,340); the counts are exact
        integers either way.  This is the kernel behind
        :func:`repro.core.distances.kendall_tau_to_set`.
        """
        n = self._n
        if ranking.n_candidates != n:
            raise RankingError(
                "ranking and ranking set cover different universes: "
                f"{ranking.n_candidates} vs {n} candidates"
            )
        width = np.min_scalar_type(n - 1)
        total = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        reference = ranking.positions.astype(width)
        reference_precedes = reference[:, np.newaxis] < reference[np.newaxis, :]
        distances = np.empty(self.n_rankings, dtype=np.int64)
        for start, block in self._row_chunks(self.position_matrix().astype(width)):
            precedes = block[:, :, np.newaxis] < block[:, np.newaxis, :]
            # In-place comparison keeps one k x n x n tensor live, honouring
            # the chunk byte budget.
            disagreements = np.not_equal(
                precedes, reference_precedes[np.newaxis, :, :], out=precedes
            )
            # Each disagreeing unordered pair is counted at (a, b) and (b, a).
            distances[start : start + block.shape[0]] = (
                disagreements.sum(axis=(1, 2), dtype=total) // 2
            )
        return distances

    def pairwise_support(self, weighted: bool = False) -> np.ndarray:
        """Return ``S`` with ``S[a, b]`` = number of rankings preferring ``a`` to ``b``.

        This is the transpose of :meth:`precedence_matrix` and the matrix the
        Copeland and Schulze methods reason over.
        """
        return self.precedence_matrix(weighted=weighted).T

    def position_matrix(self) -> np.ndarray:
        """Return an ``m x n`` matrix of 0-based positions.

        Row ``i`` holds the positions of every candidate in base ranking
        ``i``; used by positional methods such as Borda and footrule.  It is
        scattered from the order matrix once, when the set is built
        (read-only).
        """
        return self._positions

    def mean_positions(self) -> np.ndarray:
        """Return the average 0-based position of every candidate."""
        return self.position_matrix().mean(axis=0)

    # ------------------------------------------------------------------
    # incremental (streaming) updates
    # ------------------------------------------------------------------
    def _patched_precedence(
        self,
        cache: np.ndarray | None,
        position_rows: np.ndarray,
        row_weights: np.ndarray | None,
        sign: float,
    ) -> np.ndarray | None:
        """Patch a cached precedence matrix by +/- the given rows' contribution.

        ``row_weights`` is ``None`` for the unweighted matrix.  Returns
        ``None`` when the cache was never materialised (the child set then
        computes lazily as usual).  The patch is bit-identical to a
        from-scratch recomputation whenever every weight's contributions are
        exactly representable and accumulate without rounding — always true
        for unweighted sets (integer-valued entries) and for integer or
        dyadic-rational weights.
        """
        if cache is None:
            return None
        delta = self._precedence_sum(position_rows, row_weights)
        patched = cache + delta if sign > 0 else cache - delta
        np.fill_diagonal(patched, 0.0)
        patched.setflags(write=False)
        return patched

    @staticmethod
    def _derive_margins(child: "RankingSet") -> None:
        """Re-derive the child's margin caches from its patched precedence caches.

        Uses the same ``W - W^T`` expression as :meth:`margin_matrix`, so a
        margin derived from a bit-identical patched precedence matrix is
        itself bit-identical to the from-scratch value.
        """
        for weighted in (False, True):
            precedence = (
                child._weighted_precedence_cache if weighted else child._precedence_cache
            )
            if precedence is None:
                continue
            margin = precedence - precedence.T
            margin.setflags(write=False)
            if weighted:
                child._weighted_margin_cache = margin
            else:
                child._margin_cache = margin

    def with_added(
        self,
        rankings: Sequence[Ranking],
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
    ) -> "RankingSet":
        """Return a new set with ``rankings`` appended, patching cached matrices.

        The child's order and position matrices are the parent's with the
        new rows stacked on, and every precedence/margin cache the parent had
        materialised is patched by *adding* each new ranking's precedence
        contribution — O(k n^2) work for k added rankings instead of the
        O(m n^2) rebuild.  This is the core update primitive of the
        streaming consensus engine (:mod:`repro.streaming`); caches the
        parent never materialised stay lazy on the child.
        """
        added = list(rankings)
        if not added:
            raise RankingError("with_added needs at least one ranking")
        extra_labels = (
            list(labels)
            if labels is not None
            else [f"r{self.n_rankings + i + 1}" for i in range(len(added))]
        )
        if weights is None:
            extra_weights = np.ones(len(added), dtype=float)
        else:
            extra_weights = np.asarray(weights, dtype=float)
            if extra_weights.shape != (len(added),):
                raise ValidationError(
                    f"weights must have one entry per added ranking; got shape "
                    f"{extra_weights.shape} for {len(added)} rankings"
                )
        self._check_members(added, self, start=self.n_rankings)
        added_positions = np.stack([ranking.positions for ranking in added])
        child = RankingSet._from_matrices(
            np.concatenate([self._orders, np.stack([r.order for r in added])]),
            np.concatenate([self._positions, added_positions]),
            labels=list(self._labels) + extra_labels,
            weights=np.concatenate([self._weights, extra_weights]),
        )
        child._precedence_cache = self._patched_precedence(
            self._precedence_cache, added_positions, None, sign=1.0
        )
        child._weighted_precedence_cache = self._patched_precedence(
            self._weighted_precedence_cache, added_positions, extra_weights, sign=1.0
        )
        self._derive_margins(child)
        return child

    def with_removed(self, indexes: Sequence[int]) -> "RankingSet":
        """Return a new set without the rankings at ``indexes``, patching caches.

        The inverse of :meth:`with_added`: the child keeps the other rows of
        the matrices, and every cache the parent had materialised is patched
        by *subtracting* the removed rankings' precedence contributions
        (exact for unweighted sets and integer / dyadic weights, where every
        entry is an exactly-representable sum).  Removing every ranking is
        rejected — a :class:`RankingSet` is never empty; streaming callers
        represent the empty profile explicitly.
        """
        removal = sorted(set(int(index) for index in indexes))
        if not removal:
            raise RankingError("with_removed needs at least one index")
        for index in removal:
            if not 0 <= index < self.n_rankings:
                raise RankingError(
                    f"ranking index {index} out of range for {self.n_rankings} rankings"
                )
        keep = np.ones(self.n_rankings, dtype=bool)
        keep[removal] = False
        if not keep.any():
            raise RankingError("cannot remove every ranking from a set")
        child = RankingSet._from_matrices(
            self._orders[keep],
            self._positions[keep],
            labels=[label for label, kept in zip(self._labels, keep) if kept],
            weights=self._weights[keep],
        )
        removed_positions = self._positions[removal]
        removed_weights = self._weights[removal]
        child._precedence_cache = self._patched_precedence(
            self._precedence_cache, removed_positions, None, sign=-1.0
        )
        child._weighted_precedence_cache = self._patched_precedence(
            self._weighted_precedence_cache, removed_positions, removed_weights, sign=-1.0
        )
        self._derive_margins(child)
        return child

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def subset(self, indexes: Sequence[int]) -> "RankingSet":
        """Return a new set containing only the rankings at ``indexes``."""
        rows = [int(index) for index in indexes]
        if not rows:
            raise RankingError("cannot build an empty ranking subset")
        return RankingSet._from_matrices(
            self._orders[rows],
            self._positions[rows],
            labels=[self._labels[i] for i in rows],
            weights=self._weights[rows],
        )

    def to_order_lists(self) -> list[list[int]]:
        """Return the base rankings as plain lists of candidate ids."""
        return self._orders.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RankingSet(n_rankings={self.n_rankings}, "
            f"n_candidates={self.n_candidates})"
        )
