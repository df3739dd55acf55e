"""Shared machinery for the paper-reproduction experiments.

The experiment modules (one per paper table / figure) share four things:

* a *scale* preset — ``"ci"`` for the sizes exercised by the automated
  benchmark suite, ``"paper"`` for sizes matching the publication (larger and
  slower, in particular for the exact-ILP methods where the paper used
  CPLEX); every module documents its own per-scale parameters;
* :func:`evaluate_method` — run one fair method on one dataset and collect
  fairness, representation, and runtime measurements in a flat record;
* :func:`theta_sweep_datasets` — build the Mallows datasets for a θ sweep
  with a fairness-controlled modal ranking (the Section IV-A methodology);
* :class:`ScenarioGrid` — the batched scenario sweep the scalability
  experiments (Figures 6–7, Tables II–III) run on: every experiment cell is a
  ``(n_candidates, n_rankings, θ, group-composition)`` tuple, the grid
  materialises each cell's candidate table / calibrated modal ranking /
  batched Mallows sample once, shares them across cells via caches, and wraps
  every cell callback with timing so each record carries both the data
  generation and the evaluation cost.

The runtimes :func:`evaluate_method` reports for the fair methods are those
of Make-MR-Fair on the incremental fairness engine
(:mod:`repro.fairness.incremental`): the scalability experiments (Figures 6–7,
Tables II–III) exercise the engine's O(n_groups)-per-swap hot path rather
than from-scratch parity recomputation, which is what makes the larger
candidate/ranker regimes tractable at CI time.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.datagen.fair_modal import MallowsFairnessDataset, generate_mallows_dataset
from repro.exceptions import ExperimentError
from repro.fair.base import FairRankAggregator
from repro.fairness.parity import parity_scores
from repro.fairness.pd_loss import pd_loss, price_of_fairness
from repro.fairness.thresholds import FairnessThresholds

__all__ = [
    "SCALES",
    "require_scale",
    "MethodEvaluation",
    "evaluate_method",
    "theta_sweep_datasets",
    "DEFAULT_THETAS",
    "ScenarioCell",
    "ScenarioData",
    "ScenarioGrid",
    "evaluate_labelled_cell",
]

#: Supported scale presets.
SCALES = ("ci", "paper")

#: θ values swept by the synthetic experiments (Figures 3–5).
DEFAULT_THETAS = (0.2, 0.4, 0.6, 0.8)


def require_scale(scale: str) -> str:
    """Validate a scale preset name and return it normalised."""
    key = scale.strip().lower()
    if key not in SCALES:
        raise ExperimentError(
            f"unknown scale {scale!r}; expected one of {', '.join(SCALES)}"
        )
    return key


@dataclass(frozen=True)
class MethodEvaluation:
    """Measurements of one fair method on one dataset."""

    method: str
    ranking: Ranking
    parity: dict[str, float]
    pd_loss: float
    price_of_fairness: float | None
    runtime_seconds: float


def evaluate_method(
    method: FairRankAggregator,
    rankings: RankingSet,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    reference_unaware: Ranking | None = None,
) -> MethodEvaluation:
    """Run ``method`` and measure fairness, PD loss, PoF, and wall-clock runtime.

    Parameters
    ----------
    reference_unaware:
        Fairness-unaware consensus used for the Price of Fairness.  When
        omitted, the method's own seed consensus (if it reports one) is used;
        methods without a seed report ``None``.
    """
    start = time.perf_counter()
    result = method.aggregate_with_diagnostics(rankings, table, delta)
    elapsed = time.perf_counter() - start
    baseline = reference_unaware if reference_unaware is not None else result.unaware_ranking
    pof = (
        price_of_fairness(rankings, result.ranking, baseline)
        if baseline is not None
        else None
    )
    return MethodEvaluation(
        method=method.name,
        ranking=result.ranking,
        parity=parity_scores(result.ranking, table),
        pd_loss=pd_loss(rankings, result.ranking),
        price_of_fairness=pof,
        runtime_seconds=elapsed,
    )


def theta_sweep_datasets(
    table: CandidateTable,
    profile: str | Mapping[str, float],
    thetas: Sequence[float],
    n_rankings: int,
    seed: int,
    name: str | None = None,
) -> list[MallowsFairnessDataset]:
    """One Mallows dataset per θ value, all sharing the same modal ranking.

    The modal ranking is built once (from ``seed``) so the sweep isolates the
    effect of consensus strength; each θ gets an independent sampling stream
    derived from the same seed sequence.
    """
    datasets: list[MallowsFairnessDataset] = []
    seed_sequence = np.random.SeedSequence(seed)
    children = seed_sequence.spawn(len(thetas) + 1)
    modal_rng = np.random.default_rng(children[0])
    base = generate_mallows_dataset(
        table, profile, theta=float(thetas[0]), n_rankings=n_rankings,
        rng=modal_rng, name=name,
    )
    datasets.append(base)
    for index, theta in enumerate(thetas[1:], start=1):
        rng = np.random.default_rng(children[index])
        from repro.datagen.mallows import sample_mallows  # local import to avoid cycle

        rankings = sample_mallows(base.modal, float(theta), n_rankings, rng=rng)
        datasets.append(
            MallowsFairnessDataset(
                name=base.name,
                table=table,
                modal=base.modal,
                theta=float(theta),
                rankings=rankings,
                modal_parity=base.modal_parity,
            )
        )
    return datasets


def _canonical_targets(
    modal_targets: Mapping[str, float] | tuple[tuple[str, float], ...],
) -> tuple[tuple[str, float], ...]:
    """Canonical (sorted, typed) tuple form of per-attribute parity targets.

    Shared by :meth:`ScenarioCell.build` and the grid caches so keys built
    from either a mapping or an existing tuple always match.
    """
    if isinstance(modal_targets, Mapping):
        items = modal_targets.items()
    else:
        items = modal_targets
    return tuple(sorted((str(key), float(value)) for key, value in items))


@dataclass(frozen=True)
class ScenarioCell:
    """One cell of a scenario sweep: a workload the experiments measure once.

    A cell fixes the synthetic-data axes of Section IV — candidate count,
    ranking count, Mallows spread ``θ``, and the group composition via the
    modal ranking's per-attribute parity targets — plus any experiment-local
    parameters (method label, Δ, ...) that do not change the generated data.
    Cells are hashable so the grid can key its kernel caches on them.
    """

    n_candidates: int
    n_rankings: int
    theta: float
    modal_targets: tuple[tuple[str, float], ...]
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def build(
        cls,
        n_candidates: int,
        n_rankings: int,
        theta: float,
        modal_targets: Mapping[str, float],
        **params: object,
    ) -> "ScenarioCell":
        """Build a cell from plain mappings (sorted into canonical tuples)."""
        return cls(
            n_candidates=int(n_candidates),
            n_rankings=int(n_rankings),
            theta=float(theta),
            modal_targets=_canonical_targets(modal_targets),
            params=tuple(sorted(params.items())),
        )

    @property
    def extras(self) -> dict[str, object]:
        """The experiment-local parameters as a plain dictionary."""
        return dict(self.params)


@dataclass(frozen=True)
class ScenarioData:
    """Materialised inputs of one :class:`ScenarioCell`.

    ``datagen_seconds`` is the wall-clock time spent building *this* cell's
    inputs; cells served entirely from the grid caches report (close to) 0.
    """

    cell: ScenarioCell
    table: CandidateTable
    modal: Ranking
    rankings: RankingSet
    datagen_seconds: float


class ScenarioGrid:
    """Batched (n, m, θ, group-composition) sweep with shared cached kernels.

    The scalability experiments all walk a grid of workload cells and run
    some measurement on each.  Materialising a cell costs three kernels —
    the candidate table, the calibrated modal ranking (a bisection over
    parity evaluations), and the batched Mallows sample — and consecutive
    cells typically share most of them (Figure 6 sweeps ``m`` at fixed
    ``n``; Figure 7 sweeps Δ at fixed data).  The grid caches each kernel
    by its defining axes so every distinct (table, modal, sample) is built
    exactly once per sweep, and stamps each record with per-cell timing.

    Determinism: the table and modal ranking derive from ``seed`` alone
    (matching the former per-module idiom), while each distinct
    ``(n_candidates, n_rankings, θ, group-composition)`` workload gets its
    own sampling stream via a :class:`numpy.random.SeedSequence` spawned
    from ``seed`` plus the full cache key, so cells are reproducible
    independently of sweep order and no two distinct workloads share a
    uniform stream (sharing would make e.g. a θ sweep's datasets comonotone
    instead of independent).
    """

    def __init__(self, cells: Sequence[ScenarioCell], seed: int = 2022) -> None:
        self.cells = list(cells)
        if not self.cells:
            raise ExperimentError("a scenario grid needs at least one cell")
        self.seed = int(seed)
        self._tables: dict[int, CandidateTable] = {}
        self._modals: dict[tuple, Ranking] = {}
        self._rankings: dict[tuple, RankingSet] = {}

    @classmethod
    def product(
        cls,
        candidate_counts: Sequence[int],
        ranking_counts: Sequence[int],
        thetas: Sequence[float],
        modal_targets: Mapping[str, float],
        param_grid: Mapping[str, Sequence[object]] | None = None,
        seed: int = 2022,
    ) -> "ScenarioGrid":
        """Cartesian-product grid over the data axes and extra parameter axes.

        Cells are ordered with the data axes outermost (candidates, then
        rankings, then θ) and the ``param_grid`` axes innermost, so parameter
        variations of one workload run back-to-back on fully cached data.
        """
        names = list(param_grid) if param_grid else []
        value_lists = [list(param_grid[name]) for name in names] if param_grid else []
        cells = [
            ScenarioCell.build(
                n, m, theta, modal_targets,
                **dict(zip(names, combination)),
            )
            for n in candidate_counts
            for m in ranking_counts
            for theta in thetas
            for combination in (product(*value_lists) if names else ((),))
        ]
        return cls(cells, seed=seed)

    # ------------------------------------------------------------------
    # cached kernels
    # ------------------------------------------------------------------
    def table_for(self, n_candidates: int) -> CandidateTable:
        """The (cached) candidate table for an ``n_candidates`` workload."""
        from repro.datagen.attributes import scalability_table

        if n_candidates not in self._tables:
            self._tables[n_candidates] = scalability_table(n_candidates, rng=self.seed)
        return self._tables[n_candidates]

    def modal_for(
        self,
        n_candidates: int,
        modal_targets: Mapping[str, float] | tuple[tuple[str, float], ...],
    ) -> Ranking:
        """The (cached) calibrated modal ranking for one group composition."""
        from repro.datagen.fair_modal import calibrated_modal_ranking

        modal_targets = _canonical_targets(modal_targets)
        key = (n_candidates, modal_targets)
        if key not in self._modals:
            self._modals[key] = calibrated_modal_ranking(
                self.table_for(n_candidates), dict(modal_targets), rng=self.seed
            )
        return self._modals[key]

    @staticmethod
    def _rankings_key(cell: ScenarioCell) -> tuple:
        return (cell.n_candidates, cell.n_rankings, cell.theta, cell.modal_targets)

    def _cell_rng(self, cell: ScenarioCell) -> np.random.Generator:
        """An independent, sweep-order-free sampling stream for one workload.

        The SeedSequence entropy is the grid seed plus every data axis
        (θ mapped through its exact IEEE-754 bits, the group composition
        through a stable digest), so distinct workloads never share a
        stream and the same cell always reproduces the same sample.
        """
        import struct
        import zlib

        theta_bits = int.from_bytes(struct.pack("<d", cell.theta), "little")
        target_bits = zlib.crc32(repr(cell.modal_targets).encode("utf-8"))
        entropy = [
            self.seed,
            cell.n_candidates,
            cell.n_rankings,
            theta_bits,
            target_bits,
        ]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def rankings_for(self, cell: ScenarioCell) -> RankingSet:
        """The (cached) batched Mallows sample for one cell's data axes."""
        from repro.datagen.mallows import sample_mallows

        key = self._rankings_key(cell)
        if key not in self._rankings:
            modal = self.modal_for(cell.n_candidates, cell.modal_targets)
            self._rankings[key] = sample_mallows(
                modal, cell.theta, cell.n_rankings, rng=self._cell_rng(cell)
            )
        return self._rankings[key]

    def materialize(self, cell: ScenarioCell) -> ScenarioData:
        """Materialise one cell's inputs, reusing every cached kernel."""
        start = time.perf_counter()
        table = self.table_for(cell.n_candidates)
        modal = self.modal_for(cell.n_candidates, cell.modal_targets)
        rankings = self.rankings_for(cell)
        return ScenarioData(
            cell=cell,
            table=table,
            modal=modal,
            rankings=rankings,
            datagen_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # sweep
    # ------------------------------------------------------------------
    def run(
        self,
        cell_function: Callable[[ScenarioData], Mapping[str, object]],
    ) -> list[dict[str, object]]:
        """Run ``cell_function`` on every cell and collect per-cell records.

        Each record carries the cell's data axes, its extra parameters, the
        callback's measurements, and two timings: ``datagen_s`` (building
        this cell's inputs — 0 when fully cache-served) and ``cell_s`` (the
        callback itself).

        Peak memory stays at one workload's sample: because cells are
        ordered data-axes-outermost, each workload's (potentially large)
        :class:`RankingSet` is evicted from the cache as soon as the sweep
        moves past it.  The small table/modal caches are kept; a cell order
        that revisits a workload simply regenerates the identical sample.
        """
        records: list[dict[str, object]] = []
        previous_key: tuple | None = None
        for cell in self.cells:
            key = self._rankings_key(cell)
            if previous_key is not None and key != previous_key:
                self._rankings.pop(previous_key, None)
            previous_key = key
            data = self.materialize(cell)
            start = time.perf_counter()
            payload = cell_function(data)
            cell_seconds = time.perf_counter() - start
            record: dict[str, object] = {
                "n_candidates": cell.n_candidates,
                "n_rankings": cell.n_rankings,
                "theta": cell.theta,
            }
            record.update(cell.extras)
            record.update(payload)
            record["datagen_s"] = data.datagen_seconds
            record["cell_s"] = cell_seconds
            records.append(record)
        return records


def evaluate_labelled_cell(data: ScenarioData) -> dict[str, object]:
    """Shared :meth:`ScenarioGrid.run` callback for method-comparison sweeps.

    Expects the cell's extra parameters to carry a paper method ``label``
    (A1–B4 or a method name) and a fairness threshold ``delta``; returns the
    per-method record shape the runtime figures (6–7) report.
    """
    from repro.fair.registry import PAPER_LABELS, get_fair_method

    label = str(data.cell.extras["label"])
    method = get_fair_method(label)
    evaluation = evaluate_method(
        method, data.rankings, data.table, data.cell.extras["delta"]
    )
    return {
        "method": f"({label}) {PAPER_LABELS.get(label.upper(), evaluation.method)}",
        "runtime_s": evaluation.runtime_seconds,
        "pd_loss": evaluation.pd_loss,
    }


def record_from_evaluation(
    evaluation: MethodEvaluation,
    table: CandidateTable,
    **extra: object,
) -> dict[str, object]:
    """Flatten a :class:`MethodEvaluation` into an experiment record."""
    record: dict[str, object] = dict(extra)
    record["method"] = evaluation.method
    record["pd_loss"] = evaluation.pd_loss
    for entity, score in evaluation.parity.items():
        label = "IRP" if entity == table.INTERSECTION else f"ARP {entity}"
        record[label] = score
    if evaluation.price_of_fairness is not None:
        record["PoF"] = evaluation.price_of_fairness
    record["runtime_s"] = evaluation.runtime_seconds
    return record


def methods_by_label(labels: Iterable[str]) -> dict[str, FairRankAggregator]:
    """Instantiate fair methods for the given paper labels (A1–B4) or names."""
    from repro.fair.registry import get_fair_method  # local import to avoid cycle

    return {label: get_fair_method(label) for label in labels}
