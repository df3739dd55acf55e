"""Tests for the shared experiment harness utilities."""

from __future__ import annotations

from importlib import import_module
from itertools import groupby

import pytest

from repro.datagen.attributes import scalability_table
from repro.experiments.harness import (
    DEFAULT_THETAS,
    SCALES,
    ScenarioCell,
    ScenarioGrid,
    evaluate_method,
    methods_by_label,
    record_from_evaluation,
    require_scale,
    theta_sweep_datasets,
)
from repro.exceptions import ExperimentError
from repro.fair.registry import get_fair_method
from repro.fairness.parity import mani_rank_satisfied


class TestScale:
    def test_valid_scales(self):
        assert require_scale("ci") == "ci"
        assert require_scale(" PAPER ") == "paper"
        assert set(SCALES) == {"ci", "paper"}

    def test_invalid_scale(self):
        with pytest.raises(ExperimentError):
            require_scale("huge")


class TestEvaluateMethod:
    def test_evaluation_fields(self, small_dataset):
        method = get_fair_method("A3")
        evaluation = evaluate_method(
            method, small_dataset.rankings, small_dataset.table, 0.1
        )
        assert evaluation.method == "Fair-Borda"
        assert 0.0 <= evaluation.pd_loss <= 1.0
        assert evaluation.runtime_seconds > 0.0
        assert evaluation.price_of_fairness is not None
        assert mani_rank_satisfied(evaluation.ranking, small_dataset.table, 0.1)

    def test_explicit_reference_used_for_pof(self, small_dataset):
        method = get_fair_method("A3")
        reference = small_dataset.rankings[0]
        evaluation = evaluate_method(
            method,
            small_dataset.rankings,
            small_dataset.table,
            0.1,
            reference_unaware=reference,
        )
        from repro.fairness.pd_loss import price_of_fairness

        expected = price_of_fairness(small_dataset.rankings, evaluation.ranking, reference)
        assert evaluation.price_of_fairness == pytest.approx(expected)

    def test_record_from_evaluation_flattens(self, small_dataset):
        method = get_fair_method("A3")
        evaluation = evaluate_method(
            method, small_dataset.rankings, small_dataset.table, 0.1
        )
        record = record_from_evaluation(evaluation, small_dataset.table, theta=0.6)
        assert record["theta"] == 0.6
        assert "ARP Gender" in record
        assert "IRP" in record
        assert record["method"] == "Fair-Borda"


class TestThetaSweep:
    def test_default_thetas(self):
        assert DEFAULT_THETAS == (0.2, 0.4, 0.6, 0.8)

    def test_sweep_shares_modal_ranking(self, small_table):
        datasets = theta_sweep_datasets(small_table, "low", (0.2, 0.8), 10, seed=3)
        assert len(datasets) == 2
        assert datasets[0].modal == datasets[1].modal
        assert datasets[0].theta == 0.2
        assert datasets[1].theta == 0.8
        assert datasets[0].rankings.n_rankings == 10

    def test_sweep_is_reproducible(self, small_table):
        first = theta_sweep_datasets(small_table, "low", (0.4,), 5, seed=3)
        second = theta_sweep_datasets(small_table, "low", (0.4,), 5, seed=3)
        assert first[0].rankings.to_order_lists() == second[0].rankings.to_order_lists()


class TestScenarioGrid:
    TARGETS = {"Race": 0.4, "Gender": 0.5}

    def test_product_cell_order(self):
        grid = ScenarioGrid.product(
            candidate_counts=(10, 20),
            ranking_counts=(5,),
            thetas=(0.6,),
            modal_targets=self.TARGETS,
            param_grid={"delta": (0.1, 0.33)},
            seed=3,
        )
        assert len(grid.cells) == 4
        # Data axes outermost, parameter axes innermost.
        assert [(c.n_candidates, c.extras["delta"]) for c in grid.cells] == [
            (10, 0.1),
            (10, 0.33),
            (20, 0.1),
            (20, 0.33),
        ]

    def test_kernels_are_cached_across_cells(self):
        grid = ScenarioGrid.product(
            candidate_counts=(12,),
            ranking_counts=(6,),
            thetas=(0.6,),
            modal_targets=self.TARGETS,
            param_grid={"delta": (0.1, 0.33)},
            seed=3,
        )
        first = grid.materialize(grid.cells[0])
        second = grid.materialize(grid.cells[1])
        assert first.table is second.table
        assert first.modal is second.modal
        assert first.rankings is second.rankings

    def test_run_records_axes_params_and_timings(self):
        grid = ScenarioGrid.product(
            candidate_counts=(12,),
            ranking_counts=(6,),
            thetas=(0.6,),
            modal_targets=self.TARGETS,
            param_grid={"delta": (0.1,)},
            seed=3,
        )
        records = grid.run(lambda data: {"m": data.rankings.n_rankings})
        assert len(records) == 1
        record = records[0]
        assert record["n_candidates"] == 12
        assert record["n_rankings"] == 6
        assert record["theta"] == 0.6
        assert record["delta"] == 0.1
        assert record["m"] == 6
        assert record["datagen_s"] >= 0.0
        assert record["cell_s"] >= 0.0

    def test_materialized_data_is_deterministic(self):
        def build():
            grid = ScenarioGrid(
                [ScenarioCell.build(12, 6, 0.6, self.TARGETS)], seed=11
            )
            return grid.materialize(grid.cells[0])

        first, second = build(), build()
        assert first.modal == second.modal
        assert first.rankings.to_order_lists() == second.rankings.to_order_lists()

    def test_sampling_streams_differ_across_theta(self):
        grid = ScenarioGrid.product(
            candidate_counts=(12,),
            ranking_counts=(6,),
            thetas=(0.2, 0.8),
            modal_targets=self.TARGETS,
            seed=3,
        )
        first, second = grid.cells[0], grid.cells[1]
        # Distinct workloads must not be comonotone: the underlying uniform
        # streams differ, not just the θ-dependent CDF inversion.
        assert (
            grid._cell_rng(first).random(4).tolist()
            != grid._cell_rng(second).random(4).tolist()
        )

    def test_run_evicts_passed_workload_samples(self):
        grid = ScenarioGrid.product(
            candidate_counts=(10,),
            ranking_counts=(4, 6),
            thetas=(0.6,),
            modal_targets=self.TARGETS,
            seed=3,
        )
        grid.run(lambda data: {})
        # Only the last workload's sample stays cached after a sweep.
        assert len(grid._rankings) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError):
            ScenarioGrid([])


#: Wall-clock fields, the only ones that may differ between two sweeps.
TIMING_FIELDS = {"datagen_s", "cell_s", "runtime_s"}


def _strip_timings(record: dict) -> dict:
    return {
        key: value for key, value in record.items() if key not in TIMING_FIELDS
    }


def _count_rankings(data) -> dict:
    """Cell callback recording the cell's materialised sample and modal."""
    return {
        "m": data.rankings.n_rankings,
        "orders": data.rankings.to_order_lists(),
        "modal": data.modal.to_list(),
    }


class TestSweepOrderIndependence:
    """A cell's record depends on the grid seed and the cell alone."""

    TARGETS = {"Race": 0.4, "Gender": 0.5}
    SEED = 11

    def _cells(self) -> list[ScenarioCell]:
        return ScenarioGrid.product(
            candidate_counts=(10, 14),
            ranking_counts=(4, 6),
            thetas=(0.4, 0.8),
            modal_targets=self.TARGETS,
            param_grid={"delta": (0.1, 0.33)},
            seed=self.SEED,
        ).cells

    def _records_by_cell(self, cells, callback=_count_rankings) -> dict:
        records = ScenarioGrid(cells, seed=self.SEED).run(callback)
        assert len(records) == len(cells)
        return {cell: _strip_timings(record) for cell, record in zip(cells, records)}

    def test_each_workload_alone_matches_the_full_sweep(self):
        cells = self._cells()
        full = self._records_by_cell(cells)
        groups = [
            list(group)
            for _, group in groupby(
                cells,
                key=lambda c: (c.n_candidates, c.n_rankings, c.theta, c.modal_targets),
            )
        ]
        assert [len(group) for group in groups] == [2] * 8
        alone: dict = {}
        for group in groups:
            alone.update(self._records_by_cell(group))
        assert alone == full

    def test_reversed_and_interleaved_orders_match_the_full_sweep(self):
        cells = self._cells()
        full = self._records_by_cell(cells)
        assert self._records_by_cell(cells[::-1]) == full
        # Parameter axis outermost: every workload is evicted between its
        # two cells and regenerated on the second visit.
        interleaved = sorted(cells, key=lambda c: c.extras["delta"])
        assert self._records_by_cell(interleaved) == full

    def test_method_sweep_records_do_not_depend_on_order(self):
        from repro.experiments.harness import evaluate_labelled_cell

        cells = ScenarioGrid.product(
            candidate_counts=(12,),
            ranking_counts=(6,),
            thetas=(0.6,),
            modal_targets=self.TARGETS,
            param_grid={"label": ("A3", "B3"), "delta": (0.1,)},
            seed=self.SEED,
        ).cells
        forward = self._records_by_cell(cells, evaluate_labelled_cell)
        backward = self._records_by_cell(cells[::-1], evaluate_labelled_cell)
        assert backward == forward


_ONE_CELL = ScenarioCell.build(8, 4, 0.6, {"Race": 0.4, "Gender": 0.5})

#: Arguments the serial sweep removed, each with a call that passes it.
_REMOVED_ARGUMENTS = {
    "ScenarioGrid.run(n_workers=)": lambda: ScenarioGrid([_ONE_CELL]).run(
        _count_rankings, n_workers=2
    ),
    "ScenarioGrid(table_factory=)": lambda: ScenarioGrid(
        [_ONE_CELL], table_factory=scalability_table
    ),
    "ScenarioGrid.product(table_factory=)": lambda: ScenarioGrid.product(
        (8,), (4,), (0.6,), {"Race": 0.4}, table_factory=scalability_table
    ),
    **{
        f"{module}.run(n_workers=)": (
            lambda module=module: import_module(f"repro.experiments.{module}").run(
                scale="ci", n_workers=2
            )
        )
        for module in ("figure6", "figure7", "table2", "table3", "ablation_search")
    },
}


@pytest.mark.parametrize("call", _REMOVED_ARGUMENTS.values(), ids=_REMOVED_ARGUMENTS)
def test_removed_sweep_arguments_raise_type_error(call):
    with pytest.raises(TypeError, match="n_workers|table_factory"):
        call()


class TestMethodsByLabel:
    def test_instantiates_requested_labels(self):
        methods = methods_by_label(["A3", "B3"])
        assert methods["A3"].name == "Fair-Borda"
        assert methods["B3"].name == "Pick-Fairest-Perm"
