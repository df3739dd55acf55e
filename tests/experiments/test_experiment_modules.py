"""Smoke and shape tests for the per-figure / per-table experiment modules.

Each experiment is run at a deliberately tiny configuration (few θ values,
few methods, small candidate counts) so the full suite stays fast; the
paper-shape assertions check the *qualitative* findings of the corresponding
figure or table rather than absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, available_experiments, run_experiment
from repro.experiments import figure3, figure4, figure5, figure6, figure7
from repro.experiments import table1, table2, table3, table4, table5
from repro.exceptions import ExperimentError


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "table2",
            "figure7",
            "table3",
            "table4",
            "table5",
            "ablation-search",
        }

    def test_descriptions_available(self):
        descriptions = available_experiments()
        assert all(descriptions.values())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("figure99")

    def test_run_experiment_dispatches(self):
        result = run_experiment("table1", scale="ci")
        assert result.experiment == "table1"


class TestTable1:
    def test_profiles_and_columns(self):
        result = table1.run(scale="ci")
        assert len(result.records) == 3
        datasets = [record["dataset"] for record in result.records]
        assert datasets == ["Low-Fair", "Medium-Fair", "High-Fair"]
        for record in result.records:
            assert 0.0 <= record["IRP"] <= 1.0

    def test_profiles_ordered_by_unfairness(self):
        result = table1.run(scale="ci")
        by_name = {record["dataset"]: record for record in result.records}
        assert by_name["Low-Fair"]["ARP Gender"] > by_name["High-Fair"]["ARP Gender"]
        assert by_name["Low-Fair"]["IRP"] > by_name["High-Fair"]["IRP"]


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return figure3.run(scale="ci", thetas=(0.6,))

    def test_all_approaches_present(self, result):
        approaches = {record["approach"] for record in result.records}
        assert approaches == {
            "Kemeny (unaware)",
            "Attributes only",
            "Intersection only",
            "MANI-Rank",
        }

    def test_only_mani_rank_constrains_everything(self, result):
        delta = result.parameters["delta"]
        for record in result.filtered(approach="MANI-Rank"):
            assert record["ARP Gender"] <= delta + 1e-6
            assert record["ARP Race"] <= delta + 1e-6
            assert record["IRP"] <= delta + 1e-6
        attr_only = result.filtered(approach="Attributes only")
        assert all(r["ARP Gender"] <= delta + 1e-6 for r in attr_only)
        assert any(r["IRP"] > delta for r in attr_only)
        inter_only = result.filtered(approach="Intersection only")
        assert all(r["IRP"] <= delta + 1e-6 for r in inter_only)

    def test_unaware_kemeny_violates(self, result):
        delta = result.parameters["delta"]
        assert any(
            record["ARP Gender"] > delta or record["IRP"] > delta
            for record in result.filtered(approach="Kemeny (unaware)")
        )


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return figure4.run(scale="ci", thetas=(0.6,))

    def test_every_method_reported(self, result):
        labels = {record["label"] for record in result.records}
        assert labels == {"A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"}

    def test_fair_methods_satisfy_threshold(self, result):
        delta = result.parameters["delta"]
        for label in ("A1", "A2", "A3", "A4", "B4"):
            for record in result.filtered(label=label):
                assert record["ARP Gender"] <= delta + 1e-6
                assert record["ARP Race"] <= delta + 1e-6
                assert record["IRP"] <= delta + 1e-6

    def test_unaware_baselines_violate(self, result):
        delta = result.parameters["delta"]
        for label in ("B1", "B2"):
            for record in result.filtered(label=label):
                assert max(record["ARP Gender"], record["ARP Race"], record["IRP"]) > delta

    def test_kemeny_has_lowest_pd_loss(self, result):
        rows = {record["label"]: record["pd_loss"] for record in result.records}
        assert rows["B1"] == min(rows.values())

    def test_fair_kemeny_best_among_fair_methods(self, result):
        rows = {record["label"]: record["pd_loss"] for record in result.records}
        assert rows["A1"] <= min(rows["A2"], rows["A3"], rows["A4"], rows["B4"]) + 1e-6


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return figure5.run(scale="ci", thetas=(0.4, 0.8), deltas=(0.1, 0.4))

    def test_panels_present(self, result):
        panels = {record["panel"] for record in result.records}
        assert panels == {"theta-sweep", "delta-sweep"}

    def test_pof_non_negative_for_fair_kemeny(self, result):
        for record in result.filtered(panel="theta-sweep"):
            assert record["PoF"] >= -1e-9

    def test_looser_delta_is_cheaper(self, result):
        for method in {record["method"] for record in result.filtered(panel="delta-sweep")}:
            rows = result.filtered(panel="delta-sweep", method=method)
            by_delta = {record["delta"]: record["PoF"] for record in rows}
            assert by_delta[0.4] <= by_delta[0.1] + 0.02


class TestScalabilityExperiments:
    def test_figure6_rows_and_tiers(self):
        result = figure6.run(
            scale="ci", ranking_counts=(20, 60), method_labels=("A3", "A4", "B3")
        )
        assert len(result.records) == 6
        for record in result.records:
            assert record["runtime_s"] >= 0.0

    def test_table2_replication_scaling(self):
        result = table2.run(scale="ci", ranking_counts=(100, 400))
        counts = [record["n_rankings"] for record in result.records]
        assert counts == [100, 400]
        assert all(record["runtime_s"] > 0 for record in result.records)

    def test_figure7_delta_effect(self):
        result = figure7.run(
            scale="ci", candidate_counts=(30,), deltas=(0.1, 0.33), method_labels=("A3",)
        )
        assert len(result.records) == 2

    def test_table3_candidate_scaling(self):
        result = table3.run(scale="ci", candidate_counts=(100, 200))
        runtimes = [record["runtime_s"] for record in result.records]
        assert len(runtimes) == 2
        assert all(value > 0 for value in runtimes)


class TestCaseStudies:
    @pytest.fixture(scope="class")
    def exam_result(self):
        return table4.run(scale="ci", methods=("B1", "A3", "A4"))

    def test_table4_rows(self, exam_result):
        labels = [record["ranking"] for record in exam_result.records]
        assert labels[:3] == ["Math", "Reading", "Writing"]
        assert "Kemeny" in labels
        assert "Fair-Borda" in labels

    def test_table4_fair_methods_reach_parity(self, exam_result):
        delta = exam_result.parameters["delta"]
        for record in exam_result.records:
            if record["ranking"].startswith("Fair-"):
                assert record["Gender"] <= delta + 1e-6
                assert record["Race"] <= delta + 1e-6
                assert record["Lunch"] <= delta + 1e-6
                assert record["IRP"] <= delta + 1e-6

    def test_table4_base_rankings_are_biased(self, exam_result):
        base = [r for r in exam_result.records if r["ranking"] in ("Math", "Reading", "Writing")]
        assert all(record["Lunch"] > 0.15 for record in base)

    def test_table5_structure_and_debiasing(self):
        result = table5.run(scale="ci", methods=("B1", "A4"))
        kemeny_row = next(r for r in result.records if r["ranking"] == "Kemeny")
        fair_row = next(r for r in result.records if r["ranking"] == "Fair-Copeland")
        assert kemeny_row["Location"] > fair_row["Location"]
        assert fair_row["Location"] <= result.parameters["delta"] + 1e-6
        assert fair_row["IRP"] <= result.parameters["delta"] + 1e-6


class TestAblationSearch:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ablation_search

        return ablation_search.run(scale="ci", theta=0.2)

    def test_every_cell_reports_every_strategy_and_seed(self, result):
        from repro.aggregation.search import available_strategies

        expected = set(available_strategies())
        cells: dict[tuple, set] = {}
        for record in result.records:
            key = (record["n_candidates"], record["n_rankings"], record["seed_ranking"])
            cells.setdefault(key, set()).add(record["strategy"])
        assert cells
        assert {key[2] for key in cells} == {"borda", "cold"}
        for strategies in cells.values():
            assert strategies == expected

    def test_insertion_never_worse_than_adjacent_per_cell(self, result):
        for record in result.filtered(strategy="insertion"):
            (adjacent,) = [
                other
                for other in result.filtered(strategy="adjacent-swap")
                if all(
                    other[axis] == record[axis]
                    for axis in ("n_candidates", "n_rankings", "theta", "seed_ranking")
                )
            ]
            assert record["objective"] <= adjacent["objective"]

    def test_single_strategy_run(self):
        from repro.experiments import ablation_search

        result = ablation_search.run(scale="ci", theta=0.6, strategies=("insertion",))
        assert {record["strategy"] for record in result.records} == {"insertion"}
