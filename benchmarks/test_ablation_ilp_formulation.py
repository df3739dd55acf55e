"""Ablation benchmark: ILP design choices behind Fair-Kemeny.

Two design decisions of the Fair-Kemeny ILP (documented in
:mod:`repro.fair.fair_kemeny` and :mod:`repro.optimize.milp_backend`) are
quantified here:

* the encoding of the MANI-Rank constraints — the paper's pairwise constraints
  (Equations 11–12) versus the compact min/max reformulation this repo uses to
  keep the problem tractable for HiGHS;
* eager versus lazy (cutting-plane) transitivity constraints for the plain
  Kemeny objective.

Both variants must return the same objective value; the benchmark records the
runtime difference.
"""

from __future__ import annotations

import pytest

from repro.aggregation.kemeny import KemenyAggregator
from repro.datagen.attributes import small_mallows_table
from repro.datagen.fair_modal import generate_mallows_dataset
from repro.fair.fair_kemeny import FairKemenyAggregator


@pytest.fixture(scope="module")
def dataset():
    return generate_mallows_dataset(
        small_mallows_table(group_size=2), "low", theta=0.6, n_rankings=25, rng=5
    )


@pytest.mark.parametrize("formulation", ["minmax", "pairwise"])
def test_ablation_parity_formulation(benchmark, dataset, formulation):
    method = FairKemenyAggregator(formulation=formulation, mip_rel_gap=None)
    result = benchmark.pedantic(
        method.aggregate_with_diagnostics,
        args=(dataset.rankings, dataset.table, 0.1),
        rounds=1,
        iterations=1,
    )
    # Both encodings are exact reformulations of the same feasible set.
    assert result.diagnostics["optimal"]
    expected = FairKemenyAggregator(mip_rel_gap=None).aggregate_with_diagnostics(
        dataset.rankings, dataset.table, 0.1
    )
    assert result.diagnostics["objective"] == pytest.approx(
        expected.diagnostics["objective"]
    )


@pytest.mark.parametrize("lazy", [False, True])
def test_ablation_triangle_generation(benchmark, dataset, lazy):
    method = KemenyAggregator(lazy_triangles=lazy)
    result = benchmark.pedantic(
        method.aggregate_with_diagnostics, args=(dataset.rankings,), rounds=1, iterations=1
    )
    reference = KemenyAggregator(lazy_triangles=not lazy).aggregate_with_diagnostics(
        dataset.rankings
    )
    assert result.diagnostics["objective"] == pytest.approx(
        reference.diagnostics["objective"]
    )
