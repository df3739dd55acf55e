"""Benchmark: regenerate Table I (Mallows dataset fairness profiles)."""

from __future__ import annotations

from repro.experiments import table1


def test_table1_mallows_datasets(benchmark, bench_scale, save_result):
    result = benchmark.pedantic(
        table1.run, kwargs={"scale": bench_scale}, rounds=1, iterations=1
    )
    save_result(result)

    by_name = {record["dataset"]: record for record in result.records}
    assert set(by_name) == {"Low-Fair", "Medium-Fair", "High-Fair"}
    # Paper shape: the three profiles are strictly ordered by unfairness.
    assert by_name["Low-Fair"]["ARP Gender"] > by_name["Medium-Fair"]["ARP Gender"]
    assert by_name["Medium-Fair"]["ARP Gender"] > by_name["High-Fair"]["ARP Gender"]
    assert by_name["Low-Fair"]["IRP"] > by_name["Medium-Fair"]["IRP"] > by_name["High-Fair"]["IRP"]
    # Achieved values stay within a reasonable distance of the paper targets.
    # The attribute targets are calibrated directly; the IRP is emergent (see
    # repro.datagen.fair_modal) so it gets a wider band, especially on the
    # small ci universe.
    for record in result.records:
        assert abs(record["ARP Gender"] - record["ARP Gender (paper)"]) < 0.15
        assert abs(record["ARP Race"] - record["ARP Race (paper)"]) < 0.15
        assert abs(record["IRP"] - record["IRP (paper)"]) < 0.35
