"""Unit tests for the perf baseline-vs-current summary script.

``perf_summary.py`` is run by the CI perf-smoke job (appending its output to
``$GITHUB_STEP_SUMMARY``); these tests pin its contract on synthetic payload
directories so workflow edits cannot silently break the report.
"""

from __future__ import annotations

import json

import perf_summary


def _write_payload(directory, name, scale, sections):
    payload = {"benchmark": name, "scale": scale, "parameters": {}}
    payload.update(sections)
    (directory / f"{name}.json").write_text(json.dumps(payload))


def test_render_summary_pairs_rows_by_configuration(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    _write_payload(
        baseline,
        "perf_example",
        "full",
        {
            "search": [
                {"n_candidates": 10, "engine_s": 0.1, "reference_s": 1.0, "speedup": 10.0},
                # Untimed reference at the largest configuration: skipped.
                {"n_candidates": 99, "engine_s": 0.5, "reference_s": None, "speedup": None},
            ]
        },
    )
    _write_payload(
        current,
        "perf_example",
        "smoke",
        {
            "search": [
                {"n_candidates": 10, "engine_s": 0.2, "reference_s": 0.8, "speedup": 4.0},
                {"n_candidates": 5, "engine_s": 0.1, "reference_s": 0.3, "speedup": 3.0},
            ]
        },
    )
    output = perf_summary.render_summary(baseline, current)
    assert "| perf_example | search | n_candidates=10 | 10.0x | 4.0x |" in output
    assert "| perf_example | search | n_candidates=5 | — | 3.0x |" in output
    assert "n_candidates=99" not in output
    assert "scale: full" in output and "scale: smoke" in output


def test_configuration_labels_keep_float_axes_and_drop_outputs(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    # Two sweep points differing only in a float axis (theta) with identical
    # counter outputs must stay distinct rows; n_swaps/engine_s must not leak
    # into the configuration key (they would break baseline/current pairing).
    rows = [
        {"n_candidates": 10, "theta": 0.2, "n_swaps": 5, "engine_s": 0.1, "speedup": 4.0},
        {"n_candidates": 10, "theta": 0.6, "n_swaps": 5, "engine_s": 0.1, "speedup": 8.0},
    ]
    _write_payload(baseline, "perf_sweep", "full", {"rows": rows})
    _write_payload(
        current,
        "perf_sweep",
        "smoke",
        {
            "rows": [
                {"n_candidates": 10, "theta": 0.2, "n_swaps": 9, "engine_s": 0.4, "speedup": 2.0}
            ]
        },
    )
    output = perf_summary.render_summary(baseline, current)
    assert "| perf_sweep | rows | n_candidates=10, theta=0.2 | 4.0x | 2.0x |" in output
    assert "| perf_sweep | rows | n_candidates=10, theta=0.6 | 8.0x | — |" in output
    assert "n_swaps" not in output
    assert "engine_s" not in output


def test_render_summary_prints_both_sides_machine_stamps(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    rows = {"rows": [{"case": "a", "speedup": 2.0}]}
    stamp = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6"}
    _write_payload(baseline, "perf_stamped", "full", {**rows, "machine": stamp})
    # A baseline written before payloads carried a stamp.
    _write_payload(baseline, "perf_old", "full", rows)
    _write_payload(
        current,
        "perf_stamped",
        "smoke",
        {**rows, "machine": {"cpu_count": 4, "python": "3.12.1", "numpy": "2.1.0"}},
    )
    output = perf_summary.render_summary(baseline, current)
    assert (
        "- Baseline machine: cpus=2 python=3.11.7 numpy=2.4.6 (perf_stamped); "
        "unstamped (perf_old)" in output
    )
    assert "- Current machine: cpus=4 python=3.12.1 numpy=2.1.0 (perf_stamped)" in output
    # The stamps sit above the table, and the stamp is no table row.
    assert output.index("Current machine") < output.index("| benchmark |")
    assert "cpu_count" not in output


def test_render_summary_reports_missing_current_benchmarks(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    _write_payload(
        baseline,
        "perf_only_in_baseline",
        "full",
        {"rows": [{"case": "a", "speedup": 2.0}]},
    )
    output = perf_summary.render_summary(baseline, current)
    assert "perf_only_in_baseline" in output
    assert "no current run" in output


def test_render_summary_handles_empty_directories(tmp_path):
    output = perf_summary.render_summary(tmp_path, tmp_path)
    assert "No perf payloads" in output


def test_main_writes_to_stdout(tmp_path, capsys):
    assert perf_summary.main(["--baseline", str(tmp_path), "--current", str(tmp_path)]) == 0
    assert "Perf benchmarks" in capsys.readouterr().out
