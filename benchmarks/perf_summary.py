"""Baseline-vs-current comparison table for the perf benchmarks.

Reads every ``perf_*.json`` payload from a *baseline* directory (the
committed ``benchmarks/results/``) and a *current* directory (a fresh run,
e.g. the CI perf-smoke job's ``MANI_RANK_PERF_RESULTS_DIR`` scratch output)
and renders one GitHub-flavoured-markdown table of all timed speedup rows,
aligned by (benchmark, section, configuration).  The CI perf-smoke job
appends the output to ``$GITHUB_STEP_SUMMARY`` so every PR shows its perf
trajectory next to the committed baseline::

    python benchmarks/perf_summary.py \
        --baseline benchmarks/results --current perf-smoke-results

Raw times are not compared across directories — the baseline is recorded at
full scale on one machine and the current run typically at smoke scale on a
shared runner — so the table reports each side's *speedup* (engine vs
retained from-scratch reference, the scale-robust signal every perf payload
carries) plus its scale tag.  Above the table it prints each side's machine
stamps (CPU count, Python and numpy versions; see
``perf_timing.machine_stamp``).  Stdlib only: the script must run before the
project's dependencies are installed if need be.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Row keys that are run *outputs*, not configuration axes: the speedup
#: itself, anything timed (``*_s`` by the payloads' convention), and the
#: search/repair counters.  Everything else — including float-valued axes
#: like ``theta`` or ``delta`` — identifies the row, so two sweep points
#: never collide and baseline/current rows pair by configuration alone.
_OUTPUT_KEYS = frozenset({"speedup", "seconds", "n_swaps", "n_moves", "n_passes"})


def _configuration_label(row: dict) -> str:
    """Human-readable configuration key of one speedup row."""
    parts = []
    for key, value in row.items():
        if key in _OUTPUT_KEYS or key.endswith("_s"):
            continue
        if isinstance(value, float):
            value = format(value, "g")
        parts.append(f"{key}={value}")
    return ", ".join(parts)


def _speedup_rows(payload: dict) -> dict[tuple[str, str], float]:
    """Map (section, configuration) -> speedup for one perf payload."""
    rows: dict[tuple[str, str], float] = {}
    for section, value in payload.items():
        if not isinstance(value, list):
            continue
        for row in value:
            if not isinstance(row, dict) or row.get("speedup") is None:
                # Some baselines skip the reference timing at their largest
                # configuration (speedup: null) — nothing to compare there.
                continue
            rows[(section, _configuration_label(row))] = float(row["speedup"])
    return rows


def _load_payloads(directory: Path) -> dict[str, dict]:
    """Perf payloads by benchmark name (``perf_*.json`` files only)."""
    payloads: dict[str, dict] = {}
    for path in sorted(directory.glob("perf_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        name = str(payload.get("benchmark", path.stem))
        payloads[name] = payload
    return payloads


def _machine_summary(payloads: dict[str, dict]) -> str:
    """Each machine stamp of one directory, with the benchmarks that carry it.

    Payloads written before the stamp existed are listed as unstamped.
    """
    benchmarks_by_stamp: dict[str, list[str]] = {}
    for name, payload in sorted(payloads.items()):
        machine = payload.get("machine")
        if isinstance(machine, dict):
            stamp = (
                f"cpus={machine.get('cpu_count', '?')} "
                f"python={machine.get('python', '?')} "
                f"numpy={machine.get('numpy', '?')}"
            )
        else:
            stamp = "unstamped"
        benchmarks_by_stamp.setdefault(stamp, []).append(name)
    return "; ".join(
        f"{stamp} ({', '.join(names)})"
        for stamp, names in sorted(benchmarks_by_stamp.items())
    ) or "—"


def render_summary(baseline_directory: Path, current_directory: Path) -> str:
    """The markdown comparison of the two result directories."""
    baseline = _load_payloads(baseline_directory)
    current = _load_payloads(current_directory)
    lines = ["## Perf benchmarks: baseline vs current", ""]
    if not baseline and not current:
        lines.append("_No perf payloads found in either directory._")
        return "\n".join(lines)

    baseline_scales = {payload.get("scale", "?") for payload in baseline.values()}
    current_scales = {payload.get("scale", "?") for payload in current.values()}
    lines.append(
        f"Baseline: committed results (scale: {', '.join(sorted(baseline_scales)) or '—'}) · "
        f"Current: this run (scale: {', '.join(sorted(current_scales)) or '—'}).  "
        "Speedups are engine-vs-reference on each side's own scale; raw times "
        "are not comparable across scales."
    )
    lines.append("")
    lines.append(f"- Baseline machine: {_machine_summary(baseline)}")
    lines.append(f"- Current machine: {_machine_summary(current)}")
    lines.append("")
    lines.append("| benchmark | section | configuration | baseline speedup | current speedup |")
    lines.append("|---|---|---|---:|---:|")

    def _format(value: float | None) -> str:
        return f"{value:.1f}x" if value is not None else "—"

    for name in sorted(set(baseline) | set(current)):
        baseline_rows = _speedup_rows(baseline.get(name, {}))
        current_rows = _speedup_rows(current.get(name, {}))
        for section, configuration in sorted(set(baseline_rows) | set(current_rows)):
            lines.append(
                f"| {name} | {section} | {configuration} "
                f"| {_format(baseline_rows.get((section, configuration)))} "
                f"| {_format(current_rows.get((section, configuration)))} |"
            )

    missing = sorted(set(baseline) - set(current))
    if missing:
        lines.append("")
        lines.append(
            "_Benchmarks with no current run (baseline only): "
            + ", ".join(missing)
            + "; smoke configurations differ from the committed full-scale "
            "ones, so their rows pair by configuration only where they "
            "coincide._"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "results",
        help="directory holding the committed perf_*.json baselines",
    )
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="directory holding the fresh perf_*.json results to compare",
    )
    args = parser.parse_args(argv)
    sys.stdout.write(render_summary(args.baseline, args.current))
    return 0


if __name__ == "__main__":
    sys.exit(main())
