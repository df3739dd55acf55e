"""Tests for the mani-rank command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.io.csv_io import write_candidate_table, write_ranking_set

#: Tiny committed CSV fixture; the CI cli-smoke job aggregates the same files
#: through the installed ``mani-rank`` entry point.
FIXTURE_DIRECTORY = Path(__file__).resolve().parent.parent / "examples" / "data"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.scale == "ci"
        assert args.experiment == "table1"

    def test_aggregate_defaults(self):
        args = build_parser().parse_args(["aggregate", "r.csv", "c.csv"])
        assert args.method == "fair-borda"
        assert args.delta == 0.1
        assert args.strategy is None

    def test_aggregate_strategy_choices(self):
        args = build_parser().parse_args(
            ["aggregate", "r.csv", "c.csv", "--strategy", "insertion"]
        )
        assert args.strategy == "insertion"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["aggregate", "r.csv", "c.csv", "--strategy", "nope"]
            )

    @pytest.mark.parametrize(
        "arguments",
        [
            ["aggregate", "r.csv", "c.csv", "--kernel-backend", "numpy"],
            ["stream", "events.jsonl", "c.csv", "--kernel-backend", "numpy"],
            ["serve", "--kernel-backend", "numpy"],
            ["aggregate", "r.csv", "c.csv", "--cache-policy", "clock"],
            ["serve", "--cache-policy", "clock"],
            ["aggregate", "r.csv", "c.csv", "--cache-policy", "lru"],
            ["serve", "--cache-policy", "lru"],
        ],
        ids=["aggregate-backend", "stream-backend", "serve-backend",
             "aggregate-clock", "serve-clock", "aggregate-policy", "serve-policy"],
    )
    def test_removed_options_are_rejected(self, arguments):
        with pytest.raises(SystemExit):
            build_parser().parse_args(arguments)

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream", "events.jsonl", "c.csv"])
        assert args.method == "fair-borda"
        assert args.delta == 0.1
        assert args.strategy is None
        assert args.verify is False
        assert args.dump_profile is None
        assert args.output is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8340
        assert args.cache_dir is None
        assert args.memory_capacity == 256
        assert args.cache_ttl is None
        assert args.max_requests is None
        assert args.max_inflight == 64
        assert args.queue_depth == 16
        assert args.read_timeout == 10.0
        assert args.drain_timeout == 5.0

    def test_cache_ttl_option(self):
        for command in (["serve"], ["aggregate", "r.csv", "c.csv"]):
            args = build_parser().parse_args([*command, "--cache-ttl", "300"])
            assert args.cache_ttl == 300.0

    @pytest.mark.parametrize(
        "arguments",
        [
            ["aggregate", "r.csv", "c.csv", "--cache-ttl", "5"],
            ["aggregate", "r.csv", "c.csv", "--cache-dir", "d", "--cache-ttl", "0"],
            ["serve", "--memory-capacity", "0"],
            ["serve", "--cache-ttl", "-1"],
            ["serve", "--cache-ttl", "nan"],
            ["serve", "--max-inflight", "0"],
            ["serve", "--queue-depth", "-1"],
            ["serve", "--read-timeout", "0"],
            ["serve", "--read-timeout", "-1"],
            ["serve", "--read-timeout", "inf"],
            ["serve", "--drain-timeout", "-1"],
            ["serve", "--max-requests", "0"],
            ["serve", "--max-inflight", "many"],
        ],
        ids=lambda arguments: " ".join([arguments[0], *arguments[-2:]]),
    )
    def test_out_of_range_options_exit_2_naming_the_option(self, arguments, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(arguments)
        assert excinfo.value.code == 2
        assert f"argument {arguments[-2]}:" in capsys.readouterr().err

    def test_boundary_values_are_accepted(self):
        args = build_parser().parse_args(
            ["serve", "--queue-depth", "0", "--drain-timeout", "0", "--max-requests", "1",
             "--memory-capacity", "1", "--read-timeout", "0.5", "--cache-ttl", "0.001"]
        )
        assert (args.queue_depth, args.drain_timeout, args.max_requests) == (0, 0.0, 1)
        assert (args.memory_capacity, args.read_timeout, args.cache_ttl) == (1, 0.5, 0.001)


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure4" in output
        assert "fair-kemeny" in output

    def test_run_table1_and_save(self, tmp_path, capsys):
        output_path = tmp_path / "table1.json"
        assert main(["run", "table1", "--output", str(output_path), "--quiet"]) == 0
        payload = json.loads(output_path.read_text())
        assert payload["experiment"] == "table1"
        assert len(payload["records"]) == 3

    def test_run_prints_table(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Low-Fair" in capsys.readouterr().out

    def test_run_unknown_experiment_raises(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "figure99"])

    def test_aggregate_command(self, tmp_path, capsys, tiny_table, tiny_rankings):
        candidates_csv = tmp_path / "candidates.csv"
        rankings_csv = tmp_path / "rankings.csv"
        write_candidate_table(tiny_table, candidates_csv)
        write_ranking_set(tiny_rankings, tiny_table, rankings_csv)
        exit_code = main(
            [
                "aggregate",
                str(rankings_csv),
                str(candidates_csv),
                "--method",
                "fair-borda",
                "--delta",
                "0.35",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Fair-Borda" in output
        assert "PD loss" in output
        assert "IRP" in output

    def test_aggregate_with_strategy(self, tmp_path, capsys, tiny_table, tiny_rankings):
        candidates_csv = tmp_path / "candidates.csv"
        rankings_csv = tmp_path / "rankings.csv"
        write_candidate_table(tiny_table, candidates_csv)
        write_ranking_set(tiny_rankings, tiny_table, rankings_csv)
        exit_code = main(
            [
                "aggregate",
                str(rankings_csv),
                str(candidates_csv),
                "--delta",
                "0.35",
                "--strategy",
                "insertion",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Fair-Borda" in output
        assert "PD loss" in output

    @pytest.mark.parametrize("strategy", [None, "insertion"])
    def test_aggregate_committed_fixture(self, capsys, strategy):
        arguments = [
            "aggregate",
            str(FIXTURE_DIRECTORY / "rankings.csv"),
            str(FIXTURE_DIRECTORY / "candidates.csv"),
        ]
        if strategy is not None:
            arguments += ["--strategy", strategy]
        assert main(arguments) == 0
        output = capsys.readouterr().out
        assert "Fair-Borda" in output
        assert "PD loss" in output

    def test_stream_committed_fixture_verifies_bit_identity(self, tmp_path, capsys):
        profile_csv = tmp_path / "profile.csv"
        output_json = tmp_path / "consensus.json"
        assert main([
            "stream",
            str(FIXTURE_DIRECTORY / "stream_events.jsonl"),
            str(FIXTURE_DIRECTORY / "candidates.csv"),
            "--verify",
            "--dump-profile",
            str(profile_csv),
            "--output",
            str(output_json),
        ]) == 0
        output = capsys.readouterr().out
        assert "replayed 12 events" in output
        assert "bit-identical" in output
        assert "PD loss" in output

        # The dumped profile aggregated from scratch must reproduce the
        # streamed payload bit-for-bit (the stream-smoke CI contract).
        from repro.cache.service import compute_consensus_payload
        from repro.io.csv_io import read_candidate_table, read_ranking_set

        table = read_candidate_table(FIXTURE_DIRECTORY / "candidates.csv")
        rankings = read_ranking_set(profile_csv, table)
        streamed = json.loads(output_json.read_text())
        assert streamed == compute_consensus_payload(rankings, table)

    def test_stream_rejects_a_malformed_event_log(self, tmp_path):
        from repro.exceptions import ValidationError

        events = tmp_path / "events.jsonl"
        events.write_text('{"op": "add", "ranking": ["ana"]}\nnot json\n')
        with pytest.raises(ValidationError, match="invalid JSON"):
            main([
                "stream",
                str(events),
                str(FIXTURE_DIRECTORY / "candidates.csv"),
            ])

    def test_aggregate_cache_dir_replays_the_stored_result(self, tmp_path, capsys):
        cache_dir = tmp_path / "consensus-cache"
        arguments = [
            "aggregate",
            str(FIXTURE_DIRECTORY / "rankings.csv"),
            str(FIXTURE_DIRECTORY / "candidates.csv"),
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert "cache: miss" in cold
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert "cache: hit" in warm
        # Identical consensus and metrics, straight from the disk blob.
        assert cold.replace("cache: miss", "cache: hit") == warm

    def test_serve_command_smoke(self, tmp_path):
        """`mani-rank serve` binds, answers each endpoint, and exits cleanly."""
        import json
        import re
        import subprocess
        import sys
        import urllib.request

        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--max-requests",
                "3",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no address banner in {banner!r}"
            base = f"http://{match.group(1)}:{match.group(2)}"
            body = json.dumps(
                {
                    "rankings_csv": str(FIXTURE_DIRECTORY / "rankings.csv"),
                    "candidates_csv": str(FIXTURE_DIRECTORY / "candidates.csv"),
                }
            ).encode()
            request = urllib.request.Request(
                f"{base}/aggregate", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                aggregate = json.loads(response.read())
            request = urllib.request.Request(f"{base}/fairness", data=body, method="POST")
            with urllib.request.urlopen(request, timeout=30) as response:
                fairness = json.loads(response.read())
            with urllib.request.urlopen(f"{base}/stats", timeout=30) as response:
                stats = json.loads(response.read())
            assert process.wait(timeout=30) == 0
        finally:
            process.stdout.close()
            if process.poll() is None:
                process.kill()
                process.wait()
        assert aggregate["cached"] is False
        assert fairness["cached"] is True  # same cache entry as /aggregate
        assert stats["cache"]["hits"] == 1

    def test_serve_drains_cleanly_on_sigterm(self, tmp_path):
        """SIGTERM flips readiness and exits 0 within the drain timeout."""
        import json
        import re
        import signal
        import subprocess
        import sys
        import urllib.error
        import urllib.request

        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--drain-timeout",
                "5",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no address banner in {banner!r}"
            base = f"http://{match.group(1)}:{match.group(2)}"
            with urllib.request.urlopen(f"{base}/readyz", timeout=30) as response:
                ready = json.loads(response.read())
            assert ready["ready"] is True
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            with pytest.raises(urllib.error.URLError):
                urllib.request.urlopen(f"{base}/readyz", timeout=5)
        finally:
            process.stdout.close()
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_aggregate_strategy_requires_seeded_method(
        self, tmp_path, tiny_table, tiny_rankings
    ):
        from repro.exceptions import AggregationError

        candidates_csv = tmp_path / "candidates.csv"
        rankings_csv = tmp_path / "rankings.csv"
        write_candidate_table(tiny_table, candidates_csv)
        write_ranking_set(tiny_rankings, tiny_table, rankings_csv)
        with pytest.raises(AggregationError, match="seeded method"):
            main(
                [
                    "aggregate",
                    str(rankings_csv),
                    str(candidates_csv),
                    "--method",
                    "pick-fairest-perm",
                    "--strategy",
                    "insertion",
                ]
            )
