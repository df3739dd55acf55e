"""Command-line interface for the MANI-Rank reproduction.

Usage::

    mani-rank list                         # list the reproducible experiments
    mani-rank run figure4                  # run one experiment at ci scale
    mani-rank run table4 --scale paper     # full-size run
    mani-rank run figure5 --output out.json --quiet
    mani-rank aggregate rankings.csv candidates.csv --method fair-borda --delta 0.1
    mani-rank aggregate rankings.csv candidates.csv --strategy insertion
    mani-rank stream events.jsonl candidates.csv --verify
    mani-rank serve --port 8340 --cache-dir ~/.cache/mani-rank

The ``aggregate`` subcommand runs a fair consensus method on user-supplied CSV
files (formats documented in :mod:`repro.io.csv_io`).  ``--strategy`` appends
a fairness-preserving local-search repair to a seeded method (Fair-Borda,
Fair-Copeland, Fair-Schulze, ...): ``adjacent-swap`` harvests the Kemeny-
improving adjacent transpositions that stay MANI-Rank feasible, ``insertion``
additionally applies fairness-filtered block moves (never recovering less
objective than ``adjacent-swap``), and ``combined`` explores block moves
first and polishes with adjacent swaps — see
:mod:`repro.aggregation.search` and :mod:`repro.fair.local_repair`.

``stream`` replays a JSONL event log (one ``add``/``remove`` per line)
through the incremental :class:`~repro.streaming.engine.StreamingConsensusEngine`
— matrices are patched per event instead of rebuilt — and prints the final
consensus; ``--verify`` additionally recomputes it from scratch and fails if
the two payloads are not bit-identical, and ``--dump-profile`` writes the
materialized profile as a rankings CSV for cross-checking with ``aggregate``.

``serve`` starts the asyncio HTTP front-end over the content-addressed
consensus cache (:mod:`repro.cache`): ``/aggregate`` and ``/fairness`` answer
repeated queries from a memory-over-disk cache, ``/stats`` reports the
hit/miss/eviction counters.  The memory tier evicts the least recently used
entry, and ``--cache-ttl`` expires entries older than the given seconds.
``aggregate --cache-dir`` reuses the same disk tier across CLI invocations
(same TTL flag).  The serving stack degrades instead of dying:
``--max-inflight``/``--queue-depth`` bound concurrent compute (excess is shed
as 503 + ``Retry-After``), ``--read-timeout`` bounds slow clients (408),
``--drain-timeout`` bounds the graceful drain on SIGTERM, a disk circuit
breaker turns persistent cache-dir faults into memory-only service, and
``/healthz``/``/readyz`` answer liveness/readiness probes.  See
``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence

from repro.aggregation.search import available_strategies
from repro.experiments import available_experiments, run_experiment
from repro.fair.registry import describe_fair_methods
from repro.io.csv_io import read_candidate_table, read_ranking_set

__all__ = ["main", "build_parser"]


def _checked(convert: Callable[[str], float], accept: Callable[[float], bool], what: str):
    """An argparse ``type=`` converting with ``convert`` and keeping finite ``accept`` values.

    argparse reports a rejected value with the option's name and exits with
    status 2, before any server or cache is built.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda value: value > 0, "a positive integer")
_non_negative_int = _checked(int, lambda value: value >= 0, "a non-negative integer")
_positive_seconds = _checked(
    float, lambda value: value > 0, "a positive, finite number of seconds"
)
_non_negative_seconds = _checked(
    float, lambda value: value >= 0, "a non-negative, finite number of seconds"
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``mani-rank`` command."""
    parser = argparse.ArgumentParser(
        prog="mani-rank",
        description="MANI-Rank reproduction: fair consensus ranking experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list reproducible experiments and fair methods")

    run_parser = subparsers.add_parser("run", help="run a paper experiment")
    run_parser.add_argument("experiment", help="experiment id, e.g. figure4 or table1")
    run_parser.add_argument(
        "--scale",
        default="ci",
        choices=("ci", "paper"),
        help="workload size preset (default: ci)",
    )
    run_parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    run_parser.add_argument(
        "--output", default=None, help="write the result to this JSON file"
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="do not print the result table"
    )

    aggregate_parser = subparsers.add_parser(
        "aggregate", help="run a fair consensus method on CSV inputs"
    )
    aggregate_parser.add_argument("rankings_csv", help="ranking set CSV (see repro.io)")
    aggregate_parser.add_argument("candidates_csv", help="candidate table CSV (see repro.io)")
    aggregate_parser.add_argument(
        "--method", default="fair-borda", help="fair method name or paper label (A1-B4)"
    )
    aggregate_parser.add_argument(
        "--delta", type=float, default=0.1, help="MANI-Rank fairness threshold"
    )
    aggregate_parser.add_argument(
        "--strategy",
        default=None,
        choices=available_strategies(),
        help=(
            "post-process a seeded method with a fairness-preserving "
            "local-search repair using this neighbourhood strategy"
        ),
    )
    aggregate_parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "reuse the consensus disk cache at this directory: repeated "
            "queries replay the stored result instead of recomputing"
        ),
    )
    aggregate_parser.add_argument(
        "--cache-ttl",
        type=_positive_seconds,
        default=None,
        help=(
            "expire cached results older than this many seconds (both "
            "tiers; needs --cache-dir); default: never expire"
        ),
    )

    stream_parser = subparsers.add_parser(
        "stream",
        help="replay a JSONL add/remove event log through the streaming engine",
    )
    stream_parser.add_argument(
        "events_jsonl", help="JSONL event log (one add/remove event per line)"
    )
    stream_parser.add_argument("candidates_csv", help="candidate table CSV (see repro.io)")
    stream_parser.add_argument(
        "--method", default="fair-borda", help="fair method name or paper label (A1-B4)"
    )
    stream_parser.add_argument(
        "--delta", type=float, default=0.1, help="MANI-Rank fairness threshold"
    )
    stream_parser.add_argument(
        "--strategy",
        default=None,
        choices=available_strategies(),
        help="fairness-preserving local-search repair strategy",
    )
    stream_parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "recompute the consensus from a from-scratch rebuild of the final "
            "profile and fail unless it is bit-identical to the streamed result"
        ),
    )
    stream_parser.add_argument(
        "--dump-profile",
        default=None,
        help="write the final materialized profile to this rankings CSV",
    )
    stream_parser.add_argument(
        "--output", default=None, help="write the consensus payload to this JSON file"
    )

    serve_parser = subparsers.add_parser(
        "serve", help="serve cached consensus queries over HTTP (see docs/serving.md)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8340, help="bind port (0 picks a free port)"
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist cached results as JSON blobs under this directory",
    )
    serve_parser.add_argument(
        "--memory-capacity",
        type=_positive_int,
        default=256,
        help="max results held in the memory tier (default: 256)",
    )
    serve_parser.add_argument(
        "--cache-ttl",
        type=_positive_seconds,
        default=None,
        help=(
            "expire cached results older than this many seconds (both "
            "tiers); default: never expire"
        ),
    )
    serve_parser.add_argument(
        "--max-requests",
        type=_positive_int,
        default=None,
        help="shut down cleanly after this many requests (smoke testing)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=64,
        help=(
            "admission-control budget: concurrent compute requests beyond "
            "this (plus --queue-depth waiters) are shed as 503 (default: 64)"
        ),
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=_non_negative_int,
        default=16,
        help="requests allowed to wait for an in-flight slot (default: 16)",
    )
    serve_parser.add_argument(
        "--read-timeout",
        type=_positive_seconds,
        default=10.0,
        help=(
            "seconds granted to each read phase (request line, headers, "
            "body) before answering 408 (default: 10)"
        ),
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=_non_negative_seconds,
        default=5.0,
        help=(
            "seconds granted to in-flight requests during shutdown before "
            "they are cancelled (default: 5)"
        ),
    )
    return parser


def _command_list() -> int:
    print("Experiments (mani-rank run <id>):")
    for name, description in available_experiments().items():
        print(f"  {name:<10} {description}")
    print()
    print("Fair consensus methods (mani-rank aggregate --method <name>):")
    for name, label in describe_fair_methods().items():
        print(f"  {name:<22} {label}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    kwargs: dict[str, object] = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    result = run_experiment(args.experiment, **kwargs)
    if not args.quiet:
        print(result.to_text())
    if args.output:
        result.save(args.output)
        print(f"\nresult written to {args.output}")
    return 0


def _command_aggregate(args: argparse.Namespace) -> int:
    from repro.cache.service import ConsensusCacheService, compute_consensus_payload
    from repro.cache.store import ResultCache
    from repro.core.candidates import CandidateTable

    table = read_candidate_table(args.candidates_csv)
    rankings = read_ranking_set(args.rankings_csv, table)
    if args.cache_dir is not None:
        service = ConsensusCacheService(
            ResultCache(directory=args.cache_dir, ttl=args.cache_ttl)
        )
        response = service.aggregate(
            rankings, table, method=args.method, strategy=args.strategy, delta=args.delta
        )
        payload = response["result"]
    else:
        response = None
        payload = compute_consensus_payload(
            rankings, table, method=args.method, strategy=args.strategy, delta=args.delta
        )
    print(f"method: {payload['method_label']}   delta: {args.delta}")
    if response is not None:
        state = "hit" if response["cached"] else "miss"
        print(f"cache: {state} ({response['key'][:12]}, {args.cache_dir})")
    if "repair_strategy" in payload["diagnostics"]:
        print(f"local repair: {payload['diagnostics']['repair_strategy']}")
    print("consensus (best to worst):")
    print("  " + ", ".join(payload["consensus"]["names"]))
    print(f"PD loss: {payload['pd_loss']:.4f}")
    for entity, score in payload["parity"].items():
        label = "IRP" if entity == CandidateTable.INTERSECTION else f"ARP {entity}"
        print(f"{label}: {score:.4f}")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    from repro.core.candidates import CandidateTable
    from repro.io.serialization import dump_json
    from repro.streaming.engine import StreamingConsensusEngine
    from repro.streaming.replay import apply_events, read_events

    table = read_candidate_table(args.candidates_csv)
    events = read_events(args.events_jsonl, table)
    engine = StreamingConsensusEngine(
        table, method=args.method, strategy=args.strategy, delta=args.delta
    )
    apply_events(engine, events)
    payload = engine.consensus()
    n_adds = sum(1 for event in events if event.op == "add")
    fingerprint = engine.profile_fingerprint or ""
    print(
        f"replayed {len(events)} events ({n_adds} adds, "
        f"{len(events) - n_adds} removes)"
    )
    print(
        f"profile: {engine.n_rankings} rankings, version "
        f"{engine.profile_version}, fingerprint {fingerprint[:12]}"
    )
    print(f"method: {payload['method_label']}   delta: {args.delta}")
    print("consensus (best to worst):")
    print("  " + ", ".join(payload["consensus"]["names"]))
    print(f"PD loss: {payload['pd_loss']:.4f}")
    for entity, score in payload["parity"].items():
        label = "IRP" if entity == CandidateTable.INTERSECTION else f"ARP {entity}"
        print(f"{label}: {score:.4f}")
    if args.verify:
        reference = engine.rebuild_reference()
        if payload != reference:
            print(
                "verify: FAILED — streamed consensus differs from the "
                "from-scratch rebuild reference",
                file=sys.stderr,
            )
            return 1
        print("verify: bit-identical to the from-scratch rebuild reference")
    if args.dump_profile:
        from repro.io.csv_io import write_ranking_set

        write_ranking_set(engine.rankings, table, args.dump_profile)
        print(f"profile written to {args.dump_profile}")
    if args.output:
        dump_json(payload, args.output)
        print(f"consensus payload written to {args.output}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.cache.http import run_server
    from repro.cache.service import ConsensusCacheService
    from repro.cache.store import ResultCache

    cache = ResultCache(
        memory_capacity=args.memory_capacity,
        directory=args.cache_dir,
        ttl=args.cache_ttl,
    )

    def _announce(address: tuple[str, int]) -> None:
        host, port = address
        print(f"serving on http://{host}:{port}", flush=True)

    return run_server(
        ConsensusCacheService(cache),
        host=args.host,
        port=args.port,
        max_requests=args.max_requests,
        on_ready=_announce,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        read_timeout=args.read_timeout,
        drain_timeout=args.drain_timeout,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``mani-rank`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "aggregate" and args.cache_ttl is not None and args.cache_dir is None:
        parser.error("argument --cache-ttl: expiry needs a cache; add --cache-dir")
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "aggregate":
        return _command_aggregate(args)
    if args.command == "stream":
        return _command_stream(args)
    if args.command == "serve":
        return _command_serve(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
