"""Served end-to-end benchmark of ``mani-rank serve`` plus a traced per-layer replay.

``python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
spawns the real server on loopback, drives it closed loop with pre-encoded
request bodies, checks every response against an in-process oracle, reconciles
the client's counts with ``GET /stats``, and prints one JSON result line.  See
``servebench/run.py`` for the workloads and ``BENCHMARK.json`` for the metrics.
"""
