"""Tests for the asyncio HTTP front-end (raw-socket clients, no extra deps)."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.cache.http import ConsensusHTTPServer, run_server
from repro.cache.service import ConsensusCacheService, compute_consensus_payload
from repro.io.csv_io import write_candidate_table, write_ranking_set
from repro.io.serialization import candidate_table_to_dict, ranking_set_to_dict

DELTA = 0.35


async def http_request(host, port, verb, path, body=None):
    """Issue one HTTP/1.1 request with a raw asyncio socket, return (status, json)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{verb} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()  # server always closes the connection
    writer.close()
    await writer.wait_closed()
    header_text, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(header_text.split()[1])
    return status, json.loads(body_bytes)


def with_server(scenario, service=None, max_requests=None):
    """Run ``scenario(host, port)`` against a fresh server on a free port."""

    async def main():
        server = ConsensusHTTPServer(
            service or ConsensusCacheService(), port=0, max_requests=max_requests
        )
        host, port = await server.start()
        serve_task = asyncio.create_task(server.serve())
        try:
            return await scenario(host, port), serve_task.done()
        finally:
            server.request_stop()
            await serve_task

    return asyncio.run(main())


@pytest.fixture
def query_body(tiny_table, tiny_rankings):
    return {
        "rankings": ranking_set_to_dict(tiny_rankings),
        "candidates": candidate_table_to_dict(tiny_table),
        "delta": DELTA,
    }


class TestEndpoints:
    def test_aggregate_miss_then_hit(self, query_body, tiny_table, tiny_rankings):
        cold = compute_consensus_payload(tiny_rankings, tiny_table, delta=DELTA)

        async def scenario(host, port):
            first = await http_request(host, port, "POST", "/aggregate", query_body)
            second = await http_request(host, port, "POST", "/aggregate", query_body)
            return first, second

        (first, second), _ = with_server(scenario)
        assert first[0] == second[0] == 200
        assert first[1]["cached"] is False
        assert second[1]["cached"] is True
        assert first[1]["result"] == second[1]["result"] == cold

    def test_fairness_projection_shares_the_cache_entry(self, query_body):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/aggregate", query_body)
            return await http_request(host, port, "POST", "/fairness", query_body)

        (status, payload), _ = with_server(scenario)
        assert status == 200
        assert payload["cached"] is True  # /aggregate already populated the entry
        assert payload["method_label"] == "Fair-Borda"
        assert "IRP" in payload["fairness"]
        assert set(payload) == {
            "key", "cached", "method", "method_label", "pd_loss", "parity", "fairness",
        }

    def test_csv_path_inputs(self, tmp_path, tiny_table, tiny_rankings):
        candidates_csv = tmp_path / "candidates.csv"
        rankings_csv = tmp_path / "rankings.csv"
        write_candidate_table(tiny_table, candidates_csv)
        write_ranking_set(tiny_rankings, tiny_table, rankings_csv)
        body = {
            "rankings_csv": str(rankings_csv),
            "candidates_csv": str(candidates_csv),
            "delta": DELTA,
        }

        async def scenario(host, port):
            return await http_request(host, port, "POST", "/aggregate", body)

        (status, payload), _ = with_server(scenario)
        assert status == 200
        assert payload["result"]["method_label"] == "Fair-Borda"

    def test_stats_counters(self, query_body):
        service = ConsensusCacheService()

        async def scenario(host, port):
            await http_request(host, port, "POST", "/aggregate", query_body)
            await http_request(host, port, "POST", "/aggregate", query_body)
            return await http_request(host, port, "GET", "/stats")

        (status, payload), _ = with_server(scenario, service=service)
        assert status == 200
        assert payload["cache"]["hits"] == 1
        assert payload["cache"]["misses"] == 1
        assert payload["server"]["requests"] == 2  # responses completed before /stats
        assert payload["server"]["endpoints"] == {"/aggregate": 2, "/stats": 1}
        assert "fair-borda-insertion" in payload["methods"]
        assert "kernel_backend" not in payload

    def test_healthz_reports_liveness(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/healthz")

        (status, payload), _ = with_server(scenario)
        assert status == 200
        assert payload == {
            "status": "ok",
            "disk_degraded": False,
            "breaker_state": "closed",
            "disk_errors": 0,
        }


class TestErrors:
    def test_unknown_path_is_404(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/nope")

        (status, payload), _ = with_server(scenario)
        assert status == 404
        assert payload["paths"] == [
            "/aggregate", "/consensus", "/fairness", "/healthz", "/readyz",
            "/stats", "/update",
        ]

    def test_wrong_verb_is_405(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/aggregate")

        (status, _), _ = with_server(scenario)
        assert status == 405

    def test_invalid_json_is_400(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            body = b"{not json"
            writer.write(
                f"POST /aggregate HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1]), json.loads(raw.partition(b"\r\n\r\n")[2])

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "not valid JSON" in payload["error"]

    def test_missing_inputs_is_400(self):
        async def scenario(host, port):
            return await http_request(host, port, "POST", "/aggregate", {"delta": 0.1})

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "rankings" in payload["error"]

    def test_unknown_method_is_400(self, query_body):
        async def scenario(host, port):
            return await http_request(
                host, port, "POST", "/aggregate", {**query_body, "method": "nope"}
            )

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "unknown fair consensus method" in payload["error"]

    def test_out_of_range_delta_is_400(self, query_body):
        async def scenario(host, port):
            return await http_request(
                host, port, "POST", "/aggregate", {**query_body, "delta": 2.0}
            )

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "error" in payload

    def test_malformed_request_line_is_400(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GIBBERISH\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1])

        status, _ = with_server(scenario)
        assert status == 400


class TestLifecycle:
    def test_max_requests_triggers_clean_shutdown(self, query_body):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/aggregate", query_body)
            await http_request(host, port, "GET", "/stats")
            # Give the serve loop a tick to observe the exhausted budget.
            await asyncio.sleep(0.05)
            return None

        _, serve_done = with_server(scenario, max_requests=2)
        assert serve_done  # serve() returned on its own, no request_stop needed

    def test_run_server_blocks_until_budget_spent(self, query_body):
        """The blocking entry point behind ``mani-rank serve`` exits cleanly."""
        responses = {}
        threads = []

        def client(address):
            import urllib.request

            host, port = address
            data = json.dumps(query_body).encode()
            request = urllib.request.Request(
                f"http://{host}:{port}/aggregate", data=data, method="POST"
            )
            with urllib.request.urlopen(request) as response:
                responses["aggregate"] = json.loads(response.read())
            with urllib.request.urlopen(f"http://{host}:{port}/stats") as response:
                responses["stats"] = json.loads(response.read())

        def on_ready(address):
            thread = threading.Thread(target=client, args=(address,), daemon=True)
            threads.append(thread)
            thread.start()

        exit_code = run_server(port=0, max_requests=2, on_ready=on_ready)
        threads[0].join(timeout=10)
        assert exit_code == 0
        assert responses["aggregate"]["cached"] is False
        assert responses["stats"]["cache"]["misses"] == 1
