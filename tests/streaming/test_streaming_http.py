"""Tests for the streaming HTTP endpoints (/update, /consensus) and /stats."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.cache.http import ConsensusHTTPServer
from repro.cache.service import ConsensusCacheService
from repro.io.serialization import candidate_table_to_dict
from repro.streaming.service import StreamingConsensusService

DELTA = 0.35

RANKING_A = [0, 1, 2, 3, 4, 5]
RANKING_B = [5, 4, 3, 2, 1, 0]
RANKING_C = [1, 0, 3, 2, 5, 4]


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


def with_server(scenario, service=None):
    """Run ``scenario(host, port)`` against a fresh server on a free port."""

    async def main():
        server = ConsensusHTTPServer(service or ConsensusCacheService(), port=0)
        host, port = await server.start()
        serve_task = asyncio.create_task(server.serve())
        try:
            return await scenario(host, port)
        finally:
            server.request_stop()
            await serve_task

    return asyncio.run(main())


@pytest.fixture
def first_update(tiny_table):
    return {
        "candidates": candidate_table_to_dict(tiny_table),
        "delta": DELTA,
        "add": [
            {"ranking": RANKING_A, "label": "j1"},
            {"ranking": RANKING_C},
        ],
    }


class TestStreamingEndpoints:
    def test_update_then_consensus_then_invalidate(self, first_update):
        async def scenario(host, port):
            update = await http_request(host, port, "POST", "/update", first_update)
            cold = await http_request(host, port, "GET", "/consensus")
            warm = await http_request(host, port, "GET", "/consensus")
            second = await http_request(
                host, port, "POST", "/update", {"add": [{"ranking": RANKING_B}]}
            )
            refreshed = await http_request(host, port, "GET", "/consensus")
            stats = await http_request(host, port, "GET", "/stats")
            return update, cold, warm, second, refreshed, stats

        update, cold, warm, second, refreshed, stats = with_server(scenario)
        assert update[0] == 200
        assert update[1]["profile_version"] == 1 and update[1]["n_rankings"] == 2
        assert cold[0] == warm[0] == 200
        assert cold[1]["cached"] is False and warm[1]["cached"] is True
        assert cold[1]["result"] == warm[1]["result"]
        assert second[1]["invalidated"] == 1
        assert refreshed[1]["cached"] is False
        assert refreshed[1]["key"] != cold[1]["key"]
        assert stats[1]["streaming"]["n_rankings"] == 3
        assert stats[1]["streaming"]["profile_version"] == 2
        assert stats[1]["cache"]["invalidations"] == 1
        assert stats[1]["cache"]["profile_version"] == 2

    def test_streamed_consensus_is_bit_identical_to_aggregate(
        self, first_update, tiny_table
    ):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/update", first_update)
            streamed = await http_request(host, port, "GET", "/consensus")
            server_profile = await http_request(host, port, "GET", "/stats")
            return streamed, server_profile

        service = ConsensusCacheService()
        streamed, _ = with_server(scenario, service=service)

        from repro.core.ranking import Ranking
        from repro.core.ranking_set import RankingSet

        profile = RankingSet([Ranking(RANKING_A), Ranking(RANKING_C)])
        batch = ConsensusCacheService().aggregate(profile, tiny_table, delta=DELTA)
        assert streamed[1]["key"] == batch["key"]
        assert streamed[1]["result"] == batch["result"]

    def test_streaming_routes_run_on_the_compute_pool(self, monkeypatch, first_update):
        threads: dict[str, str] = {}

        def spy(name):
            method = getattr(StreamingConsensusService, name)

            def recorded(self, *args, **kwargs):
                threads[name] = threading.current_thread().name
                return method(self, *args, **kwargs)

            monkeypatch.setattr(StreamingConsensusService, name, recorded)

        spy("update")
        spy("answer")

        async def scenario(host, port):
            update = await http_request(host, port, "POST", "/update", first_update)
            consensus = await http_request(host, port, "GET", "/consensus")
            return update[0], consensus[0]

        assert with_server(scenario) == (200, 200)
        assert set(threads) == {"update", "answer"}
        assert all(name.startswith("compute") for name in threads.values()), threads

    def test_first_update_requires_the_candidate_table(self):
        async def scenario(host, port):
            return await http_request(
                host, port, "POST", "/update", {"add": [{"ranking": RANKING_A}]}
            )

        status, payload = with_server(scenario)
        assert status == 400
        assert "candidate table" in payload["error"]

    def test_consensus_before_any_update_is_a_client_error(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/consensus")

        status, payload = with_server(scenario)
        assert status == 400
        assert "/update" in payload["error"]

    def test_malformed_update_entries_are_client_errors(self, first_update, tiny_table):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/update", first_update)
            bad_entry = await http_request(
                host, port, "POST", "/update", {"add": [{"weight": 2}]}
            )
            bad_remove = await http_request(
                host, port, "POST", "/update", {"remove": [{"ranking": RANKING_B}]}
            )
            empty = await http_request(host, port, "POST", "/update", {})
            return bad_entry, bad_remove, empty

        bad_entry, bad_remove, empty = with_server(scenario)
        assert bad_entry[0] == 400
        assert bad_remove[0] == 400  # RANKING_B was never submitted
        assert empty[0] == 400

    def test_stats_reports_no_streaming_profile_before_first_update(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/stats")

        status, payload = with_server(scenario)
        assert status == 200
        assert payload["streaming"] is None
