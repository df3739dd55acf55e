"""Adversarial-client suite: slowloris, garbage headers, overload, drain.

Every scenario drives the real listener with raw sockets from
:mod:`tests.cache.faults`.  Timeout scenarios run on the
:class:`~tests.cache.faults.VirtualClock`, so the suite never sleeps on real
time; blocking-compute scenarios hold requests in flight with
:class:`~tests.cache.faults.GateService` events instead of timing.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.cache.http import ConsensusHTTPServer
from repro.cache.resilience import ServerLimits
from repro.cache.service import ConsensusCacheService, compute_consensus_payload
from repro.datagen.attributes import scalability_table
from repro.io.serialization import candidate_table_to_dict, ranking_set_to_dict
from tests.cache.faults import (
    GateService,
    VirtualClock,
    http_request,
    read_http_response,
    send_raw,
    slowloris_connect,
    yield_until,
)

DELTA = 0.35


@pytest.fixture
def query_body(tiny_table, tiny_rankings):
    return {
        "rankings": ranking_set_to_dict(tiny_rankings),
        "candidates": candidate_table_to_dict(tiny_table),
        "delta": DELTA,
    }


def run_scenario(scenario, service=None, clock=None, **server_kwargs):
    """Run ``scenario(server, host, port)``; return (result, server) post-drain."""

    async def main():
        server = ConsensusHTTPServer(
            service if service is not None else ConsensusCacheService(),
            port=0,
            clock=clock,
            **server_kwargs,
        )
        host, port = await server.start()
        serve_task = asyncio.create_task(server.serve())
        try:
            result = await scenario(server, host, port)
        finally:
            server.request_stop()
            await serve_task
        return result, server

    return asyncio.run(main())


class TestSlowClients:
    def test_slowloris_request_line_times_out_408(self):
        clock = VirtualClock()

        async def scenario(server, host, port):
            reader, writer = await slowloris_connect(host, port, b"POST /aggre")
            await yield_until(lambda: clock.pending_timers >= 1)
            clock.advance(10.1)  # past the default 10 s read deadline
            status, _, body = await read_http_response(reader)
            writer.close()
            await writer.wait_closed()
            return status, body

        (status, body), server = run_scenario(scenario, clock=clock)
        assert status == 408
        assert "request line" in body["error"]

    def test_slowloris_headers_time_out_408(self):
        clock = VirtualClock()

        async def scenario(server, host, port):
            reader, writer = await slowloris_connect(
                host, port, b"POST /aggregate HTTP/1.1\r\nX-Drip: 1\r\n"
            )
            # Timers: request line, the X-Drip line, then the parked readline
            # for the next header — advance only once the server is parked.
            await yield_until(
                lambda: clock.timers_created >= 3 and clock.pending_timers == 1
            )
            clock.advance(10.1)
            status, _, body = await read_http_response(reader)
            writer.close()
            await writer.wait_closed()
            return status, body

        (status, body), _ = run_scenario(scenario, clock=clock)
        assert status == 408
        assert "headers" in body["error"]

    def test_slowloris_body_times_out_408(self):
        clock = VirtualClock()

        async def scenario(server, host, port):
            reader, writer = await slowloris_connect(
                host,
                port,
                b"POST /aggregate HTTP/1.1\r\nContent-Length: 100\r\n\r\nfive!",
            )
            # Timers: request line, Content-Length line, header terminator,
            # then the parked readexactly — advance only once parked there.
            await yield_until(
                lambda: clock.timers_created >= 4 and clock.pending_timers == 1
            )
            clock.advance(10.1)
            status, _, body = await read_http_response(reader)
            writer.close()
            await writer.wait_closed()
            return status, body

        (status, body), _ = run_scenario(scenario, clock=clock)
        assert status == 408
        assert "body" in body["error"]

    def test_timeouts_are_counted_in_stats(self):
        clock = VirtualClock()

        async def scenario(server, host, port):
            reader, writer = await slowloris_connect(host, port, b"GET /st")
            await yield_until(lambda: clock.pending_timers >= 1)
            clock.advance(10.1)
            await read_http_response(reader)
            writer.close()
            await writer.wait_closed()
            return await http_request(host, port, "GET", "/stats")

        (status, _, payload), _ = run_scenario(scenario, clock=clock)
        assert status == 200
        assert payload["server"]["read_timeouts"] == 1
        assert payload["server"]["responses_by_status"]["408"] == 1


class TestGarbageRequests:
    def test_oversized_header_line_431(self):
        async def scenario(server, host, port):
            request = (
                b"POST /aggregate HTTP/1.1\r\nX-Big: " + b"a" * 9000 + b"\r\n\r\n"
            )
            return await send_raw(host, port, request)

        (status, _, body), _ = run_scenario(scenario)
        assert status == 431
        assert "header line" in body["error"]

    def test_unterminated_giant_request_line_431(self):
        async def scenario(server, host, port):
            # > the 64 KiB StreamReader line limit, no newline anywhere.
            return await send_raw(host, port, b"G" * (70 * 1024), close_write=True)

        (status, _, _), _ = run_scenario(scenario)
        assert status == 431

    def test_too_many_headers_431(self):
        async def scenario(server, host, port):
            headers = b"".join(b"X-%d: v\r\n" % index for index in range(7))
            request = b"POST /aggregate HTTP/1.1\r\n" + headers + b"\r\n"
            return await send_raw(host, port, request)

        (status, _, body), _ = run_scenario(
            scenario, limits=ServerLimits(max_header_count=5)
        )
        assert status == 431
        assert "too many headers" in body["error"]

    def test_non_numeric_content_length_400(self):
        async def scenario(server, host, port):
            request = b"POST /aggregate HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
            return await send_raw(host, port, request)

        (status, _, body), _ = run_scenario(scenario)
        assert status == 400
        assert "invalid Content-Length" in body["error"]

    def test_negative_content_length_400(self):
        async def scenario(server, host, port):
            request = b"POST /aggregate HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            return await send_raw(host, port, request)

        (status, _, body), _ = run_scenario(scenario)
        assert status == 400
        assert "negative Content-Length" in body["error"]

    def test_truncated_body_400_with_byte_counts(self):
        async def scenario(server, host, port):
            request = (
                b"POST /aggregate HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"
            )
            return await send_raw(host, port, request, close_write=True)

        (status, _, body), _ = run_scenario(scenario)
        assert status == 400
        assert "truncated request body" in body["error"]
        assert "expected 100 bytes, got 5" in body["error"]


class TestLoadShedding:
    def test_overload_is_shed_503_with_retry_after(self, query_body):
        service = GateService()

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            first = asyncio.create_task(
                http_request(host, port, "POST", "/aggregate", query_body)
            )
            assert await loop.run_in_executor(None, lambda: service.started.wait(10))
            shed = await http_request(host, port, "POST", "/aggregate", query_body)
            stats = await http_request(host, port, "GET", "/stats")
            service.gate.set()
            ok = await first
            return shed, ok, stats

        (shed, ok, stats), _ = run_scenario(
            scenario, service=service, max_inflight=1, queue_depth=0
        )
        shed_status, shed_headers, shed_body = shed
        assert shed_status == 503
        assert shed_headers["retry-after"] == "1"
        assert "overloaded" in shed_body["error"]
        ok_status, _, ok_body = ok
        assert ok_status == 200
        assert ok_body["result"] == {"ok": True}  # the admitted request finished intact
        assert stats[2]["server"]["admission"]["shed"] == 1

    def test_queue_admits_once_a_slot_frees(self, query_body):
        service = GateService()

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            first = asyncio.create_task(
                http_request(host, port, "POST", "/aggregate", query_body)
            )
            assert await loop.run_in_executor(None, lambda: service.started.wait(10))
            queued = asyncio.create_task(
                http_request(host, port, "POST", "/aggregate", query_body)
            )
            await yield_until(lambda: server._admission.queued == 1)
            shed = await http_request(host, port, "POST", "/aggregate", query_body)
            service.gate.set()  # releases first; the queued request then runs
            return shed, await first, await queued

        (shed, first, queued), _ = run_scenario(
            scenario, service=service, max_inflight=1, queue_depth=1
        )
        assert shed[0] == 503
        assert first[0] == 200
        assert queued[0] == 200

    def test_health_endpoints_answer_even_under_full_load(self, query_body):
        service = GateService()

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            first = asyncio.create_task(
                http_request(host, port, "POST", "/aggregate", query_body)
            )
            assert await loop.run_in_executor(None, lambda: service.started.wait(10))
            health = await http_request(host, port, "GET", "/healthz")
            ready = await http_request(host, port, "GET", "/readyz")
            service.gate.set()
            await first
            return health, ready

        (health, ready), _ = run_scenario(
            scenario, service=service, max_inflight=1, queue_depth=0
        )
        assert health[0] == 200
        assert health[2]["status"] == "ok"
        assert ready[0] == 200
        assert ready[2] == {"ready": True}


class TestLiveness:
    def test_healthz_answers_while_a_query_parse_is_held(self, monkeypatch, query_body):
        import repro.cache.http as http_module

        real_parse = http_module._parse_inputs
        parsing = threading.Event()
        healthz_answered = threading.Event()
        held = {}

        def held_parse(body):
            parsing.set()
            # On the event loop this wait would block /healthz itself, so it
            # could only time out.
            held["released"] = healthz_answered.wait(timeout=5)
            return real_parse(body)

        monkeypatch.setattr(http_module, "_parse_inputs", held_parse)

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            query = asyncio.create_task(
                http_request(host, port, "POST", "/aggregate", query_body)
            )
            assert await loop.run_in_executor(None, parsing.wait, 10)
            health = await asyncio.wait_for(http_request(host, port, "GET", "/healthz"), 10)
            healthz_answered.set()
            return health, await query

        (health, query), _ = run_scenario(scenario)
        assert held["released"] is True  # /healthz answered during the parse
        assert health[0] == 200
        assert query[0] == 200
        assert query[2]["cached"] is False

    def test_healthz_answers_within_50_ms_while_a_10_mib_body_is_parsed(
        self, monkeypatch
    ):
        import repro.cache.http as http_module

        n = 100
        table = scalability_table(n, rng=3)
        rng = np.random.default_rng(3)
        rows = [json.dumps(rng.permutation(n).tolist()) for _ in range(64)]
        count = (10 << 20) // (sum(map(len, rows)) // len(rows) + 2) + 1
        raw = (
            '{"rankings": {"orders": ['
            + ", ".join(rows[index % len(rows)] for index in range(count))
            + ']}, "candidates": '
            + json.dumps(candidate_table_to_dict(table))
            + ', "delta": 0.35}'
        ).encode()
        assert len(raw) >= 10 << 20
        request = f"POST /aggregate HTTP/1.1\r\nContent-Length: {len(raw)}\r\n\r\n"

        real_parse = http_module.parse_orders
        parsing = threading.Event()
        span = {}

        def timed_parse(text):
            span["start"] = time.perf_counter()
            parsing.set()
            try:
                return real_parse(text)
            finally:
                span["end"] = time.perf_counter()

        monkeypatch.setattr(http_module, "parse_orders", timed_parse)
        service = GateService()
        service.gate.set()  # the compute answers at once; the parse is what is timed

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            query = asyncio.create_task(send_raw(host, port, request.encode() + raw))
            assert await loop.run_in_executor(None, parsing.wait, 30)
            asked = time.perf_counter()
            health = await http_request(host, port, "GET", "/healthz")
            answered = time.perf_counter()
            await query
            return health, asked, answered, await http_request(host, port, "GET", "/stats")

        (health, asked, answered, stats), _ = run_scenario(scenario, service=service)
        assert health[0] == 200
        assert answered - asked < 0.05
        assert answered < span["end"]  # answered while the body was being parsed
        assert stats[2]["server"]["ingest"] == {"array": 1, "fallback": 0}


class TestGracefulDrain:
    def test_drain_finishes_inflight_flips_readiness_and_sheds_new_work(
        self, query_body
    ):
        service = GateService()

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            first = asyncio.create_task(
                http_request(host, port, "POST", "/aggregate", query_body)
            )
            assert await loop.run_in_executor(None, lambda: service.started.wait(10))
            ready_before = await http_request(host, port, "GET", "/readyz")
            server.request_stop()
            await yield_until(lambda: server.draining)
            ready_during = await http_request(host, port, "GET", "/readyz")
            shed_during = await http_request(host, port, "POST", "/aggregate", query_body)
            service.gate.set()  # let the in-flight request finish the drain
            ok = await first
            return ready_before, ready_during, shed_during, ok

        (ready_before, ready_during, shed_during, ok), server = run_scenario(
            scenario, service=service, drain_timeout=30.0
        )
        assert ready_before[0] == 200 and ready_before[2] == {"ready": True}
        assert ready_during[0] == 503
        assert ready_during[2] == {"ready": False, "reason": "draining"}
        assert shed_during[0] == 503
        assert shed_during[1]["retry-after"] == "1"
        assert "draining" in shed_during[2]["error"]
        assert ok[0] == 200  # the in-flight request was drained, not killed
        assert ok[2]["result"] == {"ok": True}
        assert server.drain_cancelled == 0

    def test_drain_timeout_cancels_stragglers(self):
        clock = VirtualClock()

        async def scenario(server, host, port):
            reader, writer = await slowloris_connect(
                host, port, b"POST /aggregate HTTP/1.1\r\n"
            )
            # Parked on the first header readline (timer 2 of 2).
            await yield_until(
                lambda: clock.timers_created >= 2 and clock.pending_timers == 1
            )
            server.request_stop()
            await yield_until(lambda: server.draining)
            await yield_until(lambda: clock.pending_timers >= 2)  # + drain timer
            clock.advance(5.1)  # drain_timeout < read_timeout: drain fires first
            writer.close()
            await writer.wait_closed()
            return None

        _, server = run_scenario(scenario, clock=clock, drain_timeout=5.0)
        assert server.drain_cancelled == 1

    def test_readyz_flips_even_before_the_drain_tick(self, query_body):
        async def scenario(server, host, port):
            # Connect before stopping so the listener close cannot race the
            # handshake; the request itself is sent only after the stop.
            reader, writer = await asyncio.open_connection(host, port)
            await yield_until(lambda: len(server._connections) >= 1)
            server.request_stop()
            # No yield between stop and request: readiness consults the stop
            # event directly, so the flip is visible before serve() marks the
            # server draining.
            writer.write(b"GET /readyz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            response = await read_http_response(reader)
            writer.close()
            await writer.wait_closed()
            return response

        (status, _, body), _ = run_scenario(scenario)
        assert status == 503
        assert body["ready"] is False


class TestBitIdentityUnderAdversaries:
    def test_responses_stay_bit_identical_with_a_slowloris_pinned(
        self, query_body, tiny_table, tiny_rankings
    ):
        cold = compute_consensus_payload(tiny_rankings, tiny_table, delta=DELTA)
        clock = VirtualClock()

        async def scenario(server, host, port):
            reader, writer = await slowloris_connect(host, port, b"POST /slow")
            first = await http_request(host, port, "POST", "/aggregate", query_body)
            second = await http_request(host, port, "POST", "/aggregate", query_body)
            await yield_until(lambda: clock.pending_timers >= 1)
            clock.advance(10.1)
            timed_out, _, _ = await read_http_response(reader)
            writer.close()
            await writer.wait_closed()
            return first, second, timed_out

        (first, second, timed_out), _ = run_scenario(scenario, clock=clock)
        assert timed_out == 408
        assert first[0] == second[0] == 200
        assert first[2]["cached"] is False
        assert second[2]["cached"] is True
        assert first[2]["result"] == second[2]["result"] == cold
