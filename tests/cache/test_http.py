"""Tests for the asyncio HTTP front-end (raw-socket clients, no extra deps)."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.cache.fingerprint import cache_key
from repro.cache.http import ConsensusHTTPServer, _answer_body, run_server
from repro.cache.service import (
    Answer,
    ConsensusCacheService,
    compute_consensus_payload,
    consensus_json,
)
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


async def raw_request(host, port, verb, path, body):
    """Send ``body`` bytes as they are, return (status, json)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{verb} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return int(raw.split()[1]), json.loads(raw.partition(b"\r\n\r\n")[2])


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

    def test_aggregate_body_splices_the_cached_bytes(self, query_body, tiny_table, tiny_rankings):
        request = json.dumps(query_body).encode()

        async def scenario(host, port):
            bodies = []
            for _ in range(2):
                reader, writer = await asyncio.open_connection(host, port)
                head = f"POST /aggregate HTTP/1.1\r\nContent-Length: {len(request)}\r\n\r\n"
                writer.write(head.encode() + request)
                await writer.drain()
                bodies.append((await reader.read()).partition(b"\r\n\r\n")[2])
                writer.close()
                await writer.wait_closed()
            return bodies

        (miss, hit), _ = with_server(scenario)
        key = cache_key(tiny_rankings, tiny_table, delta=DELTA).digest
        stored = consensus_json(tiny_rankings, tiny_table, delta=DELTA)
        # json.dumps's envelope, the canonical payload bytes as its result.
        envelope = f'{{"key": "{key}", "cached": false, "result": '.encode()
        assert miss == envelope + stored + b"}"
        assert hit == miss.replace(b'"cached": false', b'"cached": true', 1)

    def test_answer_body_matches_the_json_dumps_envelope(self):
        answer = Answer("ab12", True, b'{"order":[2,0,1],"pd_loss":0.5}')
        body = _answer_body(answer, profile_version=3)
        assert body == (
            b'{"key": "ab12", "cached": true, "result": {"order":[2,0,1],"pd_loss":0.5}, '
            b'"profile_version": 3}'
        )
        assert json.loads(body) == {**answer.to_dict(), "profile_version": 3}

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
            return await raw_request(host, port, "POST", "/aggregate", b"{not json")

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "not valid JSON" in payload["error"]

    @pytest.mark.parametrize("path", ["/aggregate", "/fairness", "/update"])
    def test_non_utf8_body_is_400(self, path):
        async def scenario(host, port):
            answer = await raw_request(host, port, "POST", path, b'{"rankings": "\xff"}')
            return answer, await stats_of(host, port)

        ((status, payload), (_, stats)), _ = with_server(scenario)
        assert status == 400
        assert payload["error"].startswith("request body is not valid JSON: ")
        assert "500" not in stats["server"]["responses_by_status"]
        assert stats["server"]["body_memo"]["entries"] == 0

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


def stats_of(host, port):
    """``GET /stats`` body of a running server."""
    return http_request(host, port, "GET", "/stats")


class GatedComputeService(ConsensusCacheService):
    """A real cache service whose computes wait for the test to open a gate."""

    def __init__(self, cache=None):
        super().__init__(cache)
        self.started = threading.Event()
        self.gate = threading.Event()
        self.computes = 0

    def compute(self, *args, **kwargs):
        self.computes += 1
        self.started.set()
        assert self.gate.wait(timeout=30), "compute gate never opened"
        return super().compute(*args, **kwargs)


class TestBodyMemo:
    def test_repeated_body_skips_profile_build_and_fingerprint(
        self, monkeypatch, query_body, tiny_table, tiny_rankings
    ):
        import repro.cache.http as http_module
        import repro.cache.service as service_module

        calls = {"build": 0, "key": 0}

        def spy(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            http_module, "ranking_set_from_dict", spy("build", http_module.ranking_set_from_dict)
        )
        monkeypatch.setattr(http_module, "cache_key", spy("key", http_module.cache_key))
        monkeypatch.setattr(service_module, "cache_key", spy("key", service_module.cache_key))
        cold = compute_consensus_payload(tiny_rankings, tiny_table, delta=DELTA)

        async def scenario(host, port):
            first = await http_request(host, port, "POST", "/aggregate", query_body)
            after_first = dict(calls)
            second = await http_request(host, port, "POST", "/aggregate", query_body)
            return first, second, after_first, await stats_of(host, port)

        (first, second, after_first, (_, stats)), _ = with_server(scenario)
        assert after_first == {"build": 1, "key": 1}
        assert calls == after_first  # the repeat built no profile and hashed no key
        assert first[1]["cached"] is False
        assert second[0] == 200
        assert second[1] == {"key": first[1]["key"], "cached": True, "result": cold}
        assert stats["server"]["body_memo"] == {"entries": 1, "hits": 1, "coalesced": 0}

    def test_fairness_after_aggregate_of_the_same_bytes_is_a_memo_hit(self, query_body):
        async def scenario(host, port):
            first = await http_request(host, port, "POST", "/aggregate", query_body)
            fairness = await http_request(host, port, "POST", "/fairness", query_body)
            return first, fairness, await stats_of(host, port)

        (first, fairness, (_, stats)), _ = with_server(scenario)
        assert fairness[0] == 200
        assert fairness[1]["cached"] is True
        assert fairness[1]["key"] == first[1]["key"]
        assert fairness[1]["parity"] == first[1]["result"]["parity"]
        assert stats["server"]["body_memo"]["hits"] == 1
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == 2

    def test_csv_bodies_are_never_memoised(self, tmp_path, tiny_table, tiny_rankings):
        from repro.core.ranking_set import RankingSet

        candidates_csv = tmp_path / "candidates.csv"
        rankings_csv = tmp_path / "rankings.csv"
        write_candidate_table(tiny_table, candidates_csv)
        write_ranking_set(tiny_rankings, tiny_table, rankings_csv)
        rewritten = RankingSet.from_orders(
            [[1, 2, 4, 0, 3, 5], [2, 1, 4, 3, 0, 5], [4, 1, 2, 5, 0, 3]],
            labels=["r1", "r2", "r3"],
        )
        body = {
            "rankings_csv": str(rankings_csv),
            "candidates_csv": str(candidates_csv),
            "delta": DELTA,
        }

        async def scenario(host, port):
            first = await http_request(host, port, "POST", "/aggregate", body)
            write_ranking_set(rewritten, tiny_table, rankings_csv)
            second = await http_request(host, port, "POST", "/aggregate", body)
            return first, second, await stats_of(host, port)

        (first, second, (_, stats)), _ = with_server(scenario)
        assert first[1]["result"] == compute_consensus_payload(
            tiny_rankings, tiny_table, delta=DELTA
        )
        assert second[0] == 200
        assert second[1]["cached"] is False
        assert second[1]["key"] != first[1]["key"]
        assert second[1]["result"] == compute_consensus_payload(
            rewritten, tiny_table, delta=DELTA
        )
        assert stats["server"]["body_memo"] == {"entries": 0, "hits": 0, "coalesced": 0}

    @pytest.mark.parametrize("gone", ["invalidated", "evicted", "expired"])
    def test_memo_hit_on_a_vanished_entry_recomputes_with_one_lookup(
        self, gone, query_body, tiny_table, tiny_rankings
    ):
        from repro.cache.store import ResultCache
        from tests.cache.faults import ManualClock

        clock = ManualClock()
        cache = {
            "invalidated": lambda: ResultCache(),
            "evicted": lambda: ResultCache(memory_capacity=1),
            "expired": lambda: ResultCache(ttl=10.0, clock=clock),
        }[gone]()
        service = ConsensusCacheService(cache)
        other_body = {**query_body, "method": "fair-copeland"}
        cold = compute_consensus_payload(tiny_rankings, tiny_table, delta=DELTA)

        async def scenario(host, port):
            queries = 0
            first = await http_request(host, port, "POST", "/aggregate", query_body)
            queries += 1
            if gone == "invalidated":
                assert service.cache.invalidate([first[1]["key"]]) == 1
            elif gone == "evicted":
                await http_request(host, port, "POST", "/aggregate", other_body)
                queries += 1
            else:
                clock.advance(10.0)
            again = await http_request(host, port, "POST", "/aggregate", query_body)
            queries += 1
            return first, again, queries, await stats_of(host, port)

        (first, again, queries, (_, stats)), _ = with_server(scenario, service=service)
        assert again[0] == 200
        assert again[1] == {"key": first[1]["key"], "cached": False, "result": cold}
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == queries
        assert stats["cache"]["hits"] == 0
        assert stats["server"]["body_memo"]["hits"] == 0

    @pytest.mark.parametrize(
        "change",
        [{"method": "nope"}, {"strategy": "nope"}, {"delta": 2.0}, {"rankings": {}}],
        ids=["unknown-method", "unknown-strategy", "bad-delta", "no-rankings"],
    )
    def test_a_failed_query_is_never_recorded(self, change, query_body):
        body = {**query_body, **change}

        async def scenario(host, port):
            first = await http_request(host, port, "POST", "/aggregate", body)
            second = await http_request(host, port, "POST", "/aggregate", body)
            return first, second, await stats_of(host, port)

        (first, second, (_, stats)), _ = with_server(scenario)
        assert first[0] == second[0] == 400
        assert stats["server"]["body_memo"] == {"entries": 0, "hits": 0, "coalesced": 0}

    def test_the_memo_keeps_its_bound_and_drops_the_oldest_body(
        self, monkeypatch, query_body
    ):
        import repro.cache.http as http_module

        monkeypatch.setattr(http_module, "BODY_MEMO_ENTRIES", 2)
        # Distinct bytes, one cache key: the extra field is not part of the query.
        bodies = [{**query_body, "note": index} for index in range(3)]

        async def scenario(host, port):
            for body in bodies:
                await http_request(host, port, "POST", "/aggregate", body)
            full = await stats_of(host, port)
            newest = await http_request(host, port, "POST", "/aggregate", bodies[2])
            after_newest = await stats_of(host, port)
            oldest = await http_request(host, port, "POST", "/aggregate", bodies[0])
            after_oldest = await stats_of(host, port)
            return full, newest, after_newest, oldest, after_oldest

        (full, newest, after_newest, oldest, after_oldest), _ = with_server(scenario)
        assert full[1]["server"]["body_memo"]["entries"] == 2
        assert newest[1]["cached"] is True
        assert after_newest[1]["server"]["body_memo"]["hits"] == 1
        # The oldest body was dropped: answered from the cache, not the memo.
        assert oldest[1]["cached"] is True
        assert after_oldest[1]["server"]["body_memo"] == {
            "entries": 2, "hits": 1, "coalesced": 0,
        }

    def test_identical_concurrent_bodies_share_one_compute(
        self, query_body, tiny_table, tiny_rankings
    ):
        service = GatedComputeService()
        cold = compute_consensus_payload(tiny_rankings, tiny_table, delta=DELTA)

        async def scenario(host, port):
            loop = asyncio.get_running_loop()
            first = asyncio.create_task(
                http_request(host, port, "POST", "/aggregate", query_body)
            )
            assert await loop.run_in_executor(None, service.started.wait, 10)
            second = asyncio.create_task(
                http_request(host, port, "POST", "/aggregate", query_body)
            )
            # Admitted means parked on the first one's flight: nothing awaits
            # between admission and the flight check.
            for _ in range(500):
                _, stats = await stats_of(host, port)
                if stats["server"]["admission"]["inflight"] == 2:
                    break
                await asyncio.sleep(0.01)
            else:
                raise AssertionError("the second request was never admitted")
            service.gate.set()
            responses = [await first, await second]
            return responses, await stats_of(host, port)

        (responses, (_, stats)), _ = with_server(scenario, service=service)
        assert service.computes == 1
        assert [status for status, _ in responses] == [200, 200]
        assert sorted(body["cached"] for _, body in responses) == [False, True]
        assert all(body["result"] == cold for _, body in responses)
        assert stats["server"]["body_memo"]["coalesced"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == 2


class TestIngest:
    """Which path an inline body took, and what both paths answer."""

    def test_an_inline_body_takes_the_array_path(self, query_body, tiny_table, tiny_rankings):
        cold = compute_consensus_payload(tiny_rankings, tiny_table, delta=DELTA)

        async def scenario(host, port):
            first = await http_request(host, port, "POST", "/aggregate", query_body)
            second = await http_request(host, port, "POST", "/aggregate", query_body)
            return first, second, await stats_of(host, port)

        (first, second, (_, stats)), _ = with_server(scenario)
        assert first[1]["result"] == cold
        assert first[1]["key"] == cache_key(tiny_rankings, tiny_table, delta=DELTA).digest
        assert second[1]["cached"] is True
        # The repeat was a memo hit: no ingest at all.
        assert stats["server"]["ingest"] == {"array": 1, "fallback": 0}

    def test_a_declined_body_is_decoded_whole_with_the_same_answer(
        self, query_body, tiny_table, tiny_rankings
    ):
        cold = compute_consensus_payload(tiny_rankings, tiny_table, delta=DELTA)
        # A look-alike "orders" before the real one: the cut declines on the loop.
        look_alike = {"meta": {"orders": [[1, 0]]}, **query_body}
        # A negative id: the parse declines on the lookup thread.
        negative = {**query_body, "rankings": {"orders": [[0, 1], [1, -1]]}}

        async def scenario(host, port):
            answers = [
                await http_request(host, port, "POST", path, body)
                for path, body in (
                    ("/aggregate", look_alike),
                    ("/fairness", negative),
                    ("/aggregate", query_body),
                )
            ]
            return answers, await stats_of(host, port)

        (answers, (_, stats)), _ = with_server(scenario)
        (status, payload), (bad_status, bad), (_, array) = answers
        assert status == 200 and payload["result"] == cold
        assert array["key"] == payload["key"] and array["cached"] is True
        assert bad_status == 400
        assert bad["error"] == (
            "ranking must contain candidate ids 0..n-1; got values in [-1, 1] for n=2"
        )
        assert stats["server"]["ingest"] == {"array": 1, "fallback": 2}

    def test_csv_bodies_count_toward_neither_path(self, tmp_path, tiny_table, tiny_rankings):
        candidates_csv = tmp_path / "candidates.csv"
        rankings_csv = tmp_path / "rankings.csv"
        write_candidate_table(tiny_table, candidates_csv)
        write_ranking_set(tiny_rankings, tiny_table, rankings_csv)
        body = {
            "rankings_csv": str(rankings_csv),
            "candidates_csv": str(candidates_csv),
            "delta": DELTA,
        }
        # Inline orders next to CSV paths are cut, but the CSV files win.
        with_orders = {**body, "rankings": {"orders": [[0, 1], [1, 0]]}}

        async def scenario(host, port):
            first = await http_request(host, port, "POST", "/aggregate", body)
            second = await http_request(host, port, "POST", "/aggregate", with_orders)
            return first, second, await stats_of(host, port)

        (first, second, (_, stats)), _ = with_server(scenario)
        assert first[0] == second[0] == 200
        assert second[1]["key"] == first[1]["key"]
        assert stats["server"]["ingest"] == {"array": 0, "fallback": 0}

    @pytest.mark.parametrize(
        "orders",
        [
            [[0, 100000000000000000000], [1, 0]],
            5,
            [[1.7, 0.2], [0.2, 1.7]],
            [["1", "0"], ["0", "1"]],
            [[True, False], [False, True]],
        ],
        ids=["past-64-bits", "a-number", "floats", "strings", "booleans"],
    )
    def test_orders_that_are_not_integer_lists_are_400(self, orders, query_body):
        body = {**query_body, "rankings": {"orders": orders}}

        async def scenario(host, port):
            answer = await http_request(host, port, "POST", "/aggregate", body)
            return answer, await stats_of(host, port)

        ((status, payload), (_, stats)), _ = with_server(scenario)
        assert status == 400
        assert "500" not in stats["server"]["responses_by_status"]
        if orders == 5 or isinstance(orders[0][0], (float, str, bool)):
            assert payload["error"] == (
                "ranking set 'orders' must be a list of lists of integer candidate ids"
            )
        else:
            assert payload["error"].startswith("ranking must contain candidate ids 0..n-1")

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_non_finite_weights_are_400(self, weight, query_body):
        rankings = query_body["rankings"]
        weights = ", ".join([weight] + ["1.0"] * (len(rankings["orders"]) - 1))
        raw = (
            '{"rankings": {"orders": ' + json.dumps(rankings["orders"])
            + ', "weights": [' + weights + ']}, "candidates": '
            + json.dumps(query_body["candidates"]) + ', "delta": 0.35}'
        ).encode()

        async def scenario(host, port):
            return await raw_request(host, port, "POST", "/aggregate", raw)

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert payload["error"] == "ranking weights must be finite"
