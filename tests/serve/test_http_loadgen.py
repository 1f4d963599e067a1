"""End-to-end: HTTP transport, client, drain, and the load generator."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.experiments.base import ExperimentResult
from repro.serve.client import ResponseError, ServiceClient
from repro.serve.http import HttpServer
from repro.serve.loadgen import (
    LoadgenConfig,
    loadgen_scenarios,
    run_loadgen,
    _schedule,
)
from repro.serve.service import (
    CharacterizationService,
    ServiceUnavailableError,
    error_status,
)


def with_server(coro_factory, config=None):
    """Boot an ephemeral-port server, run the coroutine, tear down."""

    async def driver():
        service = CharacterizationService(config)
        server = HttpServer(service, port=0)
        await server.start()
        client = ServiceClient(server.url)
        try:
            return await coro_factory(server, client)
        finally:
            await client.close()
            await server.close()

    return asyncio.run(driver())


async def read_response(reader: asyncio.StreamReader) -> "tuple[str, bytes]":
    """Status line and body of one raw HTTP response."""
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    length = next(
        int(line.split(":", 1)[1])
        for line in head.split("\r\n")
        if line.lower().startswith("content-length:")
    )
    return head.splitlines()[0], await reader.readexactly(length)


class TestHttp:
    def test_health_submit_lookup_round_trip(self):
        scenario = loadgen_scenarios(1)[0]
        spec = scenario.to_spec()

        async def exercise(server, client):
            health = await client.healthz()
            submitted = await client.submit("characterize", spec)
            # a body still carrying the retired engine key is the same run
            again = await client.submit(
                "characterize", {**spec, "engine": "vectorized"}
            )
            looked_up = await client.lookup(submitted["digest"])
            stats = await client.stats()
            return health, submitted, again, looked_up, stats

        health, submitted, again, looked_up, stats = with_server(exercise)
        assert health == {"ok": True, "draining": False}
        assert submitted["cached"] is False
        assert again["cached"] is True
        assert again["digest"] == submitted["digest"]
        assert looked_up["result"] == submitted["result"]
        assert stats["counters"]["serve.computed"] == 1
        assert submitted["digest"] == scenario.digest()

    def test_error_statuses_reach_the_client(self):
        spec = loadgen_scenarios(1)[0].to_spec()

        requests = [
            ("POST", "/v1/explode", {"x": 1}, 400),
            ("POST", "/v1/characterize", {"bad": "spec"}, 400),
            ("POST", "/v1/characterize", {**spec, "engine": "turbo"}, 400),
            ("GET", "/v1/result/" + "ab" * 32, None, 404),
            ("GET", "/nope", None, 404),
            ("PUT", "/healthz", None, 405),
        ]

        async def exercise(server, client):
            statuses = []
            for method, path, payload, _ in requests:
                with pytest.raises(ResponseError) as excinfo:
                    await client.request(method, path, payload)
                statuses.append(excinfo.value.status)
            return statuses

        assert with_server(exercise) == [status for *_, status in requests]

    def test_metrics_endpoint_speaks_prometheus(self):
        async def exercise(server, client):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw.decode("utf-8")

        text = with_server(exercise)
        assert "200 OK" in text.splitlines()[0]
        assert "repro_serve_requests_total" in text

    @pytest.mark.parametrize(
        "raw, status",
        [
            pytest.param(
                b"POST /v1/characterize HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 16\r\n\r\nthis is not json",
                400,
                id="non-json-body",
            ),
            pytest.param(
                b"POST /v1/characterize HTTP/1.1\r\n"
                b"Content-Length: 2000000\r\n\r\n",
                413,
                id="body-over-limit",
            ),
            pytest.param(
                b"POST /v1/characterize HTTP/1.1\r\n"
                b"Content-Length: abc\r\n\r\n",
                400,
                id="non-numeric-content-length",
            ),
            pytest.param(
                b"POST /v1/characterize HTTP/1.1\r\n"
                b"Content-Length: -5\r\n\r\n",
                400,
                id="negative-content-length",
            ),
            pytest.param(
                b"GET /healthz\r\n\r\n", 400, id="two-part-request-line"
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"a" * 70_000
                + b"\r\n\r\n",
                413,
                id="header-block-over-limit",
            ),
        ],
    )
    def test_non_json_body_is_a_400_not_a_drop(self, raw, status):
        async def exercise(server, client):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(raw)
            await writer.drain()
            status_line, body = await read_response(reader)
            writer.close()
            return status_line, json.loads(body)

        status_line, body = with_server(exercise)
        assert f" {status} " in status_line
        assert set(body) == {"error", "status"}
        assert body["status"] == status


class TestServiceClient:
    def count_dials(self, monkeypatch) -> list:
        dials = []
        open_connection = asyncio.open_connection

        async def counting(*args, **kwargs):
            dials.append(args)
            return await open_connection(*args, **kwargs)

        monkeypatch.setattr(asyncio, "open_connection", counting)
        return dials

    def test_keep_alive_reuses_one_connection(self, monkeypatch):
        dials = self.count_dials(monkeypatch)
        spec = loadgen_scenarios(1)[0].to_spec()

        async def exercise(server, client):
            await client.healthz()
            for _ in range(3):
                await client.submit("characterize", spec)
            await client.stats()

        with_server(exercise)
        assert len(dials) == 1

    def test_stale_connection_is_redialed(self, monkeypatch):
        dials = self.count_dials(monkeypatch)

        async def exercise():
            server = HttpServer(
                CharacterizationService(), port=0
            )
            # record the server's end of every connection it accepts
            server_ends = []
            serve_connection = server._serve_connection

            async def tracking(reader, writer):
                server_ends.append(writer)
                await serve_connection(reader, writer)

            server._serve_connection = tracking
            await server.start()
            client = ServiceClient(server.url)
            try:
                first = await client.healthz()
                # the server hangs up the idle keep-alive connection
                server_ends[0].close()
                await asyncio.sleep(0.05)
                second = await client.healthz()
                await client.close()
                # a closed client dials again on its next request
                third = await client.healthz()
            finally:
                await client.close()
                await server.close()
            return first, second, third

        first, second, third = asyncio.run(exercise())
        assert first == second == third == {"ok": True, "draining": False}
        assert len(dials) == 3


class TestDrain:
    def test_drain_finishes_in_flight_work_then_refuses(self):
        scenario = loadgen_scenarios(1)[0]
        spec = scenario.to_spec()
        local_digest = scenario.run().digest()

        async def exercise(server, client):
            service = server.service
            # a keep-alive connection opened (and used) before the drain
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )

            async def probe() -> "tuple[str, bytes]":
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                return await read_response(reader)

            assert " 200 " in (await probe())[0]
            submitted = asyncio.ensure_future(
                client.submit("characterize", spec)
            )
            while service.flights.in_flight == 0 and not submitted.done():
                await asyncio.sleep(0.001)
            assert service.flights.in_flight == 1

            summary = await server.drain(timeout_s=30.0)
            assert summary["drained"] is True
            assert summary["abandoned_in_flight"] == 0
            assert summary["transport_in_flight"] == 0
            response = await submitted
            assert response["digest"] == scenario.digest()
            served = ExperimentResult.from_dict(response["result"])
            assert served.digest() == local_digest

            status_line, body = await probe()
            writer.close()
            assert " 503 " in status_line
            assert json.loads(body) == {"ok": False, "draining": True}
            with pytest.raises(ServiceUnavailableError) as refused:
                await service.submit("characterize", json.dumps(spec).encode())
            assert error_status(refused.value) == 503
            assert service.stats()["counters"]["serve.rejected"] == 1

        with_server(exercise)


class TestLoadgen:
    def test_schedule_is_deterministic(self):
        config = LoadgenConfig(scenarios=4, requests=32)
        assert _schedule(config, 1) == _schedule(config, 1)
        assert _schedule(config, 1) != _schedule(config, 2)
        assert all(0 <= index < 4 for index in _schedule(config, 1))

    def test_two_pass_run_hits_cache_and_stays_consistent(self, tmp_path):
        config = LoadgenConfig(
            scenarios=2,
            requests=16,
            clients=4,
            passes=2,
            cache_dir=str(tmp_path),
        )
        report = run_loadgen(config)
        assert report["repro_loadgen"] == 1
        first, second = report["passes"]
        assert first["errors"] == 0 and second["errors"] == 0
        assert second["hit_ratio"] >= 0.9
        assert first["coalesced"] > 0
        assert report["digest_consistent"] is True
        assert len(report["result_digests"]) == 2
        assert report["server"]["counters"]["serve.computed"] == 2

    def test_served_digests_match_local_runs(self, tmp_path):
        config = LoadgenConfig(
            scenarios=1,
            requests=4,
            clients=2,
            passes=1,
            cache_dir=str(tmp_path),
        )
        report = run_loadgen(config)
        scenario = loadgen_scenarios(1)[0]
        ((scenario_digest, result_digest),) = report[
            "result_digests"
        ].items()
        assert scenario_digest == scenario.digest()
        assert result_digest == scenario.run().digest()

    def test_report_is_json_ready(self, tmp_path):
        config = LoadgenConfig(
            scenarios=1, requests=2, clients=1, passes=1,
            cache_dir=str(tmp_path),
        )
        report = run_loadgen(config)
        round_tripped = json.loads(json.dumps(report, sort_keys=True))
        assert round_tripped["digest_consistent"] is True
