"""End-to-end: HTTP transport, client, and the load generator."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.backends import MemoryLRUBackend
from repro.serve.client import ResponseError, ServiceClient
from repro.serve.http import HttpServer
from repro.serve.loadgen import (
    LoadgenConfig,
    loadgen_scenarios,
    run_loadgen,
    _schedule,
)
from repro.serve.service import CharacterizationService


def with_server(coro_factory, config=None):
    """Boot an ephemeral-port server, run the coroutine, tear down."""

    async def driver():
        service = CharacterizationService(
            config=config, backend=None if config else MemoryLRUBackend()
        )
        server = HttpServer(service, port=0)
        await server.start()
        client = ServiceClient(server.url)
        try:
            return await coro_factory(server, client)
        finally:
            await client.close()
            await server.close()

    return asyncio.run(driver())


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

    def test_non_json_body_is_a_400_not_a_drop(self):
        async def exercise(server, client):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            body = b"this is not json"
            writer.write(
                b"POST /v1/characterize HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            writer.close()
            return head.decode("latin-1")

        head = with_server(exercise)
        assert " 400 " in head.splitlines()[0]


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
