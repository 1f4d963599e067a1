"""The sharded fabric: partitioning, failover, hedging, drain, warm-up.

Chaos discipline throughout: every degraded-mode test asserts *digest
parity* — whoever answers, the payload must be digest-identical to a
local :meth:`Scenario.run` — because the fabric is allowed to trade
latency and locality for availability, never correctness.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.resilience.failures import ShardUnavailableError
from repro.runner.manifest import ExperimentRecord, RunManifest
from repro.serve.backends import DirectoryBackend, MemoryLRUBackend
from repro.serve.client import ConnectionPool, ServiceClient
from repro.serve.cluster import (
    ClusterConfig,
    ClusterRouter,
    LocalCluster,
    owner_shard,
)
from repro.serve.health import HealthMonitor
from repro.serve.loadgen import loadgen_scenarios
from repro.serve.service import BadRequestError, warm_from_manifest


def fast_config(**overrides) -> ClusterConfig:
    """A cluster config tuned so chaos tests converge in milliseconds."""
    defaults = dict(
        probe_interval_s=0.05,
        probe_timeout_s=0.5,
        probe_failures=2,
        breaker_failures=1,
        breaker_reset_s=0.2,
        breaker_max_reset_s=1.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def with_cluster(coro_factory, shard_count=3, config=None, **kwargs):
    """Boot a LocalCluster + client, run the coroutine, tear down."""

    async def driver():
        cluster = LocalCluster(
            shard_count,
            cluster_config=config or fast_config(),
            **kwargs,
        )
        await cluster.start()
        client = ServiceClient(cluster.url)
        try:
            return await coro_factory(cluster, client)
        finally:
            await client.close()
            await cluster.close()

    return asyncio.run(driver())


class TestOwnerShard:
    def test_partition_is_total_and_in_range(self):
        digests = [format(n * 2654435761 % 2**64, "064x") for n in range(64)]
        for shards in (1, 2, 3, 5, 16):
            owners = [owner_shard(digest, shards) for digest in digests]
            assert all(0 <= owner < shards for owner in owners)

    def test_partition_is_contiguous_by_prefix(self):
        # leading 32 bits of 0 -> shard 0; of all-ones -> last shard
        assert owner_shard("00" * 32, 3) == 0
        assert owner_shard("ff" * 32, 3) == 2

    def test_every_shard_owns_some_range(self):
        digests = [format(n, "08x") + "0" * 56 for n in range(0, 2**32, 2**26)]
        assert {owner_shard(d, 4) for d in digests} == {0, 1, 2, 3}

    def test_deterministic_across_calls(self):
        digest = loadgen_scenarios(1)[0].digest()
        assert owner_shard(digest, 7) == owner_shard(digest, 7)

    def test_rejects_non_hex_and_bad_counts(self):
        with pytest.raises(BadRequestError):
            owner_shard("not-a-digest", 3)
        with pytest.raises(ConfigurationError):
            owner_shard("ab" * 32, 0)


class TestClusterConfig:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(queue_limit=-1)
        with pytest.raises(ConfigurationError):
            ClusterConfig(deadline_s=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(hedge_delay_ms=-1)

    def test_router_rejects_empty_and_duplicate_shards(self):
        with pytest.raises(ConfigurationError):
            ClusterRouter([])
        with pytest.raises(ConfigurationError):
            ClusterRouter(["http://h:1", "http://h:1/"])


class TestRoundTrip:
    def test_routed_submit_matches_local_digest(self):
        scenario = loadgen_scenarios(1)[0]
        spec = scenario.to_spec()

        async def exercise(cluster, client):
            first = await client.submit("characterize", spec)
            second = await client.submit("characterize", spec)
            return first, second, cluster.router.stats()

        first, second, stats = with_cluster(exercise)
        assert first["routed"] is True
        assert first["digest"] == scenario.digest()
        assert second["cached"] is True
        assert second["digest"] == first["digest"]
        assert stats["role"] == "router"
        assert stats["counters"]["serve.requests"] == 2
        assert stats["counters"]["serve.forwarded"] == 2
        assert stats["counters"]["serve.failovers"] == 0
        assert len(stats["shards"]) == 3

    def test_lookup_routes_to_the_owner(self):
        spec = loadgen_scenarios(1)[0].to_spec()

        async def exercise(cluster, client):
            submitted = await client.submit("characterize", spec)
            looked_up = await client.lookup(submitted["digest"])
            return submitted, looked_up

        submitted, looked_up = with_cluster(exercise)
        assert looked_up["result"] == submitted["result"]

    def test_requests_spread_across_shards(self):
        scenarios = loadgen_scenarios(8)

        async def exercise(cluster, client):
            for scenario in scenarios:
                await client.submit("characterize", scenario.to_spec())
            return cluster.router.stats()

        stats = with_cluster(exercise)
        touched = [s for s in stats["shards"] if s["forwarded"] > 0]
        # 8 digests over 3 ranges: at least two shards must own some
        assert len(touched) >= 2

    def test_router_healthz_names_its_role(self):
        async def exercise(cluster, client):
            return await client.healthz()

        health = with_cluster(exercise)
        assert health["ok"] is True
        assert health["role"] == "router"
        assert health["shards"] == 3


class TestChaos:
    def test_killed_shard_fails_over_with_digest_parity(self, tmp_path):
        scenarios = loadgen_scenarios(6)

        async def exercise(cluster, client):
            for scenario in scenarios:
                await client.submit("characterize", scenario.to_spec())
            # SIGKILL stand-in: one shard's listener just vanishes
            await cluster.kill_shard(0)
            survivors = []
            for scenario in scenarios:
                survivors.append(
                    await client.submit("characterize", scenario.to_spec())
                )
            return survivors, cluster.router.stats()

        survivors, stats = with_cluster(
            exercise, backend="dir", cache_dir=str(tmp_path)
        )
        # zero wrong-digest responses, despite the dead shard
        for scenario, response in zip(scenarios, survivors):
            assert response["digest"] == scenario.digest()
        counters = stats["counters"]
        assert counters["serve.errors"] == 0
        assert counters["serve.failovers"] > 0
        assert counters["serve.breaker_opens"] >= 1
        dead = stats["shards"][0]
        assert dead["breaker"]["state"] == "open"

    def test_shared_store_turns_failover_into_hits(self, tmp_path):
        scenario = loadgen_scenarios(1)[0]
        spec = scenario.to_spec()

        async def exercise(cluster, client):
            first = await client.submit("characterize", spec)
            owner = owner_shard(scenario.digest(), 3)
            await cluster.kill_shard(owner)
            second = await client.submit("characterize", spec)
            return first, second

        first, second = with_cluster(
            exercise, backend="dir", cache_dir=str(tmp_path)
        )
        assert first["digest"] == second["digest"] == scenario.digest()
        # the fallback shard reads the dead owner's entry from the
        # shared durable store — failover costs locality, not compute
        assert second["cached"] is True

    def test_health_probe_marks_a_dead_shard_down(self):
        async def exercise(cluster, client):
            url = await cluster.kill_shard(1)
            router = cluster.router
            for _ in range(100):
                snapshot = router.health.snapshot()[url]
                if snapshot["healthy"] is False:
                    return snapshot
                await asyncio.sleep(0.05)
            raise AssertionError("probe loop never marked the shard down")

        snapshot = with_cluster(exercise)
        assert snapshot["healthy"] is False
        assert snapshot["consecutive_failures"] >= 2

    def test_all_shards_dead_is_a_typed_503(self):
        spec = loadgen_scenarios(1)[0].to_spec()

        async def exercise(cluster, client):
            for index in range(3):
                await cluster.kill_shard(index)
            with pytest.raises(Exception) as excinfo:
                await cluster.router.submit("characterize", spec)
            return excinfo.value

        exc = with_cluster(exercise)
        assert isinstance(exc, ShardUnavailableError)


class TestDrain:
    def test_drained_shard_reports_and_router_reroutes(self, tmp_path):
        spec = loadgen_scenarios(1)[0].to_spec()

        async def exercise(cluster, client):
            await client.submit("characterize", spec)
            owner = owner_shard(
                loadgen_scenarios(1)[0].digest(), 3
            )
            summary = await cluster.drain_shard(owner)
            after = await client.submit("characterize", spec)
            return summary, after

        summary, after = with_cluster(
            exercise, backend="dir", cache_dir=str(tmp_path)
        )
        assert summary["drained"] is True
        assert after["digest"] == loadgen_scenarios(1)[0].digest()

    def test_router_drain_stops_admission(self):
        spec = loadgen_scenarios(1)[0].to_spec()

        async def exercise(cluster, client):
            router = cluster.router
            summary = await router.drain(timeout_s=5.0)
            payload = router.health_payload()
            with pytest.raises(ShardUnavailableError):
                await router.submit("characterize", spec)
            return summary, payload, router.stats()

        summary, payload, stats = with_cluster(exercise)
        assert summary["drained"] is True
        assert summary["abandoned_in_flight"] == 0
        assert payload["ok"] is False and payload["draining"] is True
        assert stats["counters"]["serve.rejected"] == 1


class TestHedging:
    def test_hedged_read_still_digest_consistent(self):
        scenario = loadgen_scenarios(1)[0]

        async def exercise(cluster, client):
            # hedge_delay_ms=0 hedges every request deterministically
            response = await client.submit(
                "characterize", scenario.to_spec()
            )
            return response, cluster.router.stats()

        response, stats = with_cluster(
            exercise,
            config=fast_config(hedge=True, hedge_delay_ms=0.0),
        )
        assert response["digest"] == scenario.digest()
        assert stats["counters"]["serve.hedged"] >= 1

    def test_hedge_races_past_a_dead_owner(self, tmp_path):
        scenario = loadgen_scenarios(1)[0]

        async def exercise(cluster, client):
            await client.submit("characterize", scenario.to_spec())
            await cluster.kill_shard(owner_shard(scenario.digest(), 3))
            response = await client.submit(
                "characterize", scenario.to_spec()
            )
            return response

        response = with_cluster(
            exercise,
            config=fast_config(hedge=True, hedge_delay_ms=5.0),
            backend="dir",
            cache_dir=str(tmp_path),
        )
        assert response["digest"] == scenario.digest()


class TestConnectionPool:
    def test_keep_alive_reuses_connections(self):
        spec = loadgen_scenarios(1)[0].to_spec()

        async def exercise(cluster, client):
            for _ in range(4):
                await client.submit("characterize", spec)
            return cluster.router.pool.stats()

        stats = with_cluster(exercise, shard_count=1)
        # the router's forwards after the first ride pooled sockets
        assert stats["reuses"] >= 2
        assert stats["dials"] < stats["dials"] + stats["reuses"]

    def test_pool_is_shared_across_shard_clients(self):
        async def exercise(cluster, client):
            router = cluster.router
            pools = {id(shard.client.pool) for shard in router.shards}
            pools.add(id(router.pool))
            return pools

        pools = with_cluster(exercise)
        assert len(pools) == 1

    def test_discarded_connections_redial(self):
        async def exercise(cluster, client):
            url = cluster.shard_urls[0]
            probe = ServiceClient(url, pool=ConnectionPool())
            await probe.healthz()
            await probe.pool.close()
            # a fresh pool after close() must dial again, not explode
            probe2 = ServiceClient(url, pool=ConnectionPool())
            health = await probe2.healthz()
            await probe2.pool.close()
            return health

        health = with_cluster(exercise, shard_count=1)
        assert health["ok"] is True


class TestHealthMonitor:
    def test_stop_ends_a_loop_whose_cancellation_was_swallowed(self):
        # Before Python 3.12, asyncio.wait_for returns the probe's result
        # instead of raising when a cancellation lands just as the probe
        # completes. stop() must still end the loop, without a second
        # cancellation.
        url = "http://127.0.0.1:1"
        monitor = HealthMonitor([url], interval_s=0.01)
        cancels = []

        async def probe_once(probed):
            try:
                await asyncio.sleep(60)
            except asyncio.CancelledError:
                cancels.append(probed)
                if len(cancels) > 1:
                    raise
            return True

        monitor.probe_once = probe_once

        async def exercise():
            await monitor.start()
            await asyncio.sleep(0.05)
            await asyncio.wait_for(monitor.stop(), timeout=2.0)

        asyncio.run(exercise())
        assert cancels == [url]


class TestWarm:
    def test_warm_from_manifest_preseeds_the_backend(self, tmp_path):
        scenario = loadgen_scenarios(1)[0]
        digest = scenario.digest()
        # the run used its own cache dir, not the (empty) default one
        runner_cache = tmp_path / "runner-cache"
        source = DirectoryBackend(runner_cache)
        source.put(digest, scenario.run().to_dict(), kind="scenario-result")
        manifest = RunManifest(
            jobs=1, package_version="test", cache_dir=str(runner_cache)
        )
        manifest.records.append(
            ExperimentRecord(
                experiment_id=f"scenario:{scenario.name}",
                status="ok",
                scenario_spec=scenario.to_spec(),
            )
        )
        manifest.records.append(
            ExperimentRecord(experiment_id="scenario:crashed", status="error")
        )
        path = tmp_path / "MANIFEST.json"
        manifest.write(path)

        backend = MemoryLRUBackend()
        summary = warm_from_manifest(backend, path)
        assert summary["warmed"] == 1
        assert summary["missing"] == 0
        assert backend.get(digest) is not None
        # idempotent: a second warm finds everything already present
        again = warm_from_manifest(backend, path)
        assert again["already_present"] == 1
        assert again["warmed"] == 0

    def test_warm_counts_missing_payloads(self, tmp_path):
        scenario = loadgen_scenarios(1)[0]
        manifest = RunManifest(
            jobs=1, package_version="test", cache_dir=str(tmp_path / "empty")
        )
        manifest.records.append(
            ExperimentRecord(
                experiment_id=f"scenario:{scenario.name}",
                status="ok",
                scenario_spec=scenario.to_spec(),
            )
        )
        path = tmp_path / "MANIFEST.json"
        manifest.write(path)
        summary = warm_from_manifest(MemoryLRUBackend(), path)
        assert summary["missing"] == 1
        assert summary["warmed"] == 0
