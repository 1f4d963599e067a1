"""The service core: coalescing, backpressure, deadlines, digest parity, warm-up."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError, MessError
from repro.experiments.base import ExperimentResult
from repro.resilience.failures import DeadlineExceededError
from repro.runner import run_many
from repro.runner.manifest import ExperimentRecord, RunManifest
from repro.scenario.core import Scenario
from repro.serve.backends import DirectoryBackend, MemoryLRUBackend
from repro.serve.loadgen import loadgen_scenarios
from repro.serve.service import (
    BadRequestError,
    CharacterizationService,
    NotFoundError,
    QueueFullError,
    ServiceConfig,
    error_status,
    warm_from_manifest,
)


def run_service(coro_factory, config=None, backend=None):
    """Start a service, run the coroutine against it, close it."""

    async def driver():
        service = CharacterizationService(config=config, backend=backend)
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.close()

    return asyncio.run(driver())


def tiny_spec(index: int = 0):
    return loadgen_scenarios(index + 1)[index].to_spec()


class TestSubmit:
    def test_miss_then_hit(self):
        spec = tiny_spec()

        async def scenario(service):
            first = await service.submit("characterize", spec)
            second = await service.submit("characterize", spec)
            return first, second, service.stats()

        first, second, stats = run_service(
            scenario, backend=MemoryLRUBackend()
        )
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["digest"] == second["digest"]
        assert first["result"] == second["result"]
        counters = stats["counters"]
        assert counters["serve.computed"] == 1
        assert counters["serve.hits"] == 1
        assert counters["serve.misses"] == 1

    def test_result_is_digest_identical_to_local_run(self):
        scenario_obj = loadgen_scenarios(1)[0]
        spec = scenario_obj.to_spec()

        async def scenario(service):
            return await service.submit("characterize", spec)

        served = run_service(scenario, backend=MemoryLRUBackend())
        local = scenario_obj.run()
        assert (
            ExperimentResult.from_dict(served["result"]).digest()
            == local.digest()
        )

    def test_herd_of_50_computes_once(self):
        spec = tiny_spec()

        async def scenario(service):
            responses = await asyncio.gather(
                *(service.submit("characterize", spec) for _ in range(50))
            )
            return responses, service.stats()

        responses, stats = run_service(scenario, backend=MemoryLRUBackend())
        digests = {response["digest"] for response in responses}
        assert len(digests) == 1
        counters = stats["counters"]
        assert counters["serve.computed"] == 1
        assert counters["serve.coalesced"] >= 49
        assert stats["singleflight"]["followers"] >= 49

    def test_unknown_verb_is_a_bad_request(self):
        async def scenario(service):
            with pytest.raises(BadRequestError):
                await service.submit("explode", tiny_spec())

        run_service(scenario, backend=MemoryLRUBackend())

    def test_malformed_spec_is_a_bad_request(self):
        async def scenario(service):
            with pytest.raises(BadRequestError):
                await service.submit("characterize", {"nope": 1})
            with pytest.raises(BadRequestError):
                await service.submit("characterize", "not a mapping")

        run_service(scenario, backend=MemoryLRUBackend())

    def test_verb_must_match_workload_kind(self):
        async def scenario(service):
            with pytest.raises(BadRequestError):
                await service.submit("simulate", tiny_spec())

        run_service(scenario, backend=MemoryLRUBackend())


class TestBackpressure:
    def test_queue_limit_rejects_with_429(self):
        specs = [tiny_spec(n) for n in range(6)]
        config = ServiceConfig(
            backend="memory", max_inflight=1, queue_limit=2, deadline_s=120.0
        )

        async def scenario(service):
            outcomes = await asyncio.gather(
                *(service.submit("characterize", spec) for spec in specs),
                return_exceptions=True,
            )
            return outcomes, service.stats()

        outcomes, stats = run_service(lambda s: scenario(s), config=config)
        rejected = [o for o in outcomes if isinstance(o, QueueFullError)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert rejected, "expected at least one 429 under a full queue"
        assert served, "some requests must still be served"
        assert error_status(rejected[0]) == 429
        assert stats["counters"]["serve.rejected"] == len(rejected)

    def test_deadline_exceeded_maps_to_504(self):
        config = ServiceConfig(
            backend="memory", max_inflight=1, deadline_s=0.01
        )

        async def scenario(service):
            with pytest.raises(DeadlineExceededError) as excinfo:
                await service.submit("characterize", tiny_spec())
            return excinfo.value, service.stats()

        exc, stats = run_service(lambda s: scenario(s), config=config)
        assert error_status(exc) == 504
        assert stats["counters"]["serve.timeouts"] == 1


class TestLookup:
    def test_lookup_serves_cached_and_404s_absent(self):
        spec = tiny_spec()

        async def scenario(service):
            submitted = await service.submit("characterize", spec)
            found = await service.lookup(submitted["digest"])
            with pytest.raises(NotFoundError):
                await service.lookup("ab" * 32)
            with pytest.raises(BadRequestError):
                await service.lookup("not-a-digest!")
            return submitted, found

        submitted, found = run_service(scenario, backend=MemoryLRUBackend())
        assert found["result"] == submitted["result"]


class TestMalformedEntry:
    """A stored payload that is not a result reads as a miss, as in ``repro run``."""

    BOGUS = {"bogus": 1}

    def test_submit_recomputes_a_malformed_entry(self):
        fig2 = Scenario.for_experiment("fig2", scale=0.2)
        backend = MemoryLRUBackend()
        backend.put(fig2.digest(), self.BOGUS, kind="result")

        async def scenario(service):
            return await service.submit("simulate", fig2.to_spec())

        served = run_service(scenario, backend=backend)
        assert served["cached"] is False
        assert (
            ExperimentResult.from_dict(served["result"]).digest()
            == fig2.run().digest()
        )

    def test_lookup_404s_and_drops_a_malformed_entry(self, tmp_path):
        digest = Scenario.for_experiment("fig2", scale=0.2).digest()
        backend = DirectoryBackend(tmp_path / "cache")
        backend.put(digest, self.BOGUS, kind="result")

        async def scenario(service):
            with pytest.raises(NotFoundError):
                await service.lookup(digest)

        run_service(scenario, backend=backend)
        assert not backend.path_for(digest).exists()
        assert backend.get(digest) is None


class TestOneEntryPerDigest:
    @pytest.mark.parametrize("case", ["fig2", "characterize"])
    def test_run_serve_and_warm_write_identical_entries(self, case, tmp_path):
        if case == "fig2":
            scenario_obj = Scenario.for_experiment("fig2", scale=0.2)
            verb, selection = "simulate", {"experiment_ids": ["fig2"], "scale": 0.2}
        else:
            scenario_obj = loadgen_scenarios(1)[0]
            verb, selection = "characterize", {"scenarios": [scenario_obj]}
        digest = scenario_obj.digest()

        async def serve(service):
            return await service.submit(verb, scenario_obj.to_spec())

        config = ServiceConfig(backend="dir", cache_dir=str(tmp_path / "B"))
        assert run_service(serve, config=config)["cached"] is False
        outcome = run_many(cache_dir=tmp_path / "A", **selection)
        manifest = tmp_path / "MANIFEST.json"
        outcome.manifest.write(manifest)
        summary = warm_from_manifest(DirectoryBackend(tmp_path / "C"), manifest)
        assert summary["warmed"] == 1

        entries = [
            DirectoryBackend(tmp_path / name).path_for(digest).read_bytes()
            for name in "ABC"
        ]
        assert entries[0] == entries[1] == entries[2]


class TestConfigAndStats:
    def test_bad_config_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(deadline_s=-1.0)
        # one store name, never a stack; sqlite is gone
        for backend in ("redis", "sqlite", "memory,dir"):
            with pytest.raises(ConfigurationError):
                ServiceConfig(backend=backend)

    def test_error_status_fallback_is_500(self):
        assert error_status(ValueError("boom")) == 500
        assert error_status(MessError("boom")) == 500

    def test_stats_shape(self):
        async def scenario(service):
            return service.stats()

        stats = run_service(scenario, backend=MemoryLRUBackend())
        assert {"counters", "gauges", "histograms", "singleflight", "backend", "config"} <= set(stats)
        assert stats["backend"]["backend"] == "memory"


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
