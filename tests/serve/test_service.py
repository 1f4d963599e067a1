"""The service core: coalescing, backpressure, deadlines, digest parity."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError, MessError
from repro.experiments.base import ExperimentResult
from repro.resilience.failures import DeadlineExceededError
from repro.serve.backends import MemoryLRUBackend
from repro.serve.loadgen import loadgen_scenarios
from repro.serve.service import (
    BadRequestError,
    CharacterizationService,
    NotFoundError,
    QueueFullError,
    ServiceConfig,
    error_status,
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
