"""The service core: coalescing, backpressure, deadlines, digest parity, warm-up."""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import threading

import pytest

from repro.errors import CacheError, ConfigurationError, MessError
from repro.experiments.base import ExperimentResult
from repro.resilience.failures import DeadlineExceededError
from repro.runner import run_many
from repro.runner.cache import ResultCache
from repro.runner.manifest import ExperimentRecord, RunManifest
from repro.scenario.core import Scenario
from repro.serve import service as service_mod
from repro.serve.backends import TieredBackend
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
from tests.runner.test_manifest import MALFORMED_MANIFESTS


def run_service(coro_factory, config=None):
    """Start a service, run the coroutine against it, close it."""

    async def driver():
        service = CharacterizationService(config=config)
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.close()

    return asyncio.run(driver())


def encode(spec) -> bytes:
    """A request body: the spec's JSON, as a client sends it."""
    return json.dumps(spec).encode()


def tiny_spec(index: int = 0) -> bytes:
    return encode(loadgen_scenarios(index + 1)[index].to_spec())


class TestSubmit:
    def test_miss_then_hit(self):
        spec = tiny_spec()

        async def scenario(service):
            first = await service.submit("characterize", spec)
            second = await service.submit("characterize", spec)
            return first, second, service.stats()

        first, second, stats = run_service(scenario)
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
        spec = encode(scenario_obj.to_spec())

        async def scenario(service):
            return await service.submit("characterize", spec)

        served = run_service(scenario)
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

        responses, stats = run_service(scenario)
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

        run_service(scenario)

    def test_malformed_spec_is_a_bad_request(self):
        async def scenario(service):
            with pytest.raises(BadRequestError):
                await service.submit("characterize", encode({"nope": 1}))
            with pytest.raises(BadRequestError):
                await service.submit("characterize", encode("not a mapping"))

        run_service(scenario)

    def test_verb_must_match_workload_kind(self):
        async def scenario(service):
            with pytest.raises(BadRequestError):
                await service.submit("simulate", tiny_spec())

        run_service(scenario)

    def test_failed_compute_runs_once_and_keeps_its_error(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def failing_compute(store, scenario):
            calls.append(scenario.name)
            raise CacheError("injected")

        monkeypatch.setattr(service_mod, "compute_result", failing_compute)

        async def scenario(service):
            with pytest.raises(CacheError) as caught:
                await service.submit("characterize", tiny_spec())
            return caught.value, service.stats()

        error, stats = run_service(
            scenario, ServiceConfig(cache_dir=str(tmp_path / "cache"))
        )
        assert len(calls) == 1
        assert error_status(error) == 500
        assert stats["counters"]["serve.errors"] == 1
        assert stats["counters"]["serve.computed"] == 0


class TestMemo:
    """Bodies that parsed are remembered by their bytes; nothing else is."""

    @pytest.mark.parametrize(
        "body",
        [b"{not json", b"[" * 100_000, encode({"nope": 1})],
        ids=["not-json", "too-deep", "not-a-scenario"],
    )
    def test_a_malformed_body_is_never_remembered(self, body):
        async def scenario(service):
            for _ in range(2):
                with pytest.raises(BadRequestError):
                    await service.submit("characterize", body)
            return service.stats()

        stats = run_service(scenario)
        assert stats["counters"]["serve.errors"] == 2

    def test_the_memo_is_keyed_by_verb(self):
        body = tiny_spec()

        async def scenario(service):
            await service.submit("characterize", body)
            assert (await service.submit("characterize", body))["cached"]
            with pytest.raises(BadRequestError, match="expects"):
                await service.submit("simulate", body)

        run_service(scenario)

    def test_a_reencoded_body_is_the_same_hit(self, tmp_path):
        spec = loadgen_scenarios(1)[0].to_spec()
        bodies = [
            json.dumps(spec, separators=(",", ":")).encode(),
            json.dumps(spec, indent=2).encode(),
        ]
        cache_dir = tmp_path / "cache"

        async def scenario(service):
            return [
                await service.submit("characterize", body) for body in bodies
            ]

        first, second = run_service(
            scenario, ServiceConfig(cache_dir=str(cache_dir))
        )
        assert first["digest"] == second["digest"]
        assert (first["cached"], second["cached"]) == (False, True)
        assert ResultCache(cache_dir).info()["entries"] == 1

    def test_the_memo_holds_at_most_the_store_bound(self):
        spec = tiny_spec()
        # distinct bytes, one scenario: trailing whitespace is still JSON
        bodies = [spec + b" " * n for n in range(5)]

        async def scenario(service):
            service.store.max_entries = 2
            for body in bodies:
                await service.submit("characterize", body)
            return list(service._memo)

        remembered = run_service(scenario)
        assert [key[1] for key in remembered] == [
            hashlib.sha256(body).digest() for body in bodies[-2:]
        ]

    def test_a_hit_evicted_from_the_lru_reads_the_directory(self, tmp_path):
        body = tiny_spec()

        async def scenario(service):
            service.store.max_entries = 2
            first = await service.submit("characterize", body)
            # two other entries push the result out of the LRU only
            for index in range(2):
                service.store.put(format(index, "064x"), first["result"])
            assert service.store.get_memory(first["digest"]) is None
            second = await service.submit("characterize", body)
            return first, second, service.stats()["store"]

        first, second, store = run_service(
            scenario, ServiceConfig(cache_dir=str(tmp_path / "cache"))
        )
        assert second["cached"] is True
        assert second["result"] == first["result"]
        assert store["promotions"] == 1

    def test_a_cold_body_cannot_hold_the_loop(self, monkeypatch):
        warm, cold = tiny_spec(0), tiny_spec(1)
        cold_name = json.loads(cold)["name"]
        entered, release = threading.Event(), threading.Event()
        released = []
        real_parse = service_mod.parse_request

        def slow_parse(verb, spec):
            if spec["name"] == cold_name:
                entered.set()
                # False when it timed out: the hit below never ran meanwhile
                released.append(release.wait(2))
            return real_parse(verb, spec)

        monkeypatch.setattr(service_mod, "parse_request", slow_parse)

        async def scenario(service):
            await service.submit("characterize", warm)
            blocked = asyncio.ensure_future(
                service.submit("characterize", cold)
            )
            for _ in range(1000):
                if entered.is_set():
                    break
                await asyncio.sleep(0.001)
            assert entered.is_set()
            hit = await service.submit("characterize", warm)
            release.set()
            return hit, await blocked

        hit, cold_response = run_service(scenario)
        assert hit["cached"] is True
        assert released == [True], "the cold body's parse held the loop"
        assert cold_response["scenario"] == cold_name


class TestBackpressure:
    def test_queue_limit_rejects_with_429(self):
        specs = [tiny_spec(n) for n in range(6)]
        config = ServiceConfig(max_inflight=1, queue_limit=2, deadline_s=120.0)

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
        config = ServiceConfig(max_inflight=1, deadline_s=0.01)

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

        submitted, found = run_service(scenario)
        assert found["result"] == submitted["result"]


class TestMalformedEntry:
    """A stored payload that is not a result reads as a miss, as in ``repro run``."""

    BOGUS = {"bogus": 1}

    def test_submit_recomputes_a_malformed_entry(self):
        fig2 = Scenario.for_experiment("fig2", scale=0.2)
        ResultCache().put(fig2.digest(), self.BOGUS, kind="result")

        async def scenario(service):
            return await service.submit("simulate", encode(fig2.to_spec()))

        served = run_service(scenario)
        assert served["cached"] is False
        assert (
            ExperimentResult.from_dict(served["result"]).digest()
            == fig2.run().digest()
        )

    def test_submit_recomputes_a_malformed_lru_entry(self, tmp_path):
        body = tiny_spec()

        async def scenario(service):
            first = await service.submit("characterize", body)
            with service.store._lock:
                service.store._insert_locked(
                    first["digest"], json.dumps(self.BOGUS)
                )
            return first, await service.submit("characterize", body)

        first, second = run_service(
            scenario, ServiceConfig(cache_dir=str(tmp_path / "cache"))
        )
        assert second["cached"] is False
        assert second["result"] == first["result"]

    def test_lookup_404s_on_a_malformed_lru_entry(self, tmp_path):
        digest = format(1, "064x")

        async def scenario(service):
            with service.store._lock:
                service.store._insert_locked(digest, json.dumps(self.BOGUS))
            with pytest.raises(NotFoundError):
                await service.lookup(digest)
            return service.store.stats()

        store = run_service(
            scenario, ServiceConfig(cache_dir=str(tmp_path / "cache"))
        )
        assert store["lru_entries"] == 0

    def test_lookup_404s_and_drops_a_malformed_entry(self, tmp_path):
        digest = Scenario.for_experiment("fig2", scale=0.2).digest()
        store = ResultCache(tmp_path / "cache")
        store.put(digest, self.BOGUS, kind="result")

        async def scenario(service):
            with pytest.raises(NotFoundError):
                await service.lookup(digest)

        run_service(scenario, ServiceConfig(cache_dir=str(store.root)))
        assert not store.path_for(digest).exists()
        assert store.get(digest) is None


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
            return await service.submit(verb, encode(scenario_obj.to_spec()))

        config = ServiceConfig(cache_dir=str(tmp_path / "B"))
        assert run_service(serve, config=config)["cached"] is False
        outcome = run_many(cache_dir=tmp_path / "A", **selection)
        manifest = tmp_path / "MANIFEST.json"
        outcome.manifest.write(manifest)
        summary = warm_from_manifest(ResultCache(tmp_path / "C"), manifest)
        assert summary["warmed"] == 1

        entries = [
            ResultCache(tmp_path / name).path_for(digest).read_bytes()
            for name in "ABC"
        ]
        assert entries[0] == entries[1] == entries[2]


class TestConfigAndStats:
    def test_bad_config_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(deadline_s=-1.0)
        with pytest.raises(ConfigurationError, match="got nan"):
            ServiceConfig(deadline_s=float("nan"))
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_limit=-1)

    def test_error_status_fallback_is_500(self):
        assert error_status(ValueError("boom")) == 500
        assert error_status(MessError("boom")) == 500

    def test_stats_shape(self):
        async def scenario(service):
            return service.stats()

        stats = run_service(scenario)
        assert {"counters", "gauges", "histograms", "singleflight", "store", "config"} <= set(stats)
        assert stats["store"]["lru_entries"] == 0
        assert set(stats["config"]) == {"max_inflight", "queue_limit", "deadline_s"}

    def test_stats_reads_no_cache_file(self, tmp_path, monkeypatch):
        # /stats runs on the event loop: a cache full of entries must
        # not be walked, so stats() returns with every file read failing
        cache_dir = tmp_path / "cache"
        seeded = ResultCache(cache_dir)
        for index in range(20):
            seeded.put(format(index, "064x"), {"rows": [index]}, kind="result")
        spec = tiny_spec()

        async def scenario(service):
            await service.submit("characterize", spec)

            def no_file_io(*args, **kwargs):
                raise RuntimeError("stats() touched the cache directory")

            with monkeypatch.context() as patch:
                for name in ("stat", "read_bytes", "read_text", "iterdir", "glob"):
                    patch.setattr(pathlib.Path, name, no_file_io)
                return service.stats()

        stats = run_service(scenario, ServiceConfig(cache_dir=str(cache_dir)))
        assert stats["store"]["root"] == str(cache_dir)
        assert stats["store"]["lru_entries"] == 1
        assert stats["store"]["misses"] >= 1
        assert stats["counters"]["serve.computed"] == 1

    def test_stage_histograms_time_every_hit(self):
        spec = tiny_spec()
        hits = 5

        async def scenario(service):
            await service.submit("characterize", spec)
            before = service.stats()["histograms"]
            for _ in range(hits):
                assert (await service.submit("characterize", spec))["cached"]
            return before, service.stats()["histograms"]

        before, after = run_service(scenario)

        def delta(name, key):
            return after[name][key] - before[name][key]

        assert delta("serve.parse_ms", "count") == hits
        assert delta("serve.lookup_ms", "count") == hits
        assert delta("serve.latency_ms", "count") == hits
        # the two stages run inside the request they time
        stages = delta("serve.parse_ms", "total") + delta("serve.lookup_ms", "total")
        assert 0 < stages <= delta("serve.latency_ms", "total")


    def test_queue_stage_times_each_flight_leader(self):
        bodies = [tiny_spec(0), tiny_spec(1)]

        async def scenario(service):
            await asyncio.gather(
                *(service.submit("characterize", body) for body in bodies)
            )
            return service.stats()["histograms"]["serve.queue_ms"]

        queue = run_service(scenario, ServiceConfig(max_inflight=1))
        assert queue["count"] == 2
        # one leader waited for the other's compute
        assert queue["total"] > 0


class TestWarm:
    def test_warm_from_manifest_preseeds_the_backend(self, tmp_path):
        scenario = loadgen_scenarios(1)[0]
        digest = scenario.digest()
        # the run used its own cache dir, not the (empty) default one
        runner_cache = tmp_path / "runner-cache"
        source = ResultCache(runner_cache)
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
            ExperimentRecord(
                experiment_id="scenario:crashed",
                status="error",
                error="boom",
                failure_kind="crash",
            )
        )
        path = tmp_path / "MANIFEST.json"
        manifest.write(path)

        store = TieredBackend(tmp_path / "serve-cache")
        summary = warm_from_manifest(store, path)
        assert summary["warmed"] == 1
        assert summary["missing"] == 0
        assert store.get(digest) is not None
        # idempotent: a second warm finds everything already present
        again = warm_from_manifest(store, path)
        assert again["already_present"] == 1
        assert again["warmed"] == 0

    @pytest.mark.parametrize("payload", MALFORMED_MANIFESTS)
    def test_warm_from_a_malformed_manifest_is_a_typed_error(
        self, tmp_path, payload
    ):
        path = tmp_path / "MANIFEST.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="malformed run manifest"):
            warm_from_manifest(TieredBackend(tmp_path / "serve-cache"), path)

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
        summary = warm_from_manifest(TieredBackend(tmp_path / "serve-cache"), path)
        assert summary["missing"] == 1
        assert summary["warmed"] == 0
