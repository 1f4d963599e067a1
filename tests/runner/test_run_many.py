"""Tests for the parallel experiment runner and its manifest."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.runner import ResultCache, RunManifest, run_many
from repro.runner import cache as cache_mod

#: Cheap, deterministic experiments used throughout; fig3 exercises the
#: characterization-free path, fig17 the simulator-free CXL path.
FAST_IDS = ["fig2", "fig17"]


def rows_blob(outcome) -> str:
    """Byte-comparable encoding of every result's rows, in id order."""
    return json.dumps(
        {i: outcome.results[i].to_dict() for i in sorted(outcome.results)},
        sort_keys=True,
    )


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_many(["fig99"], use_cache=False)

    def test_duplicate_selection(self):
        with pytest.raises(ConfigurationError):
            run_many(["fig2", "fig2"], use_cache=False)

    def test_empty_selection(self):
        with pytest.raises(ConfigurationError):
            run_many([], use_cache=False)

    def test_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            run_many(FAST_IDS, jobs=0, use_cache=False)

    def test_unknown_option_rejected_before_running(self):
        with pytest.raises(ConfigurationError):
            run_many(["fig2"], options={"fig2": {"bogus": 1}}, use_cache=False)

    def test_options_for_unselected_experiment(self):
        with pytest.raises(ConfigurationError):
            run_many(["fig2"], options={"fig17": {}}, use_cache=False)


class TestSerialRuns:
    def test_results_and_manifest(self, tmp_path):
        seen = []
        outcome = run_many(
            FAST_IDS,
            jobs=1,
            use_cache=False,
            progress=seen.append,
        )
        assert sorted(outcome.results) == sorted(FAST_IDS)
        assert [r.experiment_id for r in outcome.manifest.records] == FAST_IDS
        assert outcome.manifest.ok
        assert outcome.manifest.total_rows > 0
        assert {r.experiment_id for r in seen} == set(FAST_IDS)
        for record in outcome.manifest.records:
            assert record.status == "ok"
            assert record.rows == len(outcome.results[record.experiment_id].rows)
            assert record.result_digest
            assert record.duration_s >= 0

    def test_failing_experiment_is_recorded_not_raised(self):
        outcome = run_many(
            ["fig2", "fig3"],
            options={"fig3": {"platforms": "no-such-platform"}},
            use_cache=False,
        )
        by_id = {r.experiment_id: r for r in outcome.manifest.records}
        assert by_id["fig2"].status == "ok"
        assert by_id["fig3"].status == "error"
        assert "no-such-platform" in by_id["fig3"].error
        assert not outcome.manifest.ok
        assert "fig3" not in outcome.results

    def test_options_are_applied(self):
        outcome = run_many(
            ["fig3"],
            options={"fig3": {"platforms": "skylake"}},
            use_cache=False,
        )
        platforms = {row["platform"] for row in outcome.results["fig3"].rows}
        assert platforms == {"Intel Skylake Xeon Platinum"}


class TestParallelEqualsSerial:
    def test_jobs4_and_jobs1_rows_identical(self):
        serial = run_many(FAST_IDS, jobs=1, use_cache=False)
        parallel = run_many(FAST_IDS, jobs=4, use_cache=False)
        assert rows_blob(serial) == rows_blob(parallel)
        serial_digests = [r.result_digest for r in serial.manifest.records]
        parallel_digests = [r.result_digest for r in parallel.manifest.records]
        assert serial_digests == parallel_digests

    def test_parallel_failure_is_recorded(self):
        outcome = run_many(
            ["fig2", "fig3"],
            jobs=2,
            options={"fig3": {"platforms": "no-such-platform"}},
            use_cache=False,
        )
        by_id = {r.experiment_id: r for r in outcome.manifest.records}
        assert by_id["fig2"].status == "ok"
        assert by_id["fig3"].status == "error"


class TestCaching:
    def test_second_run_hits_cache_and_matches(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_many(FAST_IDS, cache_dir=cache_dir)
        assert cold.manifest.total_cache_hits == 0
        warm = run_many(FAST_IDS, cache_dir=cache_dir)
        assert warm.manifest.total_cache_hits == len(FAST_IDS)
        assert rows_blob(cold) == rows_blob(warm)
        # cache traffic is reported per experiment
        for record in warm.manifest.records:
            assert record.cache_hits >= 1
            assert record.cache_misses == 0

    def test_manifest_reports_cache_dir(self, tmp_path):
        cache_dir = tmp_path / "cache"
        outcome = run_many(["fig2"], cache_dir=cache_dir)
        assert outcome.manifest.cache_dir == str(cache_dir)
        assert run_many(["fig2"], use_cache=False).manifest.cache_dir is None

    def test_corrupted_entries_recovered(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_many(FAST_IDS, cache_dir=cache_dir)
        # trash every cache entry on disk
        trashed = 0
        for path in ResultCache(cache_dir).entries():
            path.write_text("{definitely not json")
            trashed += 1
        assert trashed > 0
        again = run_many(FAST_IDS, cache_dir=cache_dir)
        assert again.manifest.ok
        assert again.manifest.total_cache_hits == 0
        assert rows_blob(cold) == rows_blob(again)

    def test_entries_of_an_older_epoch_are_recomputed_once(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_many(FAST_IDS, cache_dir=cache_dir)
        for path in ResultCache(cache_dir).entries():
            entry = json.loads(path.read_text())
            entry["epoch"] = cache_mod.RESULTS_EPOCH - 1
            path.write_text(json.dumps(entry))
        again = run_many(FAST_IDS, cache_dir=cache_dir)
        assert again.manifest.total_cache_hits == 0
        assert rows_blob(cold) == rows_blob(again)
        warm = run_many(FAST_IDS, cache_dir=cache_dir)
        assert warm.manifest.total_cache_hits == len(FAST_IDS)

    def test_scale_and_options_miss_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_many(["fig3"], cache_dir=cache_dir)
        other = run_many(
            ["fig3"],
            cache_dir=cache_dir,
            options={"fig3": {"platforms": "skylake"}},
        )
        assert other.manifest.total_cache_hits == 0



class TestManifestSerialization:
    def test_write_read_round_trip(self, tmp_path):
        outcome = run_many(["fig2"], use_cache=False)
        path = tmp_path / "manifest.json"
        outcome.manifest.write(path)
        loaded = RunManifest.read(path)
        assert loaded.to_dict() == outcome.manifest.to_dict()
        assert loaded.ok
        assert loaded.records[0].experiment_id == "fig2"

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("not json at all")
        with pytest.raises(ConfigurationError):
            RunManifest.read(path)

    def test_summary_mentions_failures(self):
        outcome = run_many(
            ["fig3"],
            options={"fig3": {"platforms": "no-such-platform"}},
            use_cache=False,
        )
        assert "FAILED=1" in outcome.manifest.summary()


class TestCacheActivationHygiene:
    def test_no_cache_deactivates_global(self, tmp_path):
        cache_mod.activate(ResultCache(tmp_path / "cache"))
        run_many(["fig2"], use_cache=False)
        assert cache_mod.active_cache() is None

    def test_cache_dir_switch_replaces_active(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_many(["fig2"], cache_dir=first)
        assert cache_mod.active_cache().root == first
        run_many(["fig2"], cache_dir=second)
        assert cache_mod.active_cache().root == second


def _tiny_scenario(name: str = "runner-tiny"):
    from repro.bench.harness import MessBenchmarkConfig
    from repro.scenario import characterization

    return characterization(
        name=name,
        memory_kind="fixed-latency",
        memory_params={"latency_ns": 60.0},
        cores=2,
        sweep=MessBenchmarkConfig(
            store_fractions=(0.0, 1.0),
            nop_counts=(0, 600),
            warmup_ns=500.0,
            measure_ns=1500.0,
            chase_array_bytes=512 * 1024,
            traffic_array_bytes=512 * 1024,
        ),
    )


class TestScenarios:
    def test_scenarios_only_run(self):
        outcome = run_many(scenarios=[_tiny_scenario()], use_cache=False)
        assert outcome.manifest.ok
        label = "scenario:runner-tiny"
        assert [r.experiment_id for r in outcome.manifest.records] == [label]
        assert outcome.results[label].rows

    def test_spec_dicts_accepted(self):
        outcome = run_many(
            scenarios=[_tiny_scenario().to_spec()], use_cache=False
        )
        assert outcome.manifest.ok

    def test_invalid_scenario_rejected_up_front(self):
        from repro.scenario.core import Scenario

        with pytest.raises(ConfigurationError):
            run_many(scenarios=[Scenario(name="no-memory")], use_cache=False)

    def test_serial_and_parallel_rows_identical(self):
        scenarios = [_tiny_scenario(), _tiny_scenario("runner-tiny-b")]
        serial = run_many(scenarios=scenarios, jobs=1, use_cache=False)
        parallel = run_many(scenarios=scenarios, jobs=2, use_cache=False)
        assert rows_blob(serial) == rows_blob(parallel)

    def test_cache_key_is_the_scenario_digest(self, tmp_path):
        scenario = _tiny_scenario("runner-cache")
        cache_dir = tmp_path / "cache"
        first = run_many(scenarios=[scenario], cache_dir=cache_dir)
        second = run_many(scenarios=[scenario], cache_dir=cache_dir)
        record = second.manifest.records[0]
        assert record.cache_hits == 1
        cache = ResultCache(cache_dir)
        assert cache.get(scenario.digest()) is not None
        # the result is the only entry: no sweep is stored beside it
        assert cache.info()["kinds"] == {"scenario-result": 1}
        blob_first = first.results["scenario:runner-cache"].to_dict()
        blob_second = second.results["scenario:runner-cache"].to_dict()
        assert blob_first == blob_second

    def test_mixed_experiments_and_scenarios(self):
        outcome = run_many(
            ["fig17"], scenarios=[_tiny_scenario("runner-mixed")], jobs=2,
            use_cache=False,
        )
        labels = {r.experiment_id for r in outcome.manifest.records}
        assert labels == {"fig17", "scenario:runner-mixed"}
        assert outcome.manifest.ok
