"""The retired ``engine`` key and flags: what still loads, what fails.

There is one execution path, so nothing selects an engine any more.
Old specs keep loading: a scenario file, request body or manifest that
still carries ``"engine": "reference"`` or ``"engine": "vectorized"``
loads with the key dropped, digests as the default spec and so shares
its result-cache entries. Any other value is still a configuration
error, and the removed CLI flags fail like any other unknown input.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.runner import run_many
from repro.scenario import Scenario


def _with_engine(spec: dict, engine: object) -> dict:
    return {**spec, "engine": engine}


class TestScenarioField:
    def test_default_engine_not_in_spec(self):
        scenario = Scenario.for_experiment("fig17")
        assert "engine" not in scenario.to_spec()

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_legacy_engine_key_digests_as_default(self, engine):
        scenario = Scenario.for_experiment("fig17")
        legacy = Scenario.from_spec(_with_engine(scenario.to_spec(), engine))
        assert legacy.to_spec() == scenario.to_spec()
        assert legacy.digest() == scenario.digest()
        overridden = scenario.with_overrides({"engine": engine})
        assert overridden.digest() == scenario.digest()

    def test_validate_rejects_unknown_engine(self):
        spec = Scenario.for_experiment("fig17").to_spec()
        for engine in ("turbo", None, 1):
            with pytest.raises(ConfigurationError, match="engine"):
                Scenario.from_spec(_with_engine(spec, engine))

    def test_override_rejects_unknown_engine(self):
        scenario = Scenario.for_experiment("fig17")
        with pytest.raises(ConfigurationError, match="engine"):
            scenario.with_overrides({"engine": "turbo"})


class TestRunnerThreading:
    def test_legacy_engine_key_hits_default_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = Scenario.for_experiment("fig17").to_spec()
        first = run_many(scenarios=[spec], jobs=1, cache_dir=cache_dir)
        second = run_many(
            scenarios=[_with_engine(spec, "vectorized")],
            jobs=1,
            cache_dir=cache_dir,
        )
        assert first.manifest.records[0].cache_hits == 0
        assert second.manifest.records[0].cache_hits == 1
        assert (
            first.manifest.records[0].result_digest
            == second.manifest.records[0].result_digest
        )

    def test_rejects_unknown_engine_eagerly(self):
        spec = _with_engine(Scenario.for_experiment("fig17").to_spec(), "turbo")
        with pytest.raises(ConfigurationError, match="engine"):
            run_many(scenarios=[spec], jobs=1, use_cache=False)


class TestCli:
    def test_run_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "fig5", "--engine", "vectorized"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_run_opt_engine_override(self, capsys):
        # engine= no longer overrides anything: it is an unknown option.
        assert main(["run", "fig17", "--opt", "engine=vectorized"]) == 1
        assert "unknown option(s) ['engine']" in capsys.readouterr().err

    def test_run_opt_engine_rejects_unknown(self, capsys):
        assert main(["run", "fig17", "--opt", "engine=bogus"]) == 1
        assert "unknown option(s) ['engine']" in capsys.readouterr().err

    def test_bench_runs_filtered(self, tmp_path):
        payload_path = tmp_path / "bench.json"
        assert main(
            [
                "bench",
                "--filter",
                "mess.access",
                "--repeat",
                "2",
                "--json",
                str(payload_path),
            ]
        ) == 0
        payload = json.loads(payload_path.read_text())
        assert payload["repro_bench"] == 2
        # a filter term is a substring: it keeps the telemetry twin too
        plain, traced = payload["benches"]
        assert plain["name"] == "mess.access"
        assert traced["name"] == "mess.access_telemetry"
        assert plain["time_s"] > 0
        assert len(plain["meta"]["digest"]) == 64
        assert traced["meta"]["digest"] == plain["meta"]["digest"]

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "curves.characterize_fixed_latency" in out
        assert "experiment.fig2" in out
