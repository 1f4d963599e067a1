"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.runner.cache import RESULTS_EPOCH
from tests.runner.test_manifest import MALFORMED_MANIFESTS


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig18" in out
        assert "ablation" in out

    def test_lists_titles_and_costs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cheap" in out and "expensive" in out
        assert "Skylake bandwidth-latency curve family" in out
        assert "options: platforms" in out


class TestRun:
    def test_runs_cheap_experiment(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        assert main(["run", "fig17", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "perlbench" in out
        assert csv.exists()

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_some_selection(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_all_conflicts_with_explicit_ids(self):
        with pytest.raises(SystemExit):
            main(["run", "fig17", "--all"])

    def test_multiple_experiments_with_jobs(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        assert (
            main(
                [
                    "run",
                    "fig2",
                    "fig17",
                    "--jobs",
                    "2",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--manifest",
                    str(manifest),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        payload = json.loads(manifest.read_text())
        assert {e["experiment_id"] for e in payload["experiments"]} == {
            "fig2",
            "fig17",
        }
        assert all(e["status"] == "ok" for e in payload["experiments"])

    def test_opt_flag_passes_options(self, capsys, tmp_path):
        assert (
            main(
                [
                    "run",
                    "fig3",
                    "--no-cache",
                    "--opt",
                    "platforms=skylake",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Skylake" in out
        assert "Graviton" not in out

    def test_opt_rejected_for_multiple_experiments(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "fig17", "--opt", "platforms=x"])

    def test_malformed_opt_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig3", "--opt", "noequalsign"])

    def test_bad_option_value_returns_error(self, capsys):
        assert main(["run", "fig3", "--no-cache", "--opt", "bogus=1"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_warm_cache_reports_hits(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig17", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["run", "fig17", "--cache-dir", cache_dir]) == 0
        assert "cache_hits=1" in capsys.readouterr().out


class TestRunScenario:
    def test_runs_preset_scenario_with_overrides(self, capsys, tmp_path):
        assert (
            main(
                [
                    "run",
                    "--scenario",
                    "skylake-substrate",
                    "--no-cache",
                    "--opt",
                    "system.cores=2",
                    "--opt",
                    "sweep.nop_counts=(0, 600)",
                    "--opt",
                    "sweep.warmup_ns=500.0",
                    "--opt",
                    "sweep.measure_ns=1500.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scenario:skylake-substrate" in out
        assert "scenario digest" in out

    def test_runs_scenario_file_through_cache(self, capsys, tmp_path):
        from repro.scenario import preset_scenario

        scenario = preset_scenario("skylake-substrate").with_overrides(
            {
                "system.cores": 2,
                "sweep.nop_counts": (0, 600),
                "sweep.warmup_ns": 500.0,
                "sweep.measure_ns": 1500.0,
            }
        )
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scenario.to_spec()))
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "--scenario", str(path), "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["run", "--scenario", str(path), "--cache-dir", cache_dir]) == 0
        assert "cache_hits=1" in capsys.readouterr().out

    def test_unknown_scenario_reference_errors(self, capsys):
        assert main(["run", "--scenario", "bogus-substrate"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_opt_rejected_for_scenario_plus_experiment(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "fig17",
                    "--scenario",
                    "skylake-substrate",
                    "--opt",
                    "system.cores=2",
                ]
            )


class TestScenarioCommand:
    def test_list_shows_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "skylake-substrate" in out
        assert "hbm-substrate" in out

    def test_show_emits_canonical_json(self, capsys):
        assert main(["scenario", "show", "skylake-substrate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repro_scenario"] == 1
        assert payload["memory"]["kind"] == "cycle-accurate"

    def test_digest_is_stable_hex(self, capsys):
        assert main(["scenario", "digest", "skylake-substrate"]) == 0
        first = capsys.readouterr().out.split()[0]
        assert main(["scenario", "digest", "skylake-substrate"]) == 0
        second = capsys.readouterr().out.split()[0]
        assert first == second
        assert len(first) == 64
        assert all(ch in "0123456789abcdef" for ch in first)

    def test_validate_defaults_to_presets(self, capsys):
        assert main(["scenario", "validate"]) == 0
        out = capsys.readouterr().out
        assert "skylake-substrate: ok" in out

    def test_validate_flags_broken_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"repro_scenario": 1, "name": "x"}))
        assert main(["scenario", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_show_needs_a_reference(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "show"])


class TestRunTelemetry:
    def test_trace_flag(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        manifest = tmp_path / "m.json"
        assert (
            main(
                [
                    "run",
                    "optane",
                    "--no-cache",
                    "--trace",
                    str(trace),
                    "--manifest",
                    str(manifest),
                ]
            )
            == 0
        )
        assert "trace written to" in capsys.readouterr().out
        document = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in document["traceEvents"])
        instruments = document["otherData"]["instruments"]
        assert instruments["sim.requests"]["kind"] == "counter"
        payload = json.loads(manifest.read_text())
        assert payload["experiments"][0]["telemetry"]["counters"][
            "sim.requests"
        ] > 0

    def test_trace_of_a_pooled_run_holds_every_worker_registry(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "t.json"
        manifest = tmp_path / "m.json"
        argv = ["run", "optane", "ablation", "--scale", "0.3", "--jobs", "2"]
        argv += ["--no-cache", "--trace", str(trace), "--manifest", str(manifest)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        records = json.loads(manifest.read_text())["experiments"]
        assert len(records) == 2
        expected: dict[str, int] = {}
        for record in records:
            for name, value in record["telemetry"]["counters"].items():
                expected[name] = expected.get(name, 0) + value
        assert expected["sim.requests"] > 0 and expected["dram.reads"] > 0
        assert summary["counters"] == expected

    def test_metrics_flag_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "optane", "--metrics", str(tmp_path / "x")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --metrics" in capsys.readouterr().err

    def test_no_flags_no_telemetry(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        assert (
            main(["run", "fig17", "--no-cache", "--manifest", str(manifest)])
            == 0
        )
        payload = json.loads(manifest.read_text())
        assert payload["experiments"][0]["telemetry"] is None


class TestTelemetryCommand:
    def _export(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert (
            main(["run", "optane", "--no-cache", "--trace", str(trace)]) == 0
        )
        return trace

    def test_summarize_human(self, capsys, tmp_path):
        trace = self._export(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "runner.experiment" in out
        assert "counters:\n  sim.degraded_windows: 0\n  sim.requests: " in out

    def test_summarize_json(self, capsys, tmp_path):
        trace = self._export(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "runner.experiment" in payload["spans"]
        assert payload["counters"]["sim.requests"] > 0

    def test_missing_file_is_an_error(self, capsys, tmp_path):
        assert main(["telemetry", "summarize", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err

    def test_a_file_that_is_no_trace_is_a_one_line_error(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        metrics.write_text("# TYPE repro_sim_requests_total counter\n")
        assert main(["telemetry", "summarize", str(metrics)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a trace-event document" in err
        assert err.count("\n") == 1

    def test_action_required(self):
        with pytest.raises(SystemExit):
            main(["telemetry"])


class TestCacheCommand:
    def test_info_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig17", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_info_json(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig17", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--json", "--cache-dir", cache_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["kinds"] == {"result": 1}
        assert payload["kind_bytes"]["result"] > 0
        (entry,) = payload["entry_list"]
        assert entry["kind"] == "result"
        assert entry["bytes"] > 0
        assert entry["key"]

    def test_info_names_stale_entries(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["run", "fig17", "--cache-dir", str(cache_dir)]) == 0
        (path,) = cache_dir.glob("*/*.json")
        entry = json.loads(path.read_text())
        path.write_text(json.dumps({**entry, "epoch": RESULTS_EPOCH - 1}))
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "  stale: 1" in out and "computed by older code" in out
        # the re-run reads a miss and overwrites the entry
        assert main(["run", "fig17", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "  result: 1" in out and "  stale:" not in out

    def test_json_rejected_for_clear(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "cache",
                    "clear",
                    "--json",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )

    def test_requires_action(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestCurves:
    def test_prints_preset_platform(self, capsys):
        assert main(["curves", "intel-skylake-xeon-platinum"]) == 0
        out = capsys.readouterr().out
        assert "Skylake" in out
        assert "unloaded 89 ns" in out

    def test_special_families(self, capsys, tmp_path):
        csv = tmp_path / "cxl.csv"
        assert main(["curves", "cxl", "--csv", str(csv)]) == 0
        assert csv.exists()
        assert main(["curves", "optane"]) == 0

    def test_unknown_platform_exit_code(self, capsys):
        assert main(["curves", "bogus"]) == 2
        assert "available" in capsys.readouterr().err


class TestBench:
    def test_list_shows_component_and_experiment_benches(self, capsys):
        assert main(["bench", "--list"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        for name in (
            "curves.latency_at",
            "mess.access",
            "mess.access_telemetry",
            "dram.submit",
            "experiment.fig17",
        ):
            assert name in names

    @pytest.mark.parametrize("listing", [["--list"], []])
    def test_filter_matching_nothing_is_an_error(self, capsys, listing):
        assert main(["bench", *listing, "--filter", "nosuch"]) == 1
        captured = capsys.readouterr()
        assert "no benches match 'nosuch'" in captured.err
        assert captured.out == ""

    def test_json_writes_a_v2_payload(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        argv = ["bench", "--filter", "curves.characterize_fixed_latency"]
        assert main([*argv, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["repro_bench"] == 2
        [entry] = payload["benches"]
        assert entry["name"] == "curves.characterize_fixed_latency"
        assert entry["time_s"] > 0
        printed = capsys.readouterr().out
        assert f"digest={entry['meta']['digest'][:12]}" in printed
        assert f"bench payload written to {out}" in printed


class TestParser:
    def test_command_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=f"argv{index}")
            for index, (argv, message) in enumerate(
                [
                    (["cache", "info", "--backend", "dir"], "unrecognized arguments"),
                    (["serve", "--ttl", "60"], "unrecognized arguments"),
                    (["loadgen", "--backend", "memory"], "unrecognized arguments"),
                    (["serve", "--shards", "3"], "unrecognized arguments"),
                    (["serve", "--hedge"], "unrecognized arguments"),
                    (["loadgen", "--shards", "2"], "unrecognized arguments"),
                    (["loadgen", "--hedge"], "unrecognized arguments"),
                    (["route", "--shard", "http://127.0.0.1:1"], "invalid choice"),
                ]
            )
        ],
    )
    def test_removed_store_flags_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestRunResilience:
    def crash_plan(self, tmp_path, target="fig2") -> str:
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "repro_fault_plan": 1,
                    "seed": 1234,
                    "faults": [
                        {"kind": "crash", "target": target, "attempts": [1]}
                    ],
                }
            )
        )
        return str(path)

    def test_injected_crash_with_retries_succeeds(self, capsys, tmp_path):
        plan = self.crash_plan(tmp_path)
        assert main(
            ["run", "fig2", "--inject-faults", plan, "--retries", "1"]
        ) == 0
        assert "fig2" in capsys.readouterr().out

    def test_unretried_failure_exits_nonzero_with_class_summary(
        self, capsys, tmp_path
    ):
        plan = self.crash_plan(tmp_path)
        assert main(["run", "fig2", "--inject-faults", plan]) == 1
        captured = capsys.readouterr()
        assert "FAILED=1 (crash=1)" in captured.out
        assert "failed: crash: 1 experiment" in captured.err

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--retries", "-1"])
        assert "--retries" in capsys.readouterr().err

    def test_missing_fault_plan_is_an_error(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        assert main(["run", "fig2", "--inject-faults", missing]) == 1
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_resume_excludes_other_selections(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--resume", str(tmp_path / "m.json")])
        assert "--resume" in capsys.readouterr().err

    def test_crash_checkpoint_then_resume_completes(self, capsys, tmp_path):
        plan = self.crash_plan(tmp_path)
        manifest = tmp_path / "manifest.json"
        assert main(
            [
                "run",
                "fig2",
                "--inject-faults",
                plan,
                "--manifest",
                str(manifest),
            ]
        ) == 1
        capsys.readouterr()
        assert main(["run", "--resume", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert f"manifest written to {manifest}" in out
        # The checkpoint was rewritten: resuming again finds nothing.
        assert main(["run", "--resume", str(manifest)]) == 0
        assert "nothing to resume" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", MALFORMED_MANIFESTS)
    def test_resume_of_a_malformed_manifest_is_one_error_line(
        self, capsys, tmp_path, payload
    ):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        assert main(["run", "--resume", str(manifest), "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed run manifest: ")
        assert err.count("\n") == 1

    def test_deadline_classifies_hang_as_timeout(self, capsys, tmp_path):
        plan = tmp_path / "hang.json"
        plan.write_text(
            json.dumps(
                {
                    "repro_fault_plan": 1,
                    "faults": [
                        {"kind": "hang", "target": "fig17", "seconds": 30.0}
                    ],
                }
            )
        )
        assert main(
            [
                "run",
                "fig17",
                "--inject-faults",
                str(plan),
                "--deadline",
                "1.5",
            ]
        ) == 1
        captured = capsys.readouterr()
        assert "FAILED=1 (timeout=1)" in captured.out
        assert "failed: timeout: 1 experiment" in captured.err


class TestCacheCorruptReport:
    def test_cache_info_reports_quarantined_entries(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plan = tmp_path / "corrupt.json"
        plan.write_text(
            json.dumps(
                {
                    "repro_fault_plan": 1,
                    "faults": [{"kind": "cache-corrupt", "target": "fig2"}],
                }
            )
        )
        assert main(["run", "fig2", "--cache-dir", cache_dir]) == 0
        assert main(
            [
                "run",
                "fig2",
                "--cache-dir",
                cache_dir,
                "--inject-faults",
                str(plan),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "corrupt:    1 quarantined" in out
        assert "moved aside" in out
