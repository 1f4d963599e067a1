"""The perf-bench harness: registry, timing contract, payload schema."""

from __future__ import annotations

import pytest

from repro.bench import perf
from repro.errors import ConfigurationError
from repro.specs import spec_digest
from repro.telemetry import registry as telemetry


def _constant_spec(name="t.constant", payload="same", calls=None, tags=("t",)):
    def make():
        def work():
            if calls is not None:
                calls.append(name)
            return payload

        def summarize(result):
            return {"digest": result}

        return work, summarize

    return perf.BenchSpec(name=name, tags=tags, make=make)


class TestRunBench:
    def test_reports_best_of_repeat_time_and_meta(self):
        calls = []
        entry = perf.run_bench(_constant_spec(calls=calls), repeat=3)
        assert len(calls) == 3
        assert entry["name"] == "t.constant"
        assert entry["tags"] == ["t"]
        assert 0 <= entry["time_s"] < float("inf")
        assert entry["meta"] == {"digest": "same"}

    def test_rejects_bad_repeat(self):
        with pytest.raises(ConfigurationError):
            perf.run_bench(_constant_spec(), repeat=0)


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        name = "t.duplicate"
        perf.register(name, "t")(lambda: None)
        try:
            with pytest.raises(ConfigurationError, match="duplicate"):
                perf.register(name)(lambda: None)
        finally:
            del perf._REGISTRY[name]

    def test_bench_names_filters_by_substring_and_tag(self):
        names = perf.bench_names()
        assert "curves.characterize_fixed_latency" in names
        assert "experiment.fig2" in names
        assert perf.bench_names("curves") == [
            name
            for name in names
            if "curves" in name or "curves" in perf._REGISTRY[name].tags
        ]
        assert "experiment.fig10" in perf.bench_names("fig10")

    def test_run_benches_rejects_empty_filter(self):
        with pytest.raises(ConfigurationError, match="no benches match"):
            perf.run_benches(filter="no-such-bench")

    def test_registered_experiment_row(self):
        [name] = perf.bench_names("experiment.fig17")
        work, summarize = perf._REGISTRY[name].make()
        result = work()
        meta = summarize(result)
        assert meta["scale"] == 1.0
        assert meta["rows"] == len(result.rows)
        assert meta["digest"] == result.digest()


class TestTotalRow:
    def _register(self, monkeypatch, name, tags, digest):
        spec = _constant_spec(name=name, payload=digest, tags=tags)
        monkeypatch.setitem(perf._REGISTRY, name, spec)

    def test_experiment_rows_end_with_their_total(self, monkeypatch):
        self._register(monkeypatch, "t.exp_a", ("experiment", "t"), "a")
        self._register(monkeypatch, "t.exp_b", ("experiment", "t"), "b")
        self._register(monkeypatch, "t.exp_other", ("t",), "c")
        benches = perf.run_benches(filter="t.exp")["benches"]
        rows, total = benches[:-1], benches[-1]
        assert [row["name"] for row in rows] == ["t.exp_a", "t.exp_b", "t.exp_other"]
        assert total["name"] == "experiment.total"
        assert total["time_s"] == rows[0]["time_s"] + rows[1]["time_s"]
        assert total["meta"] == {
            "digest": spec_digest(["a", "b"]),
            "experiments": 2,
        }

    def test_no_total_without_experiment_rows(self, monkeypatch):
        self._register(monkeypatch, "t.plain", ("t",), "c")
        benches = perf.run_benches(filter="t.plain")["benches"]
        assert [row["name"] for row in benches] == ["t.plain"]


class TestComponentBenches:
    def test_mess_access_digest_is_independent_of_telemetry(self):
        off, on = (
            perf.run_bench(perf._REGISTRY[name])
            for name in ("mess.access", "mess.access_telemetry")
        )
        assert off["meta"] == on["meta"]
        # a leaked registry would push the next bench onto the scalar path
        assert telemetry.active() is None


class TestPayload:
    def test_write_payload_round_trips(self, tmp_path):
        import json

        payload = {
            perf.FORMAT_KEY: perf.FORMAT_VERSION,
            "benches": [perf.run_bench(_constant_spec())],
        }
        out = tmp_path / "bench.json"
        perf.write_payload(payload, out)
        again = json.loads(out.read_text())
        assert again[perf.FORMAT_KEY] == perf.FORMAT_VERSION
        assert again["benches"][0]["name"] == "t.constant"

