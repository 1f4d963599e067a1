"""Tests for Scenario: round-trip, validation, overrides, materialize."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench.harness import MessBenchmarkConfig
from repro.dram.timing import DDR4_2666
from repro.errors import ConfigurationError
from repro.scenario import (
    characterization,
    load_scenario,
    preset_scenario,
    scenario_ids,
)
from repro.scenario.core import FORMAT_KEY, Scenario
from repro.scenario.memory import allowed_params, memory_kinds
from repro.serve.service import BadRequestError, parse_request


def _tiny(name: str = "tiny") -> Scenario:
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


class TestRoundTrip:
    def test_spec_round_trip_preserves_digest(self):
        for name in scenario_ids():
            scenario = preset_scenario(name)
            rebuilt = Scenario.from_spec(scenario.to_spec())
            assert rebuilt.digest() == scenario.digest()

    def test_spec_survives_json_serialization(self):
        scenario = preset_scenario("skylake-substrate")
        payload = json.loads(json.dumps(scenario.to_spec()))
        assert Scenario.from_spec(payload).digest() == scenario.digest()

    def test_spec_carries_format_marker(self):
        assert preset_scenario("hbm-substrate").to_spec()[FORMAT_KEY] == 1

    def test_description_excluded_from_digest(self):
        a = _tiny()
        b = Scenario.from_spec({**a.to_spec(), "description": "different"})
        assert a.digest() == b.digest()

    def test_unknown_top_level_key_rejected(self):
        payload = {**_tiny().to_spec(), "bogus": 1}
        with pytest.raises(ConfigurationError, match="bogus"):
            Scenario.from_spec(payload)

    def test_wrong_format_version_rejected(self):
        payload = {**_tiny().to_spec(), FORMAT_KEY: 99}
        with pytest.raises(ConfigurationError, match="repro_scenario"):
            Scenario.from_spec(payload)


def _experiment_spec(scale) -> dict:
    spec = Scenario.for_experiment("fig2").to_spec()
    spec["workload"]["scale"] = scale
    return spec


def _characterize_spec(memory=None, **top) -> dict:
    spec = {**_tiny().to_spec(), **top}
    if memory is not None:
        spec["memory"] = memory
    return spec


_SKYLAKE = {"platform": "Intel Skylake Xeon Platinum"}


def _dram_spec(**timing) -> dict:
    """A cycle-accurate memory on DDR4-2666 with some timings replaced."""
    return {
        "kind": "cycle-accurate",
        "params": {"timing": {**DDR4_2666.to_spec(), **timing}},
    }


def _replaced(document: dict, path, value: object) -> dict:
    """A copy of ``document`` with the field at key path ``path`` replaced."""
    document = copy.deepcopy(document)
    *parents, leaf = path
    section = document
    for key in parents:
        section = section[key]
    section[leaf] = value
    return document


def _field_spec(path: str, value: object) -> dict:
    """The tiny characterization with one dotted-path field replaced."""
    return _replaced(_characterize_spec(), path.split("."), value)


#: Malformed specs, each with the part of the error that names its fault.
MALFORMED = [
    pytest.param(_experiment_spec("abc"), "workload.scale", id="scale-string"),
    pytest.param(_experiment_spec([1]), "workload.scale", id="scale-list"),
    pytest.param(_experiment_spec(None), "workload.scale", id="scale-null"),
    pytest.param(_experiment_spec(True), "workload.scale", id="scale-bool"),
    pytest.param(
        _experiment_spec(json.loads("Infinity")), "workload.scale", id="scale-inf"
    ),
    pytest.param(_experiment_spec(float("nan")), "workload.scale", id="scale-nan"),
    pytest.param(_experiment_spec(10**400), "workload.scale", id="scale-huge-int"),
    *(
        pytest.param(
            _characterize_spec(theoretical_bandwidth_gbps=peak),
            "theoretical_bandwidth_gbps",
            id=f"peak-{label}",
        )
        for label, peak in (
            ("bool", True),
            ("nan", float("nan")),
            ("zero", 0),
            ("negative", -5),
            ("huge-int", 10**400),
        )
    ),
    pytest.param(
        _characterize_spec(
            {"kind": "fixed-latency", "params": {"latency_ns": "abc"}}
        ),
        "memory kind 'fixed-latency'",
        id="latency-string",
    ),
    pytest.param(
        _characterize_spec(
            {"kind": "mess", "params": {"curves": _SKYLAKE, "window_ops": None}}
        ),
        "memory kind 'mess'",
        id="window-null",
    ),
    pytest.param(
        _characterize_spec({"kind": "cycle-accurate", "params": {}}),
        "timing",
        id="no-timing",
    ),
    pytest.param(
        _characterize_spec(_dram_spec(tCL=json.loads("NaN"))),
        "tCL must be finite",
        id="timing-nan",
    ),
    pytest.param(
        _characterize_spec(_dram_spec(channel_peak_gbps=json.loads("Infinity"))),
        "channel_peak_gbps must be finite",
        id="timing-inf",
    ),
    pytest.param(
        _characterize_spec(
            {"kind": "mess", "params": {"curves": _SKYLAKE, "keep_history": True}}
        ),
        r"unknown parameter\(s\) \['keep_history'\]",
        id="keep-history",
    ),
    # a NaN sweep window never ends: the run used to hang
    *(
        pytest.param(
            _field_spec(path, json.loads(value)),
            f"{path} must be finite",
            id=f"{label}-{value[:3].lower()}",
        )
        for label, path, value in (
            ("l1-latency", "system.hierarchy.l1.latency_ns", "NaN"),
            ("l1-latency", "system.hierarchy.l1.latency_ns", "Infinity"),
            ("noc-latency", "system.hierarchy.noc_latency_ns", "NaN"),
            ("issue-gap", "system.issue_gap_ns", "NaN"),
            ("issue-gap", "system.issue_gap_ns", "Infinity"),
            ("warmup", "sweep.warmup_ns", "NaN"),
            ("measure", "sweep.measure_ns", "Infinity"),
        )
    ),
    *(
        pytest.param(
            _characterize_spec(
                {"kind": "fixed-latency", "params": {"latency_ns": json.loads(value)}}
            ),
            "latency must be finite and positive",
            id=f"fixed-latency-{value[:3].lower()}",
        )
        for value in ("NaN", "Infinity")
    ),
    # a params value that is no object escaped as a raw TypeError or
    # ValueError, or (when false) silently read as no params
    *(
        pytest.param(
            _characterize_spec({"kind": "fixed-latency", "params": params}),
            "memory.params: expected an object",
            id=f"params-{label}",
        )
        for label, params in (("bool", True), ("string", "x"), ("false", False))
    ),
    # zero ways divided by zero; negative ways failed only at run time
    *(
        pytest.param(
            _field_spec(f"system.hierarchy.{level}.ways", ways),
            f"{level.upper()} ways must be >= 1",
            id=f"{level}-ways-{ways}",
        )
        for level, ways in (("l1", 0), ("l2", 0), ("l3", -1))
    ),
    # an integer past the float range overflowed, a false rate divided
    # by zero: both escaped the model constructor untyped
    *(
        pytest.param(
            _characterize_spec({"kind": kind, "params": {name: value}}),
            f"memory kind '{kind}'",
            id=f"{kind}-{name}-{'huge-int' if value else 'false'}",
        )
        for kind, name, value in (
            ("fixed-latency", "latency_ns", 10**400),
            ("internal-ddr", "peak_bandwidth_gbps", 10**400),
            ("dramsim3-analog", "theoretical_gbps", 10**400),
            ("ramulator2-analog", "theoretical_gbps", 10**400),
            ("ramulator-analog", "bandwidth_headroom", 10**400),
            ("ramulator-analog", "theoretical_gbps", 10**400),
            ("dramsim3-analog", "theoretical_gbps", False),
            ("ramulator2-analog", "theoretical_gbps", False),
        )
    ),
    # parsing builds the model: these allocated one state object per
    # bank, channel or DIMM until memory ran out
    *(
        pytest.param(_characterize_spec(memory), fault, id=label)
        for label, memory, fault in (
            (
                "dram-channels-100000",
                _replaced(_dram_spec(), ("params", "channels"), 100000),
                r"channels must be in \[1, 512\]",
            ),
            (
                "dram-ranks-1e29",
                _dram_spec(ranks=10**29),
                r"channels must be in \[1, 0\]",
            ),
            (
                "internal-ddr-channels-1e6",
                {"kind": "internal-ddr", "params": {"channels": 10**6}},
                r"channels must be in \[1, 16384\]",
            ),
            (
                "optane-dimms-1e6",
                {"kind": "optane", "params": {"dimms": 10**6}},
                r"dimms must be in \[1, 8192\]",
            ),
        )
    ),
    # each parsed, then failed within moments of the run, with this message
    *(
        pytest.param(_field_spec(path, value), fault, id=label)
        for label, path, value, fault in (
            ("mshrs-0", "system.mshrs", 0, "mshrs must be >= 1, got 0"),
            (
                "issue-gap-negative",
                "system.issue_gap_ns",
                -1,
                "issue_gap_ns must be >= 0, got -1",
            ),
            (
                "prefetch-negative",
                "system.prefetch_lines",
                -1,
                "prefetch_lines must be >= 0, got -1",
            ),
            (
                "chase-array-0",
                "sweep.chase_array_bytes",
                0,
                "pointer-chase array must hold at least one line",
            ),
            (
                "traffic-array-0",
                "sweep.traffic_array_bytes",
                0,
                "arrays must hold at least one line",
            ),
            ("stride-0", "sweep.stride_lines", 0, "stride_lines must be >= 1"),
            (
                "nop-count-negative",
                "sweep.nop_counts",
                [0, -1],
                "nop_count must be >= 0, got -1",
            ),
            (
                "store-fraction-negative",
                "sweep.store_fractions",
                [0.0, -1],
                r"store_fraction must be in \[0, 1\], got -1",
            ),
            (
                "store-fraction-1.5",
                "sweep.store_fractions",
                [0.0, 1.5],
                r"store_fraction must be in \[0, 1\], got 1.5",
            ),
        )
    ),
]

_EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Values each sweep case writes into one field: wrong types, zero,
#: negatives, integers past the float range, non-finite floats.
_SWEEP_POOL = (
    None, True, False, 0, -1, 1, 0.5, 2**70, 10**400,
    float("nan"), float("inf"), "x", [], {},
)

#: The least each memory kind needs to parse.
_KIND_BASE_PARAMS = {
    "cycle-accurate": {"timing": "DDR4-2666"},
    "mess": {"curves": _SKYLAKE},
}


def _field_paths(node, prefix=()):
    """Every object key and list index below ``node``, as key paths."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield (*prefix, key)
        yield from _field_paths(child, (*prefix, key))


def _sweep_cases(part: str):
    """(where, value, document) for one part of the mutation sweep."""
    quick = json.loads((_EXAMPLES / "ddr4-quick.json").read_text())
    if part == "kinds":
        for kind in memory_kinds():
            for name in allowed_params(kind):
                for value in _SWEEP_POOL:
                    params = {**_KIND_BASE_PARAMS.get(kind, {}), name: value}
                    memory = {"kind": kind, "params": params}
                    yield f"{kind}.{name}", value, {**quick, "memory": memory}
        return
    document = json.loads((_EXAMPLES / f"{part}.json").read_text())
    for path in _field_paths(document):
        for value in _SWEEP_POOL:
            yield ".".join(map(str, path)), value, _replaced(document, path, value)


class TestValidation:
    @pytest.mark.parametrize("spec, fault", MALFORMED)
    def test_malformed_spec_is_a_typed_error(self, spec, fault):
        with pytest.raises(ConfigurationError, match=fault):
            Scenario.from_spec(spec)
        kind = spec["workload"]["kind"]
        verb = "characterize" if kind == "characterize" else "simulate"
        with pytest.raises(BadRequestError, match=fault) as caught:
            parse_request(verb, spec)
        assert caught.value.status == 400

    @pytest.mark.parametrize(
        "fields",
        [
            {"system.mshrs": 0, "system.in_order": True},
            {"system.prefetch_lines": -1, "system.in_order": True},
            {"system.mshrs": 0, "system.cores": 1},
        ],
        ids=["in-order-mshrs-0", "in-order-prefetch-negative", "one-core-mshrs-0"],
    )
    def test_fields_the_run_overrides_still_parse_and_run(self, fields):
        # an in-order core takes two MSHRs and no prefetcher; a one-core
        # characterization is its latency probe, which brings one MSHR
        spec = _characterize_spec()
        for path, value in fields.items():
            spec = _replaced(spec, path.split("."), value)
        assert parse_request("characterize", spec).run().rows

    @pytest.mark.parametrize("part", ["ddr4-quick", "cache-thrash", "kinds"])
    def test_single_field_mutations_parse_or_are_bad_requests(self, part):
        escaped = []
        for where, value, document in _sweep_cases(part):
            try:
                parse_request("characterize", document)
            except BadRequestError:
                pass
            except Exception as exc:  # the sweep reports every escape
                escaped.append(
                    f"{where} = {str(value)[:24]}: {type(exc).__name__}: {exc}"
                )
        assert not escaped, "\n".join(escaped)

    def test_presets_validate_clean(self):
        for name in scenario_ids():
            assert preset_scenario(name).validate() == []

    def test_characterize_requires_memory(self):
        scenario = Scenario(name="no-memory")
        problems = scenario.validate()
        assert problems and "memory" in problems[0]

    def test_experiment_workload_validates_id(self):
        scenario = Scenario.for_experiment("nonexistent")
        problems = scenario.validate()
        assert any("nonexistent" in problem for problem in problems)

    def test_experiment_workload_rejects_system_section(self):
        scenario = Scenario.for_experiment("fig2")
        payload = scenario.to_spec()
        payload["system"] = {"cores": 4}
        with pytest.raises(ConfigurationError):
            Scenario.from_spec(payload)


class TestOverrides:
    def test_override_changes_digest(self):
        scenario = preset_scenario("skylake-substrate")
        patched = scenario.with_overrides({"system.cores": 8})
        assert patched.system.cores == 8
        assert patched.digest() != scenario.digest()

    def test_override_invalid_path_rejected(self):
        scenario = preset_scenario("skylake-substrate")
        with pytest.raises(ConfigurationError):
            scenario.with_overrides({"nope.deep.path": 1})


class TestMaterialize:
    def test_characterize_produces_curves(self):
        family = _tiny().materialize().characterize()
        assert family.max_bandwidth_gbps > 0
        assert family.unloaded_latency_ns > 0

    def test_experiment_scenario_does_not_materialize(self):
        with pytest.raises(ConfigurationError):
            Scenario.for_experiment("fig2").materialize()

    def test_run_tabulates_characterization(self):
        result = _tiny("tiny-run").run()
        assert result.rows
        assert set(result.columns) == {
            "series",
            "read_ratio",
            "bandwidth_gbps",
            "latency_ns",
        }


class TestLoadScenario:
    def test_loads_example_file(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(_tiny().to_spec()))
        assert load_scenario(path).digest() == _tiny().digest()

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json_is_configuration_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_scenario(path)


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            preset_scenario("bogus")

    def test_scale_densifies_sweep(self):
        small = preset_scenario("skylake-substrate", 1.0)
        large = preset_scenario("skylake-substrate", 2.0)
        assert len(large.sweep.nop_counts) > len(small.sweep.nop_counts)
        assert large.digest() != small.digest()
