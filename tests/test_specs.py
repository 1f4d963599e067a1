"""The spec layer's contract: exact error messages, one resolution per class.

Every message below is what the decoder reported before it ran from
per-class field plans: a plan changes how often a class is resolved,
never what a scenario author reads. The ``float-rejects-*`` cases for
NaN, infinity and an int beyond the float range came later; those
values used to be accepted, or to escape as a raw ``OverflowError``.
"""

from __future__ import annotations

import collections.abc
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import pytest

from repro.cpu.cache import CacheConfig, HierarchyConfig
from repro.errors import ConfigurationError
from repro.platforms import presets
from repro.platforms.spec import PlatformSpec
from repro.scenario import load_scenario
from repro.scenario.core import Scenario
from repro.specs import SpecConvertible, from_spec, to_spec

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "ddr4-quick.json"


@dataclass(frozen=True)
class Table(SpecConvertible):
    """Mapping-typed fields; no shipped config class has one."""

    table: Mapping = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TypedTable(SpecConvertible):
    """Parameterized mapping fields; no shipped config class has one."""

    typed: Mapping[str, int] = field(default_factory=dict)
    abc_typed: collections.abc.Mapping[str, int] = field(default_factory=dict)


def scenario_with(path: str, value: object):
    """Parse the example scenario with one dotted key set to ``value``."""
    spec = load_scenario(EXAMPLE).to_spec()
    *parents, key = path.split(".")
    node = spec
    for part in parents:
        node = node[part]
    node[key] = value
    return lambda: Scenario.from_spec(spec)


def platform_with(name: str, value: object):
    """Parse a Table I platform with one field set to ``value``."""
    spec = presets.platform("AMD Zen 2 EPYC 7742").to_spec()
    spec[name] = value
    return lambda: PlatformSpec.from_spec(spec)


def timing_named(value: object):
    spec = load_scenario(EXAMPLE).to_spec()
    timing = spec["memory"]["params"]["timing"]
    spec["memory"]["params"]["timing"] = {**timing, "name": value}
    return lambda: Scenario.from_spec(spec)


def hierarchy_of(section: object):
    spec = load_scenario(EXAMPLE).to_spec()
    spec["system"]["hierarchy"] = section
    return lambda: Scenario.from_spec(spec)


CASES = {
    "float": (
        scenario_with("system.issue_gap_ns", "fast"),
        "scenario.system.issue_gap_ns: expected a number, got 'fast'",
    ),
    "float-rejects-bool": (
        scenario_with("sweep.warmup_ns", True),
        "scenario.sweep.warmup_ns: expected a number, got True",
    ),
    "float-rejects-nan": (
        scenario_with("sweep.warmup_ns", float("nan")),
        "scenario.sweep.warmup_ns must be finite, got nan",
    ),
    "float-rejects-inf": (
        scenario_with("system.issue_gap_ns", float("inf")),
        "scenario.system.issue_gap_ns must be finite, got inf",
    ),
    "float-rejects-huge-int": (
        scenario_with("sweep.measure_ns", 10**400),
        "scenario.sweep.measure_ns must be finite, got inf",
    ),
    "int": (
        scenario_with("system.hierarchy.l1.ways", 8.5),
        "scenario.system.hierarchy.l1.ways: expected an integer, got 8.5",
    ),
    "int-rejects-bool": (
        scenario_with("system.mshrs", True),
        "scenario.system.mshrs: expected an integer, got True",
    ),
    "bool": (
        scenario_with("system.in_order", 1),
        "scenario.system.in_order: expected true/false, got 1",
    ),
    "str": (
        scenario_with("system.cache", {"policy": 3}),
        "scenario.system.cache.policy: expected a string, got 3",
    ),
    "str-in-memory-timing": (
        timing_named(5),
        "scenario: memory.params.timing.name: expected a string, got 5",
    ),
    "variadic-tuple": (
        scenario_with("sweep.store_fractions", 0.5),
        "scenario.sweep.store_fractions: expected a list, got float",
    ),
    "variadic-tuple-item": (
        scenario_with("sweep.nop_counts", [0, "x"]),
        "scenario.sweep.nop_counts[1]: expected an integer, got 'x'",
    ),
    "fixed-tuple": (
        platform_with("saturated_bw_range_pct", "x"),
        "PlatformSpec.saturated_bw_range_pct: expected a list, got str",
    ),
    "fixed-tuple-length": (
        platform_with("max_latency_range_ns", [1.0]),
        "PlatformSpec.max_latency_range_ns: expected 2 items, got 1",
    ),
    "fixed-tuple-item": (
        platform_with("max_latency_range_ns", [1.0, "x"]),
        "PlatformSpec.max_latency_range_ns[1]: expected a number, got 'x'",
    ),
    "optional-tuple": (
        platform_with("peak_profile", "x"),
        "PlatformSpec.peak_profile: expected a list, got str",
    ),
    "optional-dataclass": (
        platform_with("waveform", 3),
        "PlatformSpec.waveform: expected an object, got int",
    ),
    "optional-dataclass-field": (
        platform_with("waveform", {"points": "x"}),
        "PlatformSpec.waveform.points: expected an integer, got 'x'",
    ),
    "null": (
        scenario_with("system.cores", None),
        "scenario.system.cores: must not be null",
    ),
    "null-nested": (
        scenario_with("system.hierarchy.l2.latency_ns", None),
        "scenario.system.hierarchy.l2.latency_ns: must not be null",
    ),
    "nested-dataclass": (
        scenario_with("system.hierarchy", 5),
        "scenario.system.hierarchy: expected an object, got int",
    ),
    "nested-dataclass-list": (
        scenario_with("system.hierarchy.l1", []),
        "scenario.system.hierarchy.l1: expected an object, got list",
    ),
    "mapping": (
        lambda: Table.from_spec({"table": [1]}, where="cfg"),
        "cfg.table: expected an object, got list",
    ),
    "mapping-dict": (
        lambda: Table.from_spec({"counts": "x"}),
        "Table.counts: expected an object, got str",
    ),
    "mapping-typed": (
        lambda: TypedTable.from_spec({"typed": [1]}),
        "TypedTable.typed: expected an object, got list",
    ),
    "mapping-abc-typed": (
        lambda: TypedTable.from_spec({"abc_typed": [1]}),
        "TypedTable.abc_typed: expected an object, got list",
    ),
    "unknown-key": (
        scenario_with("system.hierarchy.l1.colour", 1),
        "scenario.system.hierarchy.l1: unknown key(s) ['colour']; "
        "known: ['latency_ns', 'size_bytes', 'ways']",
    ),
    "missing-key": (
        hierarchy_of({"l1": {"ways": 8}}),
        "scenario.system.hierarchy.l1: missing required key(s) "
        "['size_bytes', 'latency_ns']",
    ),
    "missing-keys-in-field-order": (
        lambda: PlatformSpec.from_spec({"name": "x"}),
        "PlatformSpec: missing required key(s) ['vendor', 'released', "
        "'cores', 'frequency_ghz', 'memory', 'channels', "
        "'theoretical_bw_gbps', 'unloaded_latency_ns', "
        "'max_latency_range_ns', 'saturated_bw_range_pct', "
        "'stream_range_pct']",
    ),
    "payload-not-object": (
        lambda: CacheConfig.from_spec([1, 2]),
        "CacheConfig: expected an object, got list",
    ),
    "payload-not-object-where": (
        lambda: HierarchyConfig.from_spec(3, where="cfg"),
        "cfg: expected an object, got int",
    ),
    "not-a-dataclass": (
        lambda: from_spec(int, {}),
        "int: not a config dataclass",
    ),
    "to-spec-not-an-instance": (
        lambda: to_spec(CacheConfig),
        "to_spec needs a dataclass instance, got type",
    ),
    "to-spec-not-a-dataclass": (
        lambda: to_spec(5),
        "to_spec needs a dataclass instance, got int",
    ),
    "to-spec-bad-value": (
        lambda: CacheConfig("x", 8, 1.0).to_spec(),
        "CacheConfig.size_bytes: expected an integer, got 'x'",
    ),
    "to-spec-bad-nested-value": (
        lambda: HierarchyConfig(l1=CacheConfig(64, 8, "slow")).to_spec(),
        "CacheConfig.latency_ns: expected a number, got 'slow'",
    ),
    "to-spec-null": (
        lambda: CacheConfig(64, None, 1.0).to_spec(),
        "CacheConfig.ways: must not be null",
    ),
}


class TestMessages:
    @pytest.mark.parametrize("case", list(CASES))
    def test_malformed_value_message(self, case):
        build, message = CASES[case]
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        assert str(excinfo.value) == message


class TestResolution:
    @pytest.fixture
    def resolved(self, monkeypatch):
        """Count ``typing.get_type_hints`` calls per class."""
        counts: collections.Counter = collections.Counter()
        real = typing.get_type_hints

        def counting(obj, *args, **kwargs):
            counts[obj] += 1
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(typing, "get_type_hints", counting)
        return counts

    def test_repeated_parse_and_digest_resolve_each_class_once(self, resolved):
        spec = load_scenario(EXAMPLE).to_spec()
        digests = {Scenario.from_spec(spec).digest() for _ in range(3)}
        assert len(digests) == 1
        assert max(resolved.values(), default=0) <= 1, resolved

    def test_a_new_class_is_resolved_on_first_use_only(self, resolved):
        @dataclass(frozen=True)
        class Probe(SpecConvertible):
            size: int = 1
            ratios: tuple[float, ...] = (0.5,)

        for _ in range(3):
            assert Probe.from_spec(Probe().to_spec()) == Probe()
        assert resolved[Probe] == 1
