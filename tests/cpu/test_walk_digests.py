"""Result digests and telemetry of the closed loop on a tiny machine.

The golden experiments run only the default cache topology, so no
golden pins what the Simu3 and flat topologies, write-through, an
inclusive LLC's back-invalidations or non-temporal stores compute.
Each variant below (those, plus the default model, random replacement,
the clean-line writeback fault and in-order cores) characterizes the
same 4-core machine and pins the digest of the result. Its caches are
small enough that within a 2 µs window every level evicts both dirty
and clean lines, dirty victims spill to the level below (4,486 spills
in the default model), the lower levels hit, and an inclusive LLC
back-invalidates (5,114 times). A second case runs the machine on
cycle-accurate DRAM under an active telemetry registry and pins the
engine, MSHR and DRAM counters the closed loop bumps.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import MessBenchmarkConfig
from repro.cpu.cache import CacheConfig, HierarchyConfig
from repro.cpu.system import SystemConfig
from repro.scenario import characterization
from repro.telemetry import registry as telemetry

HIERARCHY = HierarchyConfig(
    l1=CacheConfig(2 * 1024, 2, 1.5),
    l2=CacheConfig(8 * 1024, 4, 5.0),
    l3=CacheConfig(32 * 1024, 8, 18.0),
    noc_latency_ns=45.0,
)


def sweep(store_fractions=(0.0, 0.5, 1.0), **overrides) -> MessBenchmarkConfig:
    return MessBenchmarkConfig(
        store_fractions=store_fractions,
        nop_counts=(0, 300),
        warmup_ns=500.0,
        measure_ns=1500.0,
        chase_array_bytes=256 * 1024,
        traffic_array_bytes=64 * 1024,
        **overrides,
    )


def walk_scenario(
    name="walk",
    memory_kind="fixed-latency",
    memory_params=None,
    cache=None,
    sweep_config=None,
    **system,
):
    return characterization(
        name=name,
        memory_kind=memory_kind,
        memory_params=(
            {"latency_ns": 60.0} if memory_params is None else memory_params
        ),
        system=SystemConfig(cores=4, hierarchy=HIERARCHY, **system),
        sweep=sweep_config if sweep_config is not None else sweep(),
        cache=cache,
    )


#: variant -> (scenario, result digest); recorded before the walk was
#: flattened into fewer frames, and unchanged since
VARIANTS = {
    "default": (
        lambda: walk_scenario(),
        "6495d2db87ee881964817480c4e3e4751c1290b956c187defaebb8bde0683cf1",
    ),
    "simu3": (
        lambda: walk_scenario(cache="simu3"),
        "2c7343aa4e00b1b9bb033920827e2f0ed605818a9808990f86849768e350a2d4",
    ),
    "flat-llc": (
        lambda: walk_scenario(cache="flat-llc"),
        "e6aa40fdecf400e0d2a3319a38e024b4313d5cb7526983b1af4260382a17932e",
    ),
    "random-replacement": (
        lambda: walk_scenario(cache="random-replacement"),
        "a65f38922255a36a03631a56d90ffb1baa747705edea333352b57624cd0324a9",
    ),
    "write-through": (
        lambda: walk_scenario(cache="write-through"),
        "5dd53cb7a4602310791fc9024cf437afd7d5fdbe6dffe6f1ada5982ac3554c02",
    ),
    "inclusive": (
        lambda: walk_scenario(cache={"inclusive": True}),
        "e30e22e7cd69959a74ad21e05bebb7b71068d999b039643754b7b4fc646184b5",
    ),
    "writeback-clean-lines": (
        lambda: walk_scenario(writeback_clean_lines=True),
        "874c600b91a840f8fdbcebe1fdcd0ef2708a409719c57fb8aa86a411a422453a",
    ),
    "non-temporal-stores": (
        lambda: walk_scenario(sweep_config=sweep(non_temporal_stores=True)),
        "233efb85ade1c2f08fdd6308386e3dd0448c8da46ac6d1c44ad6b1079dc75a2b",
    ),
    "in-order": (
        lambda: walk_scenario(in_order=True),
        "e9c5d9b99bcf7bf01a557e252554da29cd5c20bd874647b997cbe95b3f0c853c",
    ),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_walk_result_digest(variant):
    build, expected = VARIANTS[variant]
    assert build().run().digest() == expected


def dram_scenario():
    return walk_scenario(
        name="walk-dram",
        memory_kind="cycle-accurate",
        memory_params={
            "timing": "DDR4-2666",
            "channels": 1,
            "write_queue_depth": 16,
        },
        sweep_config=sweep(store_fractions=(0.0, 1.0)),
    )


def test_closed_loop_telemetry_on_dram():
    untraced = dram_scenario().run().digest()
    registry = telemetry.activate()
    try:
        traced = dram_scenario().run().digest()
    finally:
        telemetry.deactivate()
    assert untraced == traced
    assert traced == (
        "8e43e87654c6cfae84d7bc3b37231d85b4e34ef03766166acc46414a206d8c66"
    )
    instruments = registry.instruments()
    counters = {
        name: instruments[name].value
        for name in (
            "engine.events",
            "engine.runs",
            "cpu.mshr_stalls",
            "dram.reads",
            "dram.writes",
            "dram.row_hits",
            "dram.write_drains",
        )
    }
    assert counters == {
        "engine.events": 2950,
        "engine.runs": 8,
        "cpu.mshr_stalls": 1000,
        "dram.reads": 1944,
        "dram.writes": 491,
        "dram.row_hits": 2252,
        "dram.write_drains": 60,
    }
    occupancy = instruments["cpu.mshr_occupancy"]
    assert (occupancy.count, occupancy.total) == (1893, 16629.0)
