"""Shared fixtures for the experiment modules.

Experiments no longer assemble systems, DRAM timings or benchmark
harnesses by hand: they declare scenarios (:mod:`repro.scenario`) and
materialize them, measuring a family with
``scenario.materialize().characterize()``. This module re-exports the
scenario helpers they build those scenarios from.

The legacy ``skylake_substrate()`` / ``graviton_substrate()`` /
``hbm_substrate()`` factories and the string-keyed ``substrate_timing``
lookup are gone; their machines live on as named scenario presets
(``repro scenario list``).
"""

from __future__ import annotations

from ..scenario import characterization, preset_scenario, substrate
from ..scenario.presets import BENCH_HIERARCHY, bench_sweep, bench_system

__all__ = [
    "BENCH_HIERARCHY",
    "bench_sweep",
    "bench_system",
    "characterization",
    "preset_scenario",
    "substrate",
]
