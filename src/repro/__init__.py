"""Mess: unified memory-system benchmarking, simulation and profiling.

A from-scratch Python reproduction of "A Mess of Memory System
Benchmarking, Simulation and Application Profiling" (MICRO 2024). The
package exposes the framework's three legs plus every substrate they
stand on:

- :mod:`repro.bench` — the Mess benchmark (pointer-chase latency probe +
  traffic generator) that characterizes a memory system into a family of
  bandwidth-latency curves;
- :mod:`repro.core` — the curve data structures, derived metrics, the
  stress score and the Mess analytical memory simulator;
- :mod:`repro.profiling` — application profiling on top of the curves
  (sampling, stress timelines, Paraver traces);
- :mod:`repro.cpu`, :mod:`repro.dram`, :mod:`repro.memmodels` — the
  simulated substrate: an event-driven multicore, a cycle-level DRAM
  controller, and the zoo of memory models the paper compares;
- :mod:`repro.platforms` — calibrated curve families for every Table I
  platform plus the CXL expander and remote-socket configurations;
- :mod:`repro.workloads`, :mod:`repro.traces`, :mod:`repro.analysis`,
  :mod:`repro.experiments` — evaluation workloads, trace-driven replay,
  comparison tooling, and one module per paper table/figure;
- :mod:`repro.runner` — a process-pool experiment runner with a
  content-addressed on-disk cache and JSON run manifests;
- :mod:`repro.scenario` — declarative, digest-keyed run configuration:
  the sanctioned way to build simulators and harnesses;
- :mod:`repro.engine` — the batched numpy fast path of the direct
  model probe, bit-exact with the scalar probe it falls back to;
- :mod:`repro.telemetry` — observability: typed counters/gauges/
  histograms, spans, and per-window control-loop traces, written as one
  Chrome trace-event file (Perfetto) that carries every instrument;
  serve's ``/metrics`` speaks Prometheus text. Disabled by default;
  ``telemetry.activate()`` turns collection on process-wide.

Quickstart::

    from repro.scenario import Scenario, build_memory

    scenario = Scenario(
        name="my-platform",
        memory={
            "kind": "cycle-accurate",
            "params": {"timing": "DDR4-2666", "channels": 6},
        },
    )
    family = scenario.materialize().benchmark().run()  # characterize
    sim = build_memory("mess", {"curves": family})  # simulate on curves
"""

from __future__ import annotations

from .bench import MessBenchmark, MessBenchmarkConfig, characterize_model
from .core import (
    BandwidthLatencyCurve,
    CurveBuilder,
    CurveFamily,
    MemorySystemMetrics,
    MessMemorySimulator,
    StressScorer,
    compute_metrics,
    default_scorer,
)
from .cpu import System, SystemConfig
from .errors import (
    BenchmarkError,
    ConfigurationError,
    CurveError,
    MessError,
    ProfilingError,
    SimulationError,
    TelemetryError,
    TraceError,
)
from . import telemetry
from .profiling import MessProfile, sample_phase_profile, sample_system
from .request import AccessType, MemoryRequest
from .runner import ResultCache, RunManifest, run_many
from .telemetry import TelemetryRegistry

__version__ = "1.1.0"

__all__ = [
    "AccessType",
    "BandwidthLatencyCurve",
    "BenchmarkError",
    "ConfigurationError",
    "CurveBuilder",
    "CurveError",
    "CurveFamily",
    "MemoryRequest",
    "MemorySystemMetrics",
    "MessBenchmark",
    "MessBenchmarkConfig",
    "MessError",
    "MessMemorySimulator",
    "MessProfile",
    "ProfilingError",
    "ResultCache",
    "RunManifest",
    "SimulationError",
    "StressScorer",
    "System",
    "SystemConfig",
    "TelemetryError",
    "TelemetryRegistry",
    "TraceError",
    "characterize_model",
    "compute_metrics",
    "default_scorer",
    "run_many",
    "sample_phase_profile",
    "sample_system",
    "telemetry",
    "__version__",
]
