"""The Mess benchmark harness: full-system characterization.

Reproduces the measurement campaign of Section II-A on a simulated
platform: one core runs the pointer-chase latency probe while every
other core runs the traffic generator at a given (store mix, nop count)
configuration. Latency comes from the probe's dependent loads (the
y-axis), bandwidth from the memory model's counters — our stand-in for
the uncore hardware counters (the x-axis). Sweeping nop counts traces
one curve; sweeping store mixes produces the family.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from ..core.builder import CurveBuilder
from ..core.family import CurveFamily
from ..cpu.system import System, SystemConfig
from ..errors import BenchmarkError
from ..memmodels.base import MemoryModel, MemoryModelStats
from ..specs import SpecConvertible
from ..telemetry import registry as telemetry
from ..units import CACHE_LINE_BYTES
from .pointer_chase import pointer_chase_ops
from .traffic_gen import (
    TrafficGenConfig,
    read_ratio_for_store_fraction,
    traffic_gen_ops,
)


@dataclass(frozen=True)
class MessBenchmarkConfig(SpecConvertible):
    """Sweep parameters of one characterization campaign.

    Defaults trace six curves (100% loads to 100% stores) over eleven
    pressure levels — a scaled-down version of the paper's tens of
    curves with tens of points each, sized so a pure-Python simulation
    finishes in seconds rather than the paper's 3-6 days of wall time
    per real platform.
    """

    store_fractions: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    nop_counts: tuple[int, ...] = (0, 2, 4, 8, 12, 18, 25, 40, 60, 120, 300)
    warmup_ns: float = 8_000.0
    measure_ns: float = 25_000.0
    chase_array_bytes: int = 64 * 1024 * 1024
    traffic_array_bytes: int = 32 * 1024 * 1024
    seed: int = 42
    #: Use streaming stores in the generator: read ratios extend below
    #: the 0.5 write-allocate floor, down to pure-write traffic.
    non_temporal_stores: bool = False
    #: Array access stride in lines (Section IV-D's pattern extension).
    stride_lines: int = 1

    def __post_init__(self) -> None:
        if not self.store_fractions or not self.nop_counts:
            raise BenchmarkError("sweeps must not be empty")
        if self.warmup_ns < 0 or self.measure_ns <= 0:
            raise BenchmarkError("invalid warmup/measure windows")
        for store_fraction in self.store_fractions:
            if not 0.0 <= store_fraction <= 1.0:
                raise BenchmarkError(
                    f"store_fraction must be in [0, 1], got {store_fraction}"
                )
        for nop_count in self.nop_counts:
            if nop_count < 0:
                raise BenchmarkError(f"nop_count must be >= 0, got {nop_count}")
        if self.chase_array_bytes < CACHE_LINE_BYTES:
            raise BenchmarkError("pointer-chase array must hold at least one line")
        if self.traffic_array_bytes < CACHE_LINE_BYTES:
            raise BenchmarkError("arrays must hold at least one line")
        if self.stride_lines < 1:
            raise BenchmarkError("stride_lines must be >= 1")


@dataclass
class PointResult:
    """One measured (configuration -> bandwidth, latency) sample."""

    store_fraction: float
    nop_count: int
    bandwidth_gbps: float
    latency_ns: float
    measured_read_ratio: float


@dataclass
class MessBenchmark:
    """Runs the Mess characterization against a system + memory model.

    Parameters
    ----------
    system_config:
        The machine to characterize (cores, caches, NoC).
    memory_factory:
        Builds a fresh memory model per measurement point, so no queue
        state leaks between configurations.
    config:
        Sweep parameters.
    name / theoretical_bandwidth_gbps:
        Metadata for the resulting curve family.
    """

    system_config: SystemConfig
    memory_factory: Callable[[], MemoryModel]
    config: MessBenchmarkConfig = field(default_factory=MessBenchmarkConfig)
    name: str = "measured"
    theoretical_bandwidth_gbps: float | None = None
    points: list[PointResult] = field(default_factory=list, repr=False)

    def run(self) -> CurveFamily:
        """Execute the full sweep and return the curve family."""
        tel = telemetry.active()
        span = (
            tel.span("bench.characterize", category="bench", family=self.name)
            if tel is not None
            else nullcontext()
        )
        with span:
            return self._run_sweep()

    def _run_sweep(self) -> CurveFamily:
        builder = CurveBuilder(
            name=self.name,
            theoretical_bandwidth_gbps=self.theoretical_bandwidth_gbps,
        )
        for store_fraction in self.config.store_fractions:
            ratio = read_ratio_for_store_fraction(
                store_fraction, non_temporal=self.config.non_temporal_stores
            )
            for nop_count in self.config.nop_counts:
                point = self.measure_point(store_fraction, nop_count)
                self.points.append(point)
                builder.add(
                    read_ratio=ratio,
                    # pressure orders points along the curve: more nops
                    # means less pressure, so negate
                    pressure=-float(nop_count),
                    bandwidth_gbps=point.bandwidth_gbps,
                    latency_ns=point.latency_ns,
                )
        return builder.build()

    def measure_point(self, store_fraction: float, nop_count: int) -> PointResult:
        """Measure one (mix, pressure) configuration.

        A fresh system is built; the probe and generators run for a
        warmup window (cache fill, queue steady state), statistics are
        then re-armed and the measurement window produces the sample.
        """
        tel = telemetry.active()
        span = (
            tel.span(
                "bench.measure_point",
                category="bench",
                store_fraction=store_fraction,
                nop_count=nop_count,
            )
            if tel is not None
            else nullcontext()
        )
        with span:
            return self._measure_point(store_fraction, nop_count)

    def _measure_point(self, store_fraction: float, nop_count: int) -> PointResult:
        memory = self.memory_factory()
        system = System(self.system_config, memory)
        cfg = self.config
        chase_core = system.add_workload(
            0,
            pointer_chase_ops(
                cfg.chase_array_bytes,
                base_address=0,
                seed=cfg.seed,
            ),
            mshrs=1,
            record_latencies=False,
        )
        gen_config = TrafficGenConfig(
            store_fraction=store_fraction,
            nop_count=nop_count,
            array_bytes=cfg.traffic_array_bytes,
            non_temporal_stores=cfg.non_temporal_stores,
            stride_lines=cfg.stride_lines,
        )
        # Each generator core owns two disjoint arrays placed after the
        # chase array. Bases are staggered by a prime number of cache
        # lines: perfectly power-of-two-aligned arrays would alias onto
        # the same cache sets (and DRAM banks) across cores, a
        # pathological layout the real benchmark never sees because
        # physical page allocation randomizes it.
        stagger = 97 * 64
        region = 2 * cfg.traffic_array_bytes + stagger
        base = cfg.chase_array_bytes
        generator_cores = self.system_config.cores - 1
        for core in range(1, self.system_config.cores):
            load_base = base + (core - 1) * region
            store_base = load_base + cfg.traffic_array_bytes + 53 * 64
            # phase-shift each core's nop schedule so bursts interleave
            # instead of arriving as synchronized waves
            phase = gen_config.pause_ns * (core - 1) / max(1, generator_cores)
            system.add_workload(
                core,
                traffic_gen_ops(
                    gen_config, load_base, store_base, initial_delay_ns=phase
                ),
            )

        if store_fraction > 0 and not cfg.non_temporal_stores:
            # instant write-allocate steady state (see the hierarchy
            # docs); the LLC dirty share equals the store share of
            # allocated lines — irrelevant for streaming stores, which
            # never allocate
            system.hierarchy.prime_write_steady_state(
                dirty_fraction=store_fraction
            )
        system.run(until_ns=cfg.warmup_ns)
        # re-arm counters after warmup, exactly like the real benchmark
        # discards its warmup iterations
        memory.stats = MemoryModelStats()
        chase_stats_before = (
            chase_core.stats.dependent_loads,
            chase_core.stats.dependent_latency_sum_ns,
        )
        system.engine.run(until_ns=cfg.warmup_ns + cfg.measure_ns)
        # the point is done: free its system now, not at the next
        # cyclic collection
        system.engine.discard_pending()

        loads = chase_core.stats.dependent_loads - chase_stats_before[0]
        latency_sum = (
            chase_core.stats.dependent_latency_sum_ns - chase_stats_before[1]
        )
        if loads == 0:
            raise BenchmarkError(
                "pointer-chase made no progress in the measurement window; "
                "increase measure_ns"
            )
        return PointResult(
            store_fraction=store_fraction,
            nop_count=nop_count,
            bandwidth_gbps=memory.stats.bandwidth_gbps,
            latency_ns=latency_sum / loads,
            measured_read_ratio=memory.stats.read_ratio,
        )
