"""Figure 14: CXL memory expander curves across simulators.

Subfigure (a), the manufacturer's SystemC characterization, is played by
the direct probe of :class:`CxlExpanderModel` (full-duplex link + DDR5
backend) over the full 0%-100% read-ratio span. Subfigures (b)-(d) wire
the resulting curves into the Mess simulator inside three CPU systems:
ZSim-like (24 out-of-order cores), gem5-like (16 out-of-order cores)
and OpenPiton-like (32 in-order Ariane cores with 2-entry MSHRs and no
prefetcher). The paper's observation that the OpenPiton curves stop
short of the manufacturer's maximum-latency region — the small in-order
cores cannot generate enough pressure — should emerge from the MSHR
configuration alone.
"""

from __future__ import annotations

from ..bench.model_probe import ProbeConfig, characterize_model
from ..memmodels.cxl import CxlExpanderModel
from .base import ExperimentResult, scaled
from .common import BENCH_HIERARCHY, bench_system, characterization
from .registry import register

EXPERIMENT_ID = "fig14"


def manufacturer_curves(scale: float = 1.0):
    """Probe the SystemC-analog CXL model into its curve family."""
    config = ProbeConfig(
        read_ratios=(0.0, 0.25, 0.5, 0.75, 1.0)
        if scale < 1.5
        else (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        gaps_ns=(0.8, 1.2, 1.8, 2.6, 4.0, 7.0, 14.0, 40.0),
        ops_per_point=scaled(5000, scale),
        warmup_ops=scaled(800, scale),
        # few wide streams: the expander's single backend channel sees
        # row-friendly traffic, as the manufacturer's TLM testbench does
        streams=4,
        max_outstanding=160,
    )
    return characterize_model(
        CxlExpanderModel,
        config,
        name="cxl-manufacturer",
        theoretical_bandwidth_gbps=54.0,
    )


#: (label, cores, in_order) per CPU-simulator subfigure.
SYSTEMS = (
    ("zsim+mess", 24, False),
    ("gem5+mess", 16, False),
    ("openpiton+mess", 32, True),
)


@register("fig14", title="CXL expander: manufacturer model vs Mess in three simulators", tags=("cxl", "validation"), cost="expensive")
def run(scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="CXL expander: manufacturer model vs Mess in three simulators",
        columns=["system", "read_ratio", "bandwidth_gbps", "latency_ns"],
    )
    manufacturer = manufacturer_curves(scale)
    for curve in manufacturer:
        for bandwidth, latency in zip(curve.bandwidth_gbps, curve.latency_ns):
            result.add(
                system="manufacturer",
                read_ratio=curve.read_ratio,
                bandwidth_gbps=float(bandwidth),
                latency_ns=float(latency),
            )
    overhead = BENCH_HIERARCHY.total_hit_path_ns
    for label, cores, in_order in SYSTEMS:
        scenario = characterization(
            name=label,
            memory_kind="mess",
            # the CXL curves exclude CPU time, so no overhead subtraction
            memory_params={"curves": manufacturer, "cpu_overhead_ns": 0.0},
            scale=scale,
            system=bench_system(cores=cores, in_order=in_order),
            theoretical_bandwidth_gbps=54.0,
        )
        simulated = scenario.materialize().characterize()
        for curve in simulated:
            for bandwidth, latency in zip(
                curve.bandwidth_gbps, curve.latency_ns
            ):
                result.add(
                    system=label,
                    # report memory-side latency for comparability with
                    # the manufacturer's from-the-pins curves
                    read_ratio=curve.read_ratio,
                    bandwidth_gbps=float(bandwidth),
                    latency_ns=float(latency) - overhead,
                )
        read_curve = simulated.nearest(1.0)
        result.note(
            f"{label}: max bandwidth {simulated.max_bandwidth_gbps:.1f} GB/s "
            f"(manufacturer max {manufacturer.max_bandwidth_gbps:.1f} GB/s); "
            f"100%-read curve peaks at {read_curve.max_bandwidth_gbps:.1f} "
            f"GB/s with {read_curve.max_latency_ns - overhead:.0f} ns max "
            "memory-side latency"
        )
    result.note(
        "the in-order 2-MSHR OpenPiton-style cores cannot generate enough "
        "read pressure: their 100%-read curve stops short of the "
        "manufacturer's maximum-latency range, while posted writes still "
        "reach the duplex peak (Section IV-C behaviour)"
    )
    return result
