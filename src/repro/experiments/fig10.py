"""Figure 10: ZSim + Mess simulator vs the actual memory system.

The closed loop of the whole framework: the cycle-level substrate is
characterized by the Mess benchmark ("actual hardware" curves); those
curves feed a Mess-simulator scenario; the Mess benchmark then
characterizes the *Mess-simulated* machine; the two families should
coincide. Three memory technologies are exercised, as in the paper's
DDR4 / DDR5 / HBM2 subfigures — with channel counts scaled down so a
pure-Python run saturates them (the paper itself scales core counts up
for the same reason in the opposite direction).
"""

from __future__ import annotations

from ..analysis.compare import compare_families
from ..errors import ConfigurationError
from .base import ExperimentResult
from .common import characterization, substrate
from .registry import register

EXPERIMENT_ID = "fig10"

#: (label, timing preset, channels) per subfigure; channel counts sized
#: so 24 simulated cores can reach the saturated region.
SUBFIGURES = (
    ("ddr4", "DDR4-2666", 6),
    ("ddr5", "DDR5-4800", 3),
    ("hbm2", "HBM2", 4),
)


def _select_subfigures(memories: str | None):
    """Resolve the ``memories`` option to a subset of the subfigures."""
    if memories is None:
        return SUBFIGURES
    by_label = {label: entry for entry in SUBFIGURES for label in (entry[0],)}
    selected = []
    for token in str(memories).split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in by_label:
            raise ConfigurationError(
                f"{EXPERIMENT_ID}: unknown memory {token!r}; "
                f"available: {sorted(by_label)}"
            )
        if by_label[token] not in selected:
            selected.append(by_label[token])
    if not selected:
        raise ConfigurationError(f"{EXPERIMENT_ID}: empty memory selection")
    return tuple(selected)


@register("fig10", title="ZSim-style system with the Mess simulator vs actual curves", tags=("mess-simulator", "validation"), cost="expensive")
def run(scale: float = 1.0, *, memories: str | None = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="ZSim-style system with the Mess simulator vs actual curves",
        columns=[
            "memory",
            "system",
            "read_ratio",
            "bandwidth_gbps",
            "latency_ns",
        ],
    )
    for label, preset_name, channels in _select_subfigures(memories):
        actual_scenario = substrate(
            f"actual-{label}", preset_name, channels=channels, scale=scale
        )
        actual = actual_scenario.materialize().characterize()
        # the measured family goes straight back in as the curve source
        # of a Mess-simulator scenario — curves are inlined, so the
        # scenario (and its cache identity) is self-contained
        mess_scenario = characterization(
            name=f"mess-{label}",
            memory_kind="mess",
            memory_params={
                "curves": actual,
                "cpu_overhead_ns": actual_scenario.system.hierarchy.total_hit_path_ns,
            },
            scale=scale,
            theoretical_bandwidth_gbps=actual.theoretical_bandwidth_gbps,
        )
        simulated = mess_scenario.materialize().characterize()
        for system, family in (("actual", actual), ("zsim+mess", simulated)):
            for curve in family:
                for bandwidth, latency in zip(
                    curve.bandwidth_gbps, curve.latency_ns
                ):
                    result.add(
                        memory=label,
                        system=system,
                        read_ratio=curve.read_ratio,
                        bandwidth_gbps=float(bandwidth),
                        latency_ns=float(latency),
                    )
        comparison = compare_families(actual, simulated)
        result.note(
            f"{label}: unloaded latency error "
            f"{comparison.unloaded_latency_error_pct:.1f}%, saturated "
            f"bandwidth error {comparison.saturated_bw_error_pct:.1f}%, "
            f"mean latency error {comparison.mean_latency_error_pct:.1f}%"
        )
    return result
