"""Figure 3: curve families of all eight Table I platforms.

One row per (platform, curve, point). The per-platform observations the
paper highlights — write-impact ordering, Zen 2's mixed-traffic
anomaly, waveform segments — are emitted as notes computed from the
generated families rather than asserted.
"""

from __future__ import annotations

from ..core.metrics import compute_metrics
from ..errors import ConfigurationError
from ..platforms.presets import AMD_ZEN2, TABLE_I_PLATFORMS, family
from .base import ExperimentResult
from .registry import new_result, register

EXPERIMENT_ID = "fig3"


def _select_platforms(platforms: str | None):
    """Resolve the ``platforms`` option to a subset of Table I specs."""
    if platforms is None:
        return list(TABLE_I_PLATFORMS)
    selected = []
    for token in str(platforms).split(","):
        token = token.strip().lower()
        if not token:
            continue
        matches = [s for s in TABLE_I_PLATFORMS if token in s.name.lower()]
        if not matches:
            raise ConfigurationError(
                f"{EXPERIMENT_ID}: no platform matches {token!r}; "
                f"available: {[s.name for s in TABLE_I_PLATFORMS]}"
            )
        selected.extend(m for m in matches if m not in selected)
    if not selected:
        raise ConfigurationError(f"{EXPERIMENT_ID}: empty platform selection")
    return selected


@register("fig3", title="Bandwidth-latency curves of the eight platforms under study", tags=("curves",), cost="cheap")
def run(scale: float = 1.0, *, platforms: str | None = None) -> ExperimentResult:
    result = new_result(
        EXPERIMENT_ID, ["platform", "read_ratio", "bandwidth_gbps", "latency_ns"]
    )
    selected = _select_platforms(platforms)
    for spec in selected:
        curves = family(spec)
        result.add_curves(curves, platform=spec.name)
        metrics = compute_metrics(curves)
        if metrics.waveform_curves:
            result.note(
                f"{spec.name}: {metrics.waveform_curves} waveform curves"
            )
    if AMD_ZEN2 not in selected:
        return result
    zen2 = family(AMD_ZEN2)
    peaks = {c.read_ratio: c.max_bandwidth_gbps for c in zen2}
    trough = min(peaks, key=peaks.get)
    result.note(
        "Zen 2 write anomaly: peak bandwidth trough at read ratio "
        f"{trough:.1f} ({peaks[trough]:.0f} GB/s) while 50%-read reaches "
        f"{peaks[0.5]:.0f} GB/s and 100%-read {peaks[1.0]:.0f} GB/s"
    )
    return result
