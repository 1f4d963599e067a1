"""Platform specification: the quantities Table I reports per server."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..specs import SpecConvertible


@dataclass(frozen=True)
class WaveformSpec(SpecConvertible):
    """Description of the bandwidth-decline anomaly on one platform.

    ``read_ratio_threshold``: curves at or below this read ratio show
    the waveform (Graviton 3 / Sapphire Rapids / H100 show it for
    write-heavy traffic; Skylake / Cascade Lake / Zen 2 show it more
    broadly). ``depth_fraction`` is how far bandwidth falls back from
    the peak; ``points`` how many post-peak samples are generated.
    """

    read_ratio_threshold: float = 1.0
    depth_fraction: float = 0.06
    points: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_ratio_threshold <= 1.0:
            raise ConfigurationError(
                "waveform read_ratio_threshold outside [0, 1]: "
                f"{self.read_ratio_threshold}"
            )
        if not 0.0 < self.depth_fraction < 1.0:
            raise ConfigurationError(
                f"waveform depth_fraction outside (0, 1): {self.depth_fraction}"
            )
        if self.points < 1:
            raise ConfigurationError(
                f"waveform needs at least one point, got {self.points}"
            )

    def applies_to(self, read_ratio: float) -> bool:
        return read_ratio <= self.read_ratio_threshold


@dataclass(frozen=True)
class PlatformSpec(SpecConvertible):
    """One row of Table I plus the shape parameters for curve synthesis.

    The headline metrics (unloaded latency, max-latency range, saturated
    bandwidth range, STREAM range) are the paper's measured values; the
    synthetic curve generator is calibrated so that running
    :func:`repro.core.metrics.compute_metrics` on the generated family
    recovers them.
    """

    name: str
    vendor: str
    released: int
    cores: int
    frequency_ghz: float
    memory: str
    channels: int
    theoretical_bw_gbps: float
    unloaded_latency_ns: float
    max_latency_range_ns: tuple[float, float]
    saturated_bw_range_pct: tuple[float, float]
    stream_range_pct: tuple[float, float]
    waveform: WaveformSpec | None = None
    #: Read ratios of the generated family (memory-traffic ratios; the
    #: write-allocate floor is 0.5).
    read_ratios: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    #: Fraction of each curve's peak bandwidth where saturation begins.
    onset_fraction_of_peak: float = 0.875
    #: Relative peak bandwidth per read ratio; ``None`` means the default
    #: monotone DDR behaviour (writes cost bandwidth). Zen 2 overrides
    #: this with its mixed-traffic dip (Section III).
    peak_profile: tuple[float, ...] | None = None
    is_gpu: bool = False

    def __post_init__(self) -> None:
        if self.theoretical_bw_gbps <= 0 or self.unloaded_latency_ns <= 0:
            raise ConfigurationError(f"{self.name}: invalid headline metrics")
        lo, hi = self.max_latency_range_ns
        if not 0 < lo <= hi:
            raise ConfigurationError(f"{self.name}: bad max-latency range")
        if lo < self.unloaded_latency_ns:
            # loaded latency can only exceed the unloaded latency
            raise ConfigurationError(
                f"{self.name}: max-latency range [{lo}, {hi}] ns starts "
                f"below the unloaded latency {self.unloaded_latency_ns} ns"
            )
        lo, hi = self.saturated_bw_range_pct
        if not 0 < lo <= hi <= 100:
            raise ConfigurationError(f"{self.name}: bad saturated-BW range")
        lo, hi = self.stream_range_pct
        if not 0 < lo <= hi <= 100:
            raise ConfigurationError(
                f"{self.name}: STREAM range [{lo}, {hi}]% is not a valid "
                "percentage interval"
            )
        ratios = list(self.read_ratios)
        if ratios != sorted(ratios):
            raise ConfigurationError(
                f"{self.name}: read_ratios are not sorted ascending"
            )
        if any(not 0.0 <= ratio <= 1.0 for ratio in ratios):
            raise ConfigurationError(
                f"{self.name}: read_ratios outside [0, 1]: {ratios}"
            )
        if self.peak_profile is not None and len(self.peak_profile) != len(
            self.read_ratios
        ):
            raise ConfigurationError(
                f"{self.name}: peak_profile length must match read_ratios"
            )
        if not 0 < self.onset_fraction_of_peak < 1:
            raise ConfigurationError(
                f"{self.name}: onset fraction must be in (0, 1)"
            )

    @property
    def stream_bandwidth_range_gbps(self) -> tuple[float, float]:
        """STREAM kernel bandwidth range in GB/s (from the % row)."""
        lo, hi = self.stream_range_pct
        return (
            self.theoretical_bw_gbps * lo / 100.0,
            self.theoretical_bw_gbps * hi / 100.0,
        )
