"""A single memory bandwidth-latency curve.

A curve is the unit of the Mess characterization: for one fixed read/write
traffic composition it records, over the whole range of memory pressure,
the (used bandwidth, load-to-use latency) operating points of a memory
system. Section II-A of the paper describes how the points are measured;
this class only represents and interrogates them.

Points are stored in *pressure order* (increasing traffic-generator issue
rate), not bandwidth order. The distinction matters: on several platforms
the paper observes a "waveform" anomaly where pushing the request rate
further *reduces* the achieved bandwidth while latency keeps climbing
(Section III), so bandwidth along a curve is not necessarily monotone.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import CurveError


def _as_float_array(values: Iterable[float], name: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1:
        raise CurveError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise CurveError(f"{name} must contain at least one point")
    if not np.all(np.isfinite(arr)):
        raise CurveError(f"{name} contains non-finite values")
    return arr


class BandwidthLatencyCurve:
    """One bandwidth-latency curve for a fixed read/write traffic mix.

    Parameters
    ----------
    read_ratio:
        Fraction of the *memory* traffic that is reads, in ``[0, 1]``.
        Note this is the traffic composition seen by the memory system,
        not the instruction mix: with a write-allocate cache a 100%-store
        kernel produces ``read_ratio == 0.5`` traffic (Section II-A).
    bandwidth_gbps:
        Used memory bandwidth of each measurement point, in GB/s, in
        pressure order.
    latency_ns:
        Load-to-use memory latency of each point, in nanoseconds.
    """

    __slots__ = (
        "read_ratio",
        "bandwidth_gbps",
        "latency_ns",
        "_ascending_bw",
        "_ascending_lat",
    )

    def __init__(
        self,
        read_ratio: float,
        bandwidth_gbps: Iterable[float],
        latency_ns: Iterable[float],
    ) -> None:
        bw = _as_float_array(bandwidth_gbps, "bandwidth_gbps")
        lat = _as_float_array(latency_ns, "latency_ns")
        if bw.shape != lat.shape:
            raise CurveError(
                f"bandwidth and latency lengths differ: {bw.size} vs {lat.size}"
            )
        if not 0.0 <= read_ratio <= 1.0:
            raise CurveError(f"read_ratio must be in [0, 1], got {read_ratio}")
        if np.any(bw < 0):
            raise CurveError("bandwidth must be non-negative")
        if np.any(lat <= 0):
            raise CurveError("latency must be positive")
        self.read_ratio = float(read_ratio)
        self.bandwidth_gbps = bw
        self.latency_ns = lat
        self._ascending_bw: np.ndarray | None = None
        self._ascending_lat: np.ndarray | None = None

    def __repr__(self) -> str:
        return (
            f"BandwidthLatencyCurve(read_ratio={self.read_ratio:.2f}, "
            f"points={len(self)}, "
            f"max_bw={self.max_bandwidth_gbps:.1f} GB/s)"
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.bandwidth_gbps.size)

    @property
    def unloaded_latency_ns(self) -> float:
        """Latency of the least-loaded measurement point."""
        return float(self.latency_ns[np.argmin(self.bandwidth_gbps)])

    @property
    def max_latency_ns(self) -> float:
        """Highest latency observed anywhere on the curve."""
        return float(np.max(self.latency_ns))

    @property
    def max_bandwidth_gbps(self) -> float:
        """Highest bandwidth achieved anywhere on the curve."""
        return float(np.max(self.bandwidth_gbps))

    # ------------------------------------------------------------------
    # Interpolation
    # ------------------------------------------------------------------

    def _ascending(self) -> tuple[np.ndarray, np.ndarray]:
        """Monotone (bandwidth-sorted) view of the pre-saturation segment.

        For interpolation we only use points up to the bandwidth peak:
        the post-peak "waveform" tail maps several latencies to the same
        bandwidth and is not a function of bandwidth. Ties are resolved
        by keeping the highest latency seen at each bandwidth, which is
        the conservative choice for a simulator querying the curve.
        Bandwidths so close (subnormal gaps) that the latency slope
        between them overflows count as ties too: ``np.interp`` would
        otherwise return an infinite latency between them.
        """
        if self._ascending_bw is not None:
            return self._ascending_bw, self._ascending_lat
        peak = int(np.argmax(self.bandwidth_gbps))
        bw = self.bandwidth_gbps[: peak + 1]
        lat = self.latency_ns[: peak + 1]
        order = np.argsort(bw, kind="stable")
        bw, lat = bw[order], lat[order]
        # collapse tied bandwidths to their max latency
        keep_bw: list[float] = []
        keep_lat: list[float] = []
        for b, l in zip(bw.tolist(), lat.tolist()):
            keep_bw.append(b)
            keep_lat.append(l)
            while len(keep_bw) > 1 and (
                keep_bw[-1] == keep_bw[-2]
                or not math.isfinite(
                    (keep_lat[-1] - keep_lat[-2]) / (keep_bw[-1] - keep_bw[-2])
                )
            ):
                keep_bw.pop()
                tied = keep_lat.pop()
                keep_lat[-1] = max(keep_lat[-1], tied)
        self._ascending_bw = np.asarray(keep_bw)
        self._ascending_lat = np.asarray(keep_lat)
        return self._ascending_bw, self._ascending_lat

    def latency_at(self, bandwidth_gbps: float) -> float:
        """Interpolated load-to-use latency at a given used bandwidth.

        Below the lowest measured bandwidth the unloaded latency is
        returned; beyond the bandwidth peak the curve's maximum latency
        is returned, which makes the saturated region an absorbing
        plateau for the Mess feedback controller.
        """
        if bandwidth_gbps < 0:
            raise CurveError(f"bandwidth must be non-negative, got {bandwidth_gbps}")
        bw, lat = self._ascending()
        if bandwidth_gbps >= bw[-1]:
            return self.max_latency_ns
        return float(np.interp(bandwidth_gbps, bw, lat))

    def inclination_at(self, bandwidth_gbps: float, delta_gbps: float = 1.0) -> float:
        """Local slope d(latency)/d(bandwidth) in ns per GB/s.

        The slope is estimated with a central finite difference of the
        interpolated curve; it feeds the stress score (Section VI-B),
        where a steep inclination means small bandwidth changes can
        rapidly saturate the memory system.
        """
        if delta_gbps <= 0:
            raise CurveError(f"delta_gbps must be positive, got {delta_gbps}")
        lo = max(0.0, bandwidth_gbps - delta_gbps)
        hi = bandwidth_gbps + delta_gbps
        span = hi - lo
        return (self.latency_at(hi) - self.latency_at(lo)) / span

    def saturation_bandwidth_gbps(self, factor: float = 2.0) -> float:
        """Bandwidth at which latency reaches ``factor`` x unloaded latency.

        The paper defines the start of the saturated-bandwidth area as
        the point where latency doubles the unloaded latency
        (Section II-C). If the curve never reaches the threshold, the
        maximum achieved bandwidth is returned.
        """
        if factor <= 1.0:
            raise CurveError(f"saturation factor must exceed 1, got {factor}")
        threshold = self.unloaded_latency_ns * factor
        bw, lat = self._ascending()
        above = np.nonzero(lat >= threshold)[0]
        if above.size == 0:
            return float(bw[-1])
        idx = int(above[0])
        if idx == 0:
            return float(bw[0])
        # linear inverse interpolation between the straddling points
        b0, b1 = bw[idx - 1], bw[idx]
        l0, l1 = lat[idx - 1], lat[idx]
        if l1 == l0:
            return float(b1)
        return float(b0 + (threshold - l0) * (b1 - b0) / (l1 - l0))

    # ------------------------------------------------------------------
    # Waveform anomaly
    # ------------------------------------------------------------------

    def waveform_points(self, tolerance_gbps: float = 0.0) -> int:
        """Number of post-peak points where bandwidth declined.

        A point belongs to the waveform tail when it was measured at a
        higher pressure than the bandwidth peak yet achieved at least
        ``tolerance_gbps`` *less* bandwidth (Section III's row-buffer
        thrashing anomaly).
        """
        peak = int(np.argmax(self.bandwidth_gbps))
        peak_bw = self.bandwidth_gbps[peak]
        tail = self.bandwidth_gbps[peak + 1 :]
        return int(np.count_nonzero(tail < peak_bw - tolerance_gbps))

    def has_waveform(self, min_points: int = 2, tolerance_gbps: float = 0.5) -> bool:
        """Whether the curve exhibits the bandwidth-decline anomaly."""
        return self.waveform_points(tolerance_gbps) >= min_points

    # ------------------------------------------------------------------
    # Serialization helpers
    # ------------------------------------------------------------------

    def to_rows(self) -> list[tuple[float, float, float]]:
        """Rows of ``(read_ratio, bandwidth_gbps, latency_ns)``."""
        return [
            (self.read_ratio, float(b), float(l))
            for b, l in zip(self.bandwidth_gbps, self.latency_ns)
        ]

    @classmethod
    def from_points(
        cls, read_ratio: float, points: Sequence[tuple[float, float]]
    ) -> "BandwidthLatencyCurve":
        """Build a curve from ``(bandwidth_gbps, latency_ns)`` pairs."""
        if not points:
            raise CurveError("points must not be empty")
        bw, lat = zip(*points)
        return cls(read_ratio, bw, lat)
