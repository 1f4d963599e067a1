"""Calibrated presets for every platform in Table I, plus Appendix B.

Each preset carries the paper's measured headline numbers; calling
:func:`family` synthesizes the corresponding curve family, and
``compute_metrics(family(...))`` recovers the Table I row (verified by
tests). Waveform flags follow Section III: Skylake, Cascade Lake and
Zen 2 show the bandwidth-decline anomaly on several curves; Graviton 3,
Sapphire Rapids and H100 mostly on write-heavy traffic.
"""

from __future__ import annotations

from typing import Callable

from ..core.family import CurveFamily
from ..errors import ConfigurationError
from .spec import PlatformSpec, WaveformSpec
from .synthetic import synthesize_curve, synthesize_duplex_family, synthesize_family

INTEL_SKYLAKE = PlatformSpec(
    name="Intel Skylake Xeon Platinum",
    vendor="Intel",
    released=2015,
    cores=24,
    frequency_ghz=2.1,
    memory="6xDDR4-2666",
    channels=6,
    theoretical_bw_gbps=128.0,
    unloaded_latency_ns=89.0,
    max_latency_range_ns=(242.0, 391.0),
    saturated_bw_range_pct=(72.0, 91.0),
    stream_range_pct=(53.0, 61.0),
    waveform=WaveformSpec(read_ratio_threshold=0.7, depth_fraction=0.05),
)

INTEL_CASCADE_LAKE = PlatformSpec(
    name="Intel Cascade Lake Xeon Gold",
    vendor="Intel",
    released=2019,
    cores=16,
    frequency_ghz=2.3,
    memory="6xDDR4-2666",
    channels=6,
    theoretical_bw_gbps=128.0,
    unloaded_latency_ns=85.0,
    max_latency_range_ns=(182.0, 303.0),
    saturated_bw_range_pct=(68.0, 87.0),
    stream_range_pct=(51.0, 57.0),
    waveform=WaveformSpec(read_ratio_threshold=0.7, depth_fraction=0.05),
)

AMD_ZEN2 = PlatformSpec(
    name="AMD Zen 2 EPYC 7742",
    vendor="AMD",
    released=2019,
    cores=64,
    frequency_ghz=2.25,
    memory="8xDDR4-3200",
    channels=8,
    theoretical_bw_gbps=204.0,
    unloaded_latency_ns=113.0,
    max_latency_range_ns=(257.0, 657.0),
    saturated_bw_range_pct=(57.0, 71.0),
    stream_range_pct=(46.0, 51.0),
    waveform=WaveformSpec(read_ratio_threshold=0.8, depth_fraction=0.07),
    # Section III: Zen 2 breaks the monotone write-impact pattern — its
    # most-write traffic performs nearly as well as 100%-read, while the
    # trough sits at a mixed ~60%-read composition.
    peak_profile=(0.69, 0.66, 0.65, 0.67, 0.69, 0.71),
)

IBM_POWER9 = PlatformSpec(
    name="IBM Power 9 02CY415",
    vendor="IBM",
    released=2017,
    cores=20,
    frequency_ghz=2.4,
    memory="8xDDR4-2666",
    channels=8,
    theoretical_bw_gbps=170.0,
    unloaded_latency_ns=96.0,
    max_latency_range_ns=(238.0, 546.0),
    saturated_bw_range_pct=(67.0, 91.0),
    stream_range_pct=(32.0, 36.0),
)

AMAZON_GRAVITON3 = PlatformSpec(
    name="Amazon Graviton 3",
    vendor="Amazon",
    released=2022,
    cores=64,
    frequency_ghz=2.6,
    memory="8xDDR5-4800",
    channels=8,
    theoretical_bw_gbps=307.0,
    unloaded_latency_ns=122.0,
    max_latency_range_ns=(332.0, 527.0),
    saturated_bw_range_pct=(63.0, 95.0),
    stream_range_pct=(78.0, 82.0),
    waveform=WaveformSpec(read_ratio_threshold=0.6, depth_fraction=0.06),
)

INTEL_SAPPHIRE_RAPIDS = PlatformSpec(
    name="Intel Sapphire Rapids Xeon Platinum",
    vendor="Intel",
    released=2023,
    cores=56,
    frequency_ghz=2.0,
    memory="8xDDR5-4800",
    channels=8,
    theoretical_bw_gbps=307.0,
    unloaded_latency_ns=109.0,
    max_latency_range_ns=(238.0, 406.0),
    saturated_bw_range_pct=(60.0, 86.0),
    stream_range_pct=(63.0, 66.0),
    waveform=WaveformSpec(read_ratio_threshold=0.6, depth_fraction=0.05),
)

FUJITSU_A64FX = PlatformSpec(
    name="Fujitsu A64FX",
    vendor="Fujitsu",
    released=2019,
    cores=48,
    frequency_ghz=2.2,
    memory="4xHBM2",
    channels=32,
    theoretical_bw_gbps=1024.0,
    unloaded_latency_ns=129.0,
    max_latency_range_ns=(338.0, 428.0),
    saturated_bw_range_pct=(72.0, 92.0),
    stream_range_pct=(49.0, 55.0),
)

NVIDIA_H100 = PlatformSpec(
    name="NVIDIA Hopper H100",
    vendor="NVIDIA",
    released=2023,
    cores=132,  # streaming multiprocessors
    frequency_ghz=1.1,
    memory="4xHBM2E",
    channels=32,
    theoretical_bw_gbps=1631.0,
    unloaded_latency_ns=363.0,
    max_latency_range_ns=(699.0, 1433.0),
    saturated_bw_range_pct=(51.0, 95.0),
    stream_range_pct=(64.0, 69.0),
    waveform=WaveformSpec(read_ratio_threshold=0.6, depth_fraction=0.06),
    is_gpu=True,
)

#: Table I platforms in the paper's column order.
TABLE_I_PLATFORMS: tuple[PlatformSpec, ...] = (
    INTEL_SKYLAKE,
    INTEL_CASCADE_LAKE,
    AMD_ZEN2,
    IBM_POWER9,
    AMAZON_GRAVITON3,
    INTEL_SAPPHIRE_RAPIDS,
    FUJITSU_A64FX,
    NVIDIA_H100,
)

_BY_NAME = {spec.name: spec for spec in TABLE_I_PLATFORMS}


def platform(name: str) -> PlatformSpec:
    """Look up a Table I platform by exact name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown platform {name!r}; available: {sorted(_BY_NAME)}"
        ) from None


def family(spec: PlatformSpec) -> CurveFamily:
    """Synthesize the calibrated curve family for a platform."""
    return synthesize_family(spec)


def cxl_expander_family() -> CurveFamily:
    """Manufacturer-style curves of the CXL expander (Figure 14a).

    CXL 2.0 over PCIe 5.0 x8: ~27 GB/s of CXL.mem payload per direction,
    backed by one dual-rank DDR5-5600 DIMM. Latency is the round trip
    from the host input pins (Section V-C); add the CPU-side round trip
    to obtain load-to-use values.
    """
    return synthesize_duplex_family(
        name="CXL expander (DDR5-5600, PCIe5 x8)",
        read_link_gbps=27.0,
        write_link_gbps=27.0,
        unloaded_latency_ns=180.0,
        max_latency_ns=520.0,
        # the device's shallow queues make latency climb earlier
        # (relative to peak) than on a socketed DDR system
        onset_fraction_of_peak=0.78,
        backend_cap_gbps=44.8,
    )


def optane_family() -> CurveFamily:
    """Intel Optane (App Direct) curves, Cascade Lake host (Section V-B).

    Two interleaved 128 GB Optane DIMMs: ~13 GB/s of sequential read
    bandwidth, ~4.6 GB/s of writes, and load-to-use latencies several
    times DRAM's. Peak bandwidth per mix follows the harmonic shared-
    media capacity of the asymmetric read/write rates.
    """
    read_cap = 13.2
    write_cap = 4.6
    ratios = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    curves = []
    for ratio in ratios:
        # shared media: each byte mix consumes read and write service
        peak = 1.0 / (ratio / read_cap + (1.0 - ratio) / write_cap)
        max_latency = 900.0 + 1400.0 * (1.0 - ratio)
        curves.append(
            synthesize_curve(
                read_ratio=ratio,
                unloaded_latency_ns=346.0,
                max_latency_ns=max_latency,
                peak_bandwidth_gbps=peak,
                onset_fraction_of_peak=0.75,
            )
        )
    return CurveFamily(
        curves,
        name="Intel Optane 2x128GB (App Direct)",
        theoretical_bandwidth_gbps=read_cap,
    )


def remote_socket_family() -> CurveFamily:
    """Remote-socket NUMA curves used by Appendix B.

    Relative to the CXL expander: ~28 ns higher latency in the
    low-bandwidth region, but a higher bandwidth saturation area (the
    coherent link plus a two-channel DDR4-3200 node out-muscles an x8
    CXL device).
    """
    return synthesize_family(
        PlatformSpec(
            name="Remote socket (CPU-less)",
            vendor="Intel",
            released=2019,
            cores=0,
            frequency_ghz=0.0,
            memory="6xDDR4-2666 remote (UPI-limited)",
            channels=6,
            # the inter-socket link, not the remote DIMMs, bounds the
            # usable bandwidth
            theoretical_bw_gbps=58.0,
            unloaded_latency_ns=208.0,
            max_latency_range_ns=(430.0, 620.0),
            saturated_bw_range_pct=(72.0, 95.0),
            stream_range_pct=(50.0, 60.0),
            read_ratios=(0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        )
    )


#: The curve families beyond Table I, by the name a scenario's
#: ``{"special": name}`` curve source and ``repro curves`` use.
SPECIAL_FAMILIES: dict[str, Callable[[], CurveFamily]] = {
    "cxl": cxl_expander_family,
    "optane": optane_family,
    "remote-socket": remote_socket_family,
}
