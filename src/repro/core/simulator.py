"""The Mess analytical memory simulator (Section V).

Instead of simulating DRAM devices, the Mess simulator positions the
running application on the platform's measured bandwidth-latency curves
and serves every request of a *simulation window* with the latency of
that position. At each window boundary (1000 memory operations in the
paper) it compares the bandwidth the CPU actually generated
(``cpuBW_i``) against the position it had assumed (``messBW_i``); a
mismatch means the assumed latency was inconsistent with the generated
traffic, so the position is nudged toward the observation by a
proportional(-integral) controller and the latency for the next window
is re-read from the curves.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from ..memmodels.base import AccessType, MemoryModel, MemoryRequest
from ..memmodels.queueing import SingleServerQueue
from ..resilience import faults as faults_mod
from ..telemetry import registry as telemetry
from ..units import CACHE_LINE_BYTES
from .controller import PIController
from .family import CurveFamily

#: Simulation-window length used throughout the paper's evaluation.
DEFAULT_WINDOW_OPS = 1000

#: A window counts as converged when |cpuBW - messBW| is within this
#: relative tolerance of the observed bandwidth.
CONVERGENCE_TOLERANCE = 0.05

#: Divergence guardrail: a controller estimate above this multiple of
#: *both* the curves' peak bandwidth and the window's observed
#: bandwidth is physically meaningless — the proportional term alone
#: can never overshoot the observation, so only integral windup (or a
#: corrupted observation) gets there — and is clamped back down. A
#: healthy loop, whatever its traffic, never trips the guard.
DIVERGENCE_FACTOR = 1.5

# Process-wide count of guardrail interventions. The runner snapshots
# it around each experiment to mark records degraded even when telemetry
# collection is off; monotonic, never reset.
_DEGRADED_TOTAL = 0


def degraded_total() -> int:
    """Guardrail interventions in this process since interpreter start."""
    return _DEGRADED_TOTAL


class MessMemorySimulator(MemoryModel):
    """Curve-driven analytical memory model with feedback control.

    Parameters
    ----------
    family:
        Bandwidth-latency curves of the target memory system, measured
        by the Mess benchmark or supplied by a manufacturer.
    window_ops:
        Memory operations per simulation window.
    convergence_factor:
        Proportional gain of the controller (paper's ``convFactor``).
    cpu_overhead_ns:
        The curves record *load-to-use* latency, which includes time
        spent in the CPU cores, caches and NoC. The CPU simulator
        already models that time, so it is subtracted before the latency
        is handed back (Section V-A's
        ``Latency^Memory = Latency^LoadToUse - Latency^CPU``).
    min_latency_ns:
        Floor on the returned memory latency; guards against an
        overhead larger than the curve latency.
    integral_gain:
        Optional integral term for the controller (0 matches the paper).

    Each completed window emits one ``sim.window`` telemetry sample
    (observed and estimated bandwidth, latency, error, read ratio)
    when a registry is active; that sample is the per-window record.
    """

    def __init__(
        self,
        family: CurveFamily,
        window_ops: int = DEFAULT_WINDOW_OPS,
        convergence_factor: float = 0.5,
        cpu_overhead_ns: float = 0.0,
        min_latency_ns: float = 2.0,
        integral_gain: float = 0.0,
    ) -> None:
        super().__init__()
        if window_ops < 1:
            raise ConfigurationError(f"window_ops must be >= 1, got {window_ops}")
        if cpu_overhead_ns < 0:
            raise ConfigurationError(
                f"cpu_overhead_ns must be non-negative, got {cpu_overhead_ns}"
            )
        if min_latency_ns <= 0:
            raise ConfigurationError(
                f"min_latency_ns must be positive, got {min_latency_ns}"
            )
        self.family = family
        self.window_ops = window_ops
        self.cpu_overhead_ns = cpu_overhead_ns
        self.min_latency_ns = min_latency_ns
        self.controller = PIController(
            convergence_factor=convergence_factor, integral_gain=integral_gain
        )
        self._window_index = 0
        self.converged_at_window: int | None = None
        #: Windows the guardrails had to clamp (NaN/divergent feedback).
        #: Non-zero means the result is degraded: usable, but produced
        #: with controller state held or clamped to the curve bounds.
        self.degraded_windows = 0
        # Fault-injection hook, read once like the telemetry registry:
        # None outside chaos runs, so the window path pays one check.
        self._faults = faults_mod.active()
        # Null-sink fast path: when no registry is active, the only cost
        # telemetry adds to the per-window path is one None check.
        self._tel = telemetry.active()
        if self._tel is not None:
            self._tel_windows = self._tel.counter(
                "sim.windows", help="Mess control-loop iterations completed"
            )
            self._tel_requests = self._tel.counter(
                "sim.requests", help="memory requests served from the curves"
            )
            self._tel_error = self._tel.gauge(
                "sim.controller_error_gbps",
                help="last window's cpuBW - messBW controller error",
            )
            self._tel_converged = self._tel.gauge(
                "sim.converged_window",
                help="window index at first convergence (-1: not yet)",
            )
            self._tel_converged.set(-1)
            self._tel_degraded = self._tel.counter(
                "sim.degraded_windows",
                help="control windows clamped by the divergence guardrails",
            )
        # Capacity pipe at the curves' maximum bandwidth. The latency
        # feedback alone cannot bound requesters that do not wait for
        # completions (hardware prefetchers, posted writes); the pipe
        # makes the curve's peak bandwidth a hard limit, which it
        # physically is. Below the peak the pipe's wait is negligible.
        self._pipe = SingleServerQueue(
            CACHE_LINE_BYTES / max(1e-9, family.max_bandwidth_gbps)
        )
        self._reset_position()

    @property
    def name(self) -> str:
        return "mess"

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------

    def _reset_position(self) -> None:
        """Start (or restart) from the unloaded end of the curves.

        The paper notes the simulation can start from any latency, e.g.
        the unloaded one; convergence takes care of the rest.
        """
        self._mess_bw = 0.0
        self._latency_ns = self._curve_latency(0.0, 1.0)
        self._unloaded_ns = self._latency_ns
        self._window_start_ns: float | None = None
        self._window_end_ns = 0.0
        self._window_bytes = 0
        self._window_reads = 0
        self._window_writes = 0
        self._window_last_issue_ns = 0.0

    def _curve_latency(self, bandwidth_gbps: float, read_ratio: float) -> float:
        """Memory-side latency at a curve position (overhead removed)."""
        load_to_use = self.family.latency_at(bandwidth_gbps, read_ratio)
        return max(self.min_latency_ns, load_to_use - self.cpu_overhead_ns)

    @property
    def current_latency_ns(self) -> float:
        """Latency currently applied to every incoming request."""
        return self._latency_ns

    @property
    def current_position_gbps(self) -> float:
        """The controller's current bandwidth estimate (``messBW_i``)."""
        return self._mess_bw

    def _service_latency_ns(self, request: MemoryRequest) -> float:
        _, access_type, issue_ns, size_bytes = request
        if self._tel is not None:
            self._tel_requests.inc()
        if self._window_start_ns is None:
            self._window_start_ns = issue_ns
        if access_type is AccessType.WRITE:
            self._window_writes += 1
        else:
            self._window_reads += 1
        self._window_bytes += size_bytes
        self._window_last_issue_ns = issue_ns
        # The curve latency already embeds steady-state queueing at the
        # estimated position; the capacity pipe embeds the *actual*
        # instantaneous backlog. Taking the max avoids double-counting
        # while making the curve's peak bandwidth a hard limit — which
        # the latency feedback alone cannot guarantee against requesters
        # that never wait (prefetchers, posted writes).
        # Each max(a, b) here is spelt ``b if b > a else a``, which is
        # what max returns, without a builtin call per request.
        pipe = self._pipe
        # SingleServerQueue.admit, inline
        free_ns = pipe._free_at_ns
        start_ns = free_ns if free_ns > issue_ns else issue_ns
        pipe._free_at_ns = start_ns + pipe.service_ns
        floor_ns = self._unloaded_ns + (start_ns - issue_ns)
        latency = floor_ns if floor_ns > self._latency_ns else self._latency_ns
        end_ns = issue_ns + latency
        if end_ns > self._window_end_ns:
            self._window_end_ns = end_ns
        if self._window_reads + self._window_writes >= self.window_ops:
            # window bandwidth is bytes over the issue span (wall time of
            # the window), not over issue-to-completion: including the
            # tail latency would systematically understate cpuBW
            self._end_window(self._window_last_issue_ns)
        return latency

    def _end_window(self, now_ns: float) -> None:
        """One iteration of the feedback loop (Figure 9)."""
        assert self._window_start_ns is not None
        elapsed = now_ns - self._window_start_ns
        if elapsed <= 0:
            # Degenerate window (all requests at one timestamp); keep the
            # current position and start a fresh window.
            self._window_start_ns = None
            self._window_bytes = 0
            self._window_reads = 0
            self._window_writes = 0
            return
        cpu_bw = self._window_bytes / elapsed  # bytes/ns == GB/s
        ops = self._window_reads + self._window_writes
        read_ratio = self._window_reads / ops if ops else 1.0
        if self._faults is not None:
            injected = self._faults.feedback_override(self._window_index)
            if injected is not None:
                cpu_bw = injected
        # Guardrails (graceful degradation): a NaN/negative observation
        # or a diverging controller must mark the result degraded and
        # clamp to the curve bounds, never crash or poison the loop.
        capacity = self.family.max_bandwidth_at(read_ratio)
        degraded_reason = None
        if not math.isfinite(cpu_bw) or cpu_bw < 0.0:
            degraded_reason = f"non-finite window bandwidth {cpu_bw!r}"
            # hold position: feeding the controller its own estimate
            # yields zero error, leaving estimate and integral untouched
            cpu_bw = self._mess_bw
        next_bw = self.controller.update(self._mess_bw, cpu_bw)
        # characterization traffic can legitimately observe more than the
        # curve peak at the current read ratio, and the estimate rightly
        # tracks it; an estimate converging back DOWN through the guard
        # band is healthy too — divergence means moving further up,
        # beyond both the observation and the curves
        sane_ceiling = max(capacity, cpu_bw)
        if not math.isfinite(next_bw):
            degraded_reason = (
                degraded_reason
                or f"controller produced non-finite estimate {next_bw!r}"
            )
            next_bw = self._mess_bw
        elif (
            next_bw > sane_ceiling * DIVERGENCE_FACTOR
            and next_bw > self._mess_bw
        ):
            degraded_reason = degraded_reason or (
                f"controller diverged: estimate {next_bw:.1f} GB/s exceeds "
                f"{DIVERGENCE_FACTOR}x the curve peak and the observed "
                f"bandwidth (ceiling {sane_ceiling:.1f} GB/s)"
            )
            next_bw = sane_ceiling
        self._mess_bw = max(0.0, next_bw)
        if degraded_reason is not None:
            self._mark_degraded(degraded_reason)
        self._latency_ns = self._curve_latency(self._mess_bw, read_ratio)
        # retune the capacity pipe to the current traffic composition
        self._pipe.service_ns = CACHE_LINE_BYTES / max(1e-9, capacity)
        self._unloaded_ns = self._curve_latency(0.0, read_ratio)
        if (
            self.converged_at_window is None
            and abs(self.controller.last_error) <= CONVERGENCE_TOLERANCE * cpu_bw
        ):
            self.converged_at_window = self._window_index
        if self._tel is not None:
            self._tel_windows.inc()
            self._tel_error.set(self.controller.last_error)
            if self.converged_at_window is not None:
                self._tel_converged.set(self.converged_at_window)
            self._tel.sample(
                "sim.window",
                ts_us=now_ns / 1e3,
                cpu_bw_gbps=cpu_bw,
                mess_bw_gbps=self._mess_bw,
                latency_ns=self._latency_ns,
                error_gbps=self.controller.last_error,
                read_ratio=read_ratio,
            )
        self._window_index += 1
        self._window_start_ns = None
        self._window_bytes = 0
        self._window_reads = 0
        self._window_writes = 0

    def _mark_degraded(self, reason: str) -> None:
        """Record one guardrail intervention (counter + telemetry)."""
        global _DEGRADED_TOTAL
        _DEGRADED_TOTAL += 1
        self.degraded_windows += 1
        if self._tel is not None:
            self._tel_degraded.inc()
            self._tel.event(
                "sim.degraded",
                category="simulator",
                window=self._window_index,
                reason=reason,
            )

    @property
    def degraded(self) -> bool:
        """True when any window needed the divergence guardrails."""
        return self.degraded_windows > 0

    def notify_window(self, now_ns: float) -> None:
        """Force a control iteration, e.g. at the end of a CPU quantum."""
        if self._window_start_ns is not None and (
            self._window_reads + self._window_writes
        ):
            self._end_window(max(self._window_last_issue_ns, now_ns))

    def reset(self) -> None:
        super().reset()
        self.controller.reset()
        self._window_index = 0
        self.converged_at_window = None
        self.degraded_windows = 0
        self._pipe.reset()
        self._pipe.service_ns = CACHE_LINE_BYTES / max(
            1e-9, self.family.max_bandwidth_gbps
        )
        self._reset_position()


def drive_fixed_rate(
    simulator: MessMemorySimulator, gap_ns: float, ops: int
) -> list[float]:
    """Drive ``ops`` fixed-rate reads through the simulator.

    The open-loop harness of the ablation and Optane studies: request
    ``i`` is a read issued at ``now``, and ``now += gap_ns`` after it.
    The curves never read an address, so every request names line 0.
    Returns the controller's estimate (``current_position_gbps``) after
    each completed window, in window order.
    """
    controller = simulator.controller
    updates = controller.updates
    estimates: list[float] = []
    now = 0.0
    for _ in range(ops):
        simulator.access(MemoryRequest(0, AccessType.READ, now))
        if controller.updates != updates:
            updates = controller.updates
            estimates.append(simulator.current_position_gbps)
        now += gap_ns
    return estimates
