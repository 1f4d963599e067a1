"""Window-batched driving of the Mess analytical simulator.

The open-loop studies (the ablation's controller sweeps, the Optane
validation) push a fixed-rate request stream through
:class:`MessMemorySimulator`. Within one simulation window the scalar
per-request work is degenerate: the latency is constant (the capacity
pipe stays idle at sub-peak rates, so every request answers
``max(latency_ns, unloaded_ns + 0.0)``), and the bookkeeping is
counters. This driver executes a whole window per step:

- it verifies the pipe stays idle across the window (the same
  precondition the probe kernels use), then writes the window's
  accumulators (integer counts, first/last issue times) directly;
- statistics accumulate through the same sequential arithmetic as the
  scalar path (a running sum of a constant is reproduced with
  ``np.cumsum``, never a closed form);
- the window boundary runs the simulator's *own*
  ``_end_window`` — controller update, guardrails, history and
  telemetry are the simulator's code, untouched.

A window whose fast-path precondition fails is replayed through
``simulator.access`` request by request, and so is every window while
telemetry is bound, so the drive is bit-exact with a one-request-at-
a-time loop under both outcomes.
"""

from __future__ import annotations

import numpy as np

from ..core.simulator import MessMemorySimulator
from ..request import AccessType, MemoryRequest
from ..units import CACHE_LINE_BYTES
from .probe import issue_schedule, sequential_sum


def drive_fixed_rate(
    simulator: MessMemorySimulator,
    gap_ns: float,
    ops: int,
    address_lines: int = 65536,
    start_ns: float = 0.0,
) -> float:
    """Drive ``ops`` fixed-rate reads through the simulator.

    The open-loop harness shared by the ablation and Optane studies:
    addresses walk ``address_lines`` cache lines cyclically, every
    request is a read, and issue times accumulate ``now += gap_ns``.
    Returns the final ``now``.
    """
    if ops < 1:
        return start_ns
    t = issue_schedule(ops, gap_ns, start_ns)
    cursor = 0
    while cursor < ops:
        # the studies drive fresh simulators, but stay correct for a
        # mid-window handoff: finish the current window first
        pending = simulator._window_reads + simulator._window_writes
        span = min(simulator.window_ops - pending, ops - cursor)
        window = t[cursor : cursor + span]
        if simulator._tel is not None or not _window_fast_path(
            simulator, window, span
        ):
            _replay(simulator, window, cursor, address_lines)
        cursor += span
    return float(t[-1]) + gap_ns


def _window_fast_path(
    simulator: MessMemorySimulator, t: np.ndarray, span: int
) -> bool:
    """Execute one window segment in batch; False to replay it."""
    pipe = simulator._pipe
    if pipe.free_at_ns > t[0]:
        return False
    if t.size >= 2 and not bool(np.all(np.diff(t) >= pipe.service_ns)):
        return False
    # every admit waits 0.0, so the per-request latency is constant
    latency = max(simulator._latency_ns, simulator._unloaded_ns + 0.0)
    first = float(t[0])
    last = float(t[-1])
    pipe._free_at_ns = last + pipe.service_ns
    if simulator._window_start_ns is None:
        simulator._window_start_ns = first
    simulator._window_reads += span
    simulator._window_bytes += span * CACHE_LINE_BYTES
    simulator._window_last_issue_ns = last
    simulator._window_end_ns = max(simulator._window_end_ns, last + latency)
    stats = simulator.stats
    stats.reads += span
    stats.total_latency_ns = sequential_sum(
        np.concatenate(([stats.total_latency_ns], np.full(span, latency)))
    )
    stats.bytes_transferred += span * CACHE_LINE_BYTES
    if np.isnan(stats.first_issue_ns):
        stats.first_issue_ns = first
    stats.last_completion_ns = max(stats.last_completion_ns, last + latency)
    if simulator._window_reads + simulator._window_writes >= simulator.window_ops:
        simulator._end_window(simulator._window_last_issue_ns)
    return True


def _replay(
    simulator: MessMemorySimulator,
    t: np.ndarray,
    base_index: int,
    address_lines: int,
) -> None:
    """The scalar loop: one ``simulator.access`` per request."""
    for offset in range(t.size):
        index = base_index + offset
        simulator.access(
            MemoryRequest(
                (index % address_lines) * CACHE_LINE_BYTES,
                AccessType.READ,
                float(t[offset]),
            )
        )


__all__ = ["drive_fixed_rate"]
