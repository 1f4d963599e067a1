"""Batch service-latency kernels for the analytical memory models.

Each kernel answers the latencies of a whole issue schedule in one
numpy pass, under preconditions that make the batch arithmetic provably
identical to the scalar model:

- the model's bandwidth pipe must stay idle-on-arrival for the whole
  schedule (``free_at <= t[0]`` and every inter-arrival gap at least
  the service time), so every ``SingleServerQueue.admit`` returns
  exactly ``0.0`` and the scalar latency expression degenerates to
  per-request arithmetic with no sequential state;
- stateless per-request terms (constant latencies, the write discount,
  the DRAMsim3 window estimate) are elementwise IEEE operations — the
  same operations the scalar code performs per request.

A kernel returns ``None`` when its preconditions do not hold; the
caller (``repro.engine.probe``) then measures that point with the
scalar probe, so the probe is exact by construction everywhere and
fast wherever the fast path applies.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..memmodels.base import MemoryModel
from ..memmodels.fixed import FixedLatencyModel
from ..memmodels.flawed import DRAMsim3Analog, Ramulator2Analog, RamulatorAnalog
from ..memmodels.queueing import SingleServerQueue
from ..memmodels.simple_bw import SimpleBandwidthModel
from ..units import CACHE_LINE_BYTES


def pipe_stays_idle(pipe: SingleServerQueue, t: np.ndarray) -> bool:
    """True when every ``admit(t[i])`` would return exactly ``0.0``.

    The queue starts free at ``pipe.backlog_ns``; with the first
    arrival no earlier than that and every gap at least the service
    time, each request starts at its own arrival (``max`` of equals is
    exact) and waits ``t[i] - t[i] == 0.0``.
    """
    if t.size == 0:
        return True
    if pipe.backlog_ns > t[0]:
        return False
    return t.size < 2 or bool(np.all(np.diff(t) >= pipe.service_ns))


def _fixed_latency(
    model: FixedLatencyModel, t: np.ndarray, is_read: np.ndarray
) -> np.ndarray:
    return np.full(t.size, model.latency_ns, dtype=float)


def _ramulator(
    model: RamulatorAnalog, t: np.ndarray, is_read: np.ndarray
) -> np.ndarray | None:
    if not pipe_stays_idle(model._pipe, t):
        return None
    # latency + wait with wait == 0.0: x + 0.0 == x for finite x
    return np.full(t.size, model.latency_ns + 0.0, dtype=float)


def _ramulator2(
    model: Ramulator2Analog, t: np.ndarray, is_read: np.ndarray
) -> np.ndarray | None:
    if not pipe_stays_idle(model._pipe, t):
        return None
    read_latency = model.base_latency_ns + 0.0
    write_latency = (model.base_latency_ns - model.write_discount_ns) + 0.0
    return np.where(is_read, read_latency, write_latency)


def _gem5_simple(
    model: SimpleBandwidthModel, t: np.ndarray, is_read: np.ndarray
) -> np.ndarray | None:
    if not pipe_stays_idle(model._pipe, t):
        return None
    read_latency = model.read_latency_ns + 0.0
    # writes pay min(wait, write_latency) == min(0.0, positive) == 0.0
    write_latency = model.write_latency_ns + 0.0
    return np.where(is_read, read_latency, write_latency)


def _dramsim3(
    model: DRAMsim3Analog, t: np.ndarray, is_read: np.ndarray
) -> np.ndarray | None:
    """Window-batched DRAMsim3 analog.

    The scalar model re-estimates bandwidth and read fraction every
    ``window_ops`` requests from the window's issue span. Requests
    inside a window use the previous window's estimate; the request
    that completes a window observes itself first and uses the fresh
    one. The kernel computes every window's estimate in one pass and
    scatters it per request with that one-index offset.
    """
    if model._window or not pipe_stays_idle(model._pipe, t):
        return None
    ops = model.window_ops
    n = t.size
    complete = n // ops
    est_after = np.empty(complete, dtype=float)
    rf_after = np.empty(complete, dtype=float)
    if complete:
        starts = t[: complete * ops : ops]
        ends = t[ops - 1 : complete * ops : ops]
        spans = ends - starts
        if np.any(spans <= 0):
            return None  # the scalar path would hold the old estimate
        # len(window) * CACHE_LINE_BYTES / span, exactly as the scalar
        est_after[:] = (ops * CACHE_LINE_BYTES) / spans
        window_ids = np.arange(complete * ops) // ops
        writes = np.bincount(
            window_ids, weights=~is_read[: complete * ops], minlength=complete
        )
        rf_after[:] = 1.0 - writes / ops
    # per-request estimate: previous window's value, except the request
    # closing a window, which sees the value it just completed
    prev_est = np.concatenate(([model._bandwidth_estimate], est_after))
    prev_rf = np.concatenate(([model._read_fraction], rf_after))
    which = np.minimum(np.arange(n) // ops, complete)
    per_op_est = prev_est[which]
    per_op_rf = prev_rf[which]
    if complete:
        closers = np.arange(complete) * ops + (ops - 1)
        per_op_est[closers] = est_after
        per_op_rf[closers] = rf_after
    mix_penalty = model.mix_spread_ns * (1.0 - np.abs(per_op_rf - 0.5) * 2.0)
    return (
        model.base_latency_ns
        + model.slope_ns_per_gbps * per_op_est
        + mix_penalty
        + 0.0
    )


#: Model type -> batch kernel. Exact-type dispatch: a subclass may
#: override the scalar arithmetic, so it falls back to the scalar
#: probe instead of inheriting a kernel that no longer matches it.
KERNELS: dict[type, Callable] = {
    FixedLatencyModel: _fixed_latency,
    RamulatorAnalog: _ramulator,
    Ramulator2Analog: _ramulator2,
    SimpleBandwidthModel: _gem5_simple,
    DRAMsim3Analog: _dramsim3,
}


def batch_latencies(
    model: MemoryModel, t: np.ndarray, is_read: np.ndarray
) -> np.ndarray | None:
    """Latency vector for a schedule, or ``None`` to probe it scalar.

    ``None`` means either no kernel exists for this model type or the
    kernel's exactness preconditions do not hold for this schedule.
    """
    kernel = KERNELS.get(type(model))
    if kernel is None:
        return None
    return kernel(model, t, is_read)


__all__ = ["KERNELS", "batch_latencies", "pipe_stays_idle"]
