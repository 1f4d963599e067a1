"""Batch service-latency kernels for the analytical memory models.

Each kernel answers the latencies of a whole issue schedule in one
pass, with the scalar model's own floating-point operations in the
scalar model's order, so every latency is identical to the one
``model.access`` would return:

- stateless per-request terms (constant latencies, the write discount,
  the DRAMsim3 window estimate, the Pollaczek-Khinchine wait) are
  elementwise IEEE operations — the same operations the scalar code
  performs per request;
- sequential state is carried by exact scans that repeat the scalar
  recurrence one request at a time: :func:`queue_waits` replays
  ``SingleServerQueue.admit`` and the M/D/1 kernel replays
  ``ArrivalRateEstimator.observe``. Neither is rewritten as a prefix
  sum or a closed form, since both would reassociate the additions.

A kernel reads its model and never advances it. It returns ``None``
when it cannot reproduce the model's current state (a DRAMsim3 window
already part-filled, an M/D/1 estimator that has seen arrivals); the
caller (``repro.engine.probe``) then measures that point with the
scalar probe, so the probe is exact by construction everywhere.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..memmodels.base import MemoryModel
from ..memmodels.fixed import FixedLatencyModel
from ..memmodels.flawed import DRAMsim3Analog, Ramulator2Analog, RamulatorAnalog
from ..memmodels.internal_ddr import InternalDdrModel
from ..memmodels.md1 import MD1QueueModel
from ..memmodels.queueing import SingleServerQueue
from ..memmodels.simple_bw import SimpleBandwidthModel
from ..units import CACHE_LINE_BYTES


def pipe_stays_idle(pipe: SingleServerQueue, t: np.ndarray) -> bool:
    """True when every ``admit(t[i])`` would return exactly ``0.0``.

    The queue starts free at ``pipe.free_at_ns``; with the first
    arrival no earlier than that and every gap at least the service
    time, each request starts at its own arrival (``max`` of equals is
    exact) and waits ``t[i] - t[i] == 0.0``.
    """
    if t.size == 0:
        return True
    if pipe.free_at_ns > t[0]:
        return False
    return t.size < 2 or bool(np.all(np.diff(t) >= pipe.service_ns))


def queue_waits(
    pipe: SingleServerQueue, t: np.ndarray, service: np.ndarray | None = None
) -> np.ndarray:
    """The wait ``pipe.admit`` would give each arrival of ``t``, in order.

    ``service`` is one service time per request, or ``None`` for the
    pipe's own. The scan starts from ``pipe.free_at_ns`` and leaves the
    pipe untouched. With the pipe's own service time and an all-idle
    schedule (:func:`pipe_stays_idle`) every wait is ``0.0`` and no
    loop runs; otherwise the loop performs ``admit``'s operations.
    """
    if service is None:
        if pipe_stays_idle(pipe, t):
            return np.zeros(t.size)
        service = np.full(t.size, pipe.service_ns)
    waits = []
    free = pipe.free_at_ns
    for arrival, busy in zip(t.tolist(), service.tolist()):
        start = free if free > arrival else arrival  # max(), without the call
        free = start + busy
        waits.append(start - arrival)
    return np.array(waits, dtype=float)


def _fixed_latency(model: FixedLatencyModel, t, is_read, addresses) -> np.ndarray:
    return np.full(t.size, model.latency_ns, dtype=float)


def _ramulator(model: RamulatorAnalog, t, is_read, addresses) -> np.ndarray:
    return model.latency_ns + queue_waits(model._pipe, t)


def _ramulator2(model: Ramulator2Analog, t, is_read, addresses) -> np.ndarray:
    write_latency = model.base_latency_ns - model.write_discount_ns
    latency = np.where(is_read, model.base_latency_ns, write_latency)
    return latency + queue_waits(model._pipe, t)


def _gem5_simple(model: SimpleBandwidthModel, t, is_read, addresses) -> np.ndarray:
    waits = queue_waits(model._pipe, t)
    # writes are acknowledged after enqueue: they pay min(wait, latency)
    return np.where(
        is_read,
        model.read_latency_ns + waits,
        model.write_latency_ns + np.minimum(waits, model.write_latency_ns),
    )


def _dramsim3(model: DRAMsim3Analog, t, is_read, addresses) -> np.ndarray | None:
    """Window-batched DRAMsim3 analog.

    The scalar model re-estimates bandwidth and read fraction every
    ``window_ops`` requests from the window's issue span. Requests
    inside a window use the previous window's estimate; the request
    that completes a window observes itself first and uses the fresh
    one. The kernel computes every window's estimate in one pass and
    scatters it per request with that one-index offset.
    """
    if model._window:
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
        + queue_waits(model._pipe, t)
    )


def _md1(model: MD1QueueModel, t, is_read, addresses) -> np.ndarray | None:
    """M/D/1 latencies from a scan of the arrival-rate estimator.

    ``ArrivalRateEstimator.observe`` is an exponentially weighted mean
    of the inter-arrival gaps; the scan repeats its update per request
    to get the mean each request sees (none before the second arrival,
    where the rate reads 0.0). The Pollaczek-Khinchine terms are then
    elementwise, in the scalar order.
    """
    if model._rate._last_arrival_ns is not None:
        return None  # the estimator has already seen arrivals
    alpha = model._rate.alpha
    mean = None
    means = []
    for gap in np.maximum(1e-6, np.diff(t)).tolist():
        mean = gap if mean is None else mean + alpha * (gap - mean)
        means.append(mean)
    per_ns = np.zeros(t.size)
    per_ns[1:] = 1.0 / np.array(means, dtype=float)
    service = model.service_ns
    service = np.where(is_read, service, service * model.write_service_inflation)
    rho = np.minimum(model.max_utilization, per_ns * service)
    # Pollaczek-Khinchine mean wait for M/D/1: rho * D / (2 * (1 - rho))
    waiting = rho * service / (2.0 * (1.0 - rho))
    return model.unloaded_latency_ns + waiting


def _internal_ddr(model: InternalDdrModel, t, is_read, addresses) -> np.ndarray:
    """Per-channel scans with the scalar turnaround charge.

    A channel's service is its pipe's own time, plus ``turnaround_ns``
    when a request's direction differs from that channel's previous
    request (the first compares with the channel's ``_last_was_write``).
    """
    channel = (addresses // CACHE_LINE_BYTES) % model.channels
    is_write = ~is_read
    waits = np.empty(t.size)
    for index, pipe in enumerate(model._pipes):
        mine = np.flatnonzero(channel == index)
        writes = is_write[mine]
        previous = np.concatenate(([model._last_was_write[index]], writes))[:-1]
        service = np.where(
            writes != previous,
            pipe.service_ns + model.turnaround_ns,
            pipe.service_ns,
        )
        waits[mine] = queue_waits(pipe, t[mine], service)
    return model.unloaded_latency_ns + waits


#: Model type -> batch kernel. Exact-type dispatch: a subclass may
#: override the scalar arithmetic, so it falls back to the scalar
#: probe instead of inheriting a kernel that no longer matches it.
KERNELS: dict[type, Callable] = {
    FixedLatencyModel: _fixed_latency,
    RamulatorAnalog: _ramulator,
    Ramulator2Analog: _ramulator2,
    SimpleBandwidthModel: _gem5_simple,
    DRAMsim3Analog: _dramsim3,
    MD1QueueModel: _md1,
    InternalDdrModel: _internal_ddr,
}


def batch_latencies(
    model: MemoryModel,
    t: np.ndarray,
    is_read: np.ndarray,
    addresses: np.ndarray,
) -> np.ndarray | None:
    """Latency vector for a schedule, or ``None`` to probe it scalar.

    Request ``i`` is issued at ``t[i]`` to ``addresses[i]``, a read
    where ``is_read[i]``. ``None`` means either no kernel exists for
    this model type or the kernel cannot reproduce the model's state.
    """
    kernel = KERNELS.get(type(model))
    if kernel is None:
        return None
    return kernel(model, t, is_read, addresses)


__all__ = ["KERNELS", "batch_latencies", "pipe_stays_idle", "queue_waits"]
