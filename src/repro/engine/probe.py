"""Vectorized direct model probe (bit-exact with the scalar probe).

The scalar probe (:mod:`repro.bench.model_probe`) drives a memory model
one request at a time: issue times accumulate ``now += gap``, a heap
caps the outstanding requests, and a Bresenham schedule interleaves
reads and writes. This module replays the same measurement as array
arithmetic:

- the no-stall issue schedule is the exact running sum of the constant
  gap (``np.cumsum`` performs the same sequential additions);
- the Bresenham schedule is closed-form: request ``i`` is a read iff
  ``round((i + 1) * ratio)`` exceeds ``round(i * ratio)``, with
  ``np.round`` matching Python's banker's rounding on floats;
- the round-robin stream addresses are closed-form: request ``i`` is
  in stream ``i % streams`` at line ``(i // streams) % stream_lines``;
- the model's latencies come from a batch kernel
  (:mod:`repro.engine.kernels`) that repeats the scalar model's
  operations, with exact scans for its sequential state;
- the closed-loop cap is *verified* rather than simulated: with ``M``
  outstanding allowed, the pop at request ``i`` can only stall when
  some completion among the first ``i - M + 1`` exceeds ``t[i]``; if
  ``running_max(completions)[i - M] <= t[i]`` for all ``i >= M``, the
  heap never advances ``now`` and the candidate schedule *is* the
  schedule.

A point whose model has no kernel, or whose schedule stalls on the
cap, is measured by the scalar probe instead, so ``characterize_model``
is exact by construction and fast on every other point.
"""

from __future__ import annotations

import numpy as np

from ..units import CACHE_LINE_BYTES
from .kernels import batch_latencies


def issue_schedule(ops: int, gap_ns: float) -> np.ndarray:
    """Issue times of an unstalled fixed-rate stream starting at 0.

    Bit-exact with the scalar ``now += gap`` accumulation: ``cumsum``
    performs the same left-to-right additions.
    """
    if ops < 1:
        return np.empty(0, dtype=float)
    steps = np.empty(ops, dtype=float)
    steps[0] = 0.0
    steps[1:] = gap_ns
    return np.cumsum(steps)


def bresenham_reads(ops: int, read_ratio: float) -> np.ndarray:
    """Boolean read mask of the scalar Bresenham interleave.

    The scalar loop keeps ``reads_acc`` equal to
    ``round(i * read_ratio)`` (each step raises the target by 0 or 1),
    so request ``i`` is a read exactly when the rounded target
    increases. ``np.round`` and Python ``round`` agree on floats
    (both round half to even).
    """
    targets = np.round(np.arange(1, ops + 1, dtype=float) * read_ratio)
    previous = np.concatenate(([0.0], targets[:-1]))
    return targets > previous


def stream_addresses(ops: int, streams: int, stream_bytes: int) -> np.ndarray:
    """Addresses of the scalar probe's round-robin sequential streams.

    Request ``i`` belongs to stream ``i % streams`` and touches that
    stream's line ``(i // streams) % stream_lines``, the position the
    scalar probe's per-stream counter holds at that request. Laid out
    as a grid, row ``j`` holds line ``j`` of every stream in stream
    order, so the flattened grid is the request order.
    """
    stream_lines = stream_bytes // CACHE_LINE_BYTES
    lines = np.arange(-(-ops // streams), dtype=np.int64) % stream_lines
    bases = np.arange(streams, dtype=np.int64) * stream_bytes
    return (lines[:, None] * CACHE_LINE_BYTES + bases).ravel()[:ops]


def cap_never_stalls(
    t: np.ndarray, completions: np.ndarray, max_outstanding: int
) -> bool:
    """Whether the closed-loop cap would leave the schedule untouched.

    Before issuing request ``i >= M`` the scalar probe pops the
    smallest of the ``M`` in-flight completions. That value is at most
    the ``(i - M + 1)``-th smallest of all prior completions, which is
    at most ``max(completions[: i - M + 1])``. When that bound never
    exceeds ``t[i]``, every pop satisfies ``popped <= now`` and
    ``now = max(now, popped)`` is the exact identity.
    """
    m = max_outstanding
    if t.size <= m:
        return True
    ceiling = np.maximum.accumulate(completions)[: t.size - m]
    return bool(np.all(ceiling <= t[m:]))


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, matching a scalar ``+=`` loop.

    ``np.cumsum`` is a sequential scan; its last element is the exact
    accumulation order of the scalar loop (``np.sum`` is pairwise and
    is not).
    """
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def probe_point_vectorized(model, read_ratio: float, gap_ns: float, config):
    """Vectorized ``probe_point``; ``None`` when preconditions fail.

    Returns a ``ProbePoint`` bit-identical to the scalar probe when
    the model has an exact batch kernel and the schedule is provably
    stall-free; ``None`` tells the caller to run the scalar probe.
    """
    # lazy import: model_probe dispatches into this module
    from ..bench.model_probe import ProbePoint
    from ..errors import BenchmarkError

    ops = config.ops_per_point
    t = issue_schedule(ops, gap_ns)
    is_read = bresenham_reads(ops, read_ratio)
    addresses = stream_addresses(ops, config.streams, config.stream_bytes)
    latencies = batch_latencies(model, t, is_read, addresses)
    if latencies is None:
        return None
    completions = t + latencies
    if not cap_never_stalls(t, completions, config.max_outstanding):
        return None

    warmup = config.warmup_ops
    measure_start = float(t[warmup])
    measured_bytes = (ops - warmup) * CACHE_LINE_BYTES
    last_completion = max(0.0, float(np.max(completions[warmup:])))
    if last_completion <= measure_start:
        raise BenchmarkError("probe produced no measurable window")
    bandwidth = measured_bytes / (last_completion - measure_start)

    measured_reads = latencies[warmup:][is_read[warmup:]]
    read_count = int(measured_reads.size)
    if read_count == 0:
        # pure-write point: the scalar probe reports the model's mean
        # latency over *all* requests (its stats accumulate from op 0)
        read_latency = sequential_sum(latencies) / ops
    else:
        read_latency = sequential_sum(measured_reads) / read_count
    return ProbePoint(
        read_ratio=read_ratio,
        gap_ns=gap_ns,
        bandwidth_gbps=float(bandwidth),
        read_latency_ns=float(read_latency),
    )


__all__ = [
    "bresenham_reads",
    "cap_never_stalls",
    "issue_schedule",
    "probe_point_vectorized",
    "sequential_sum",
    "stream_addresses",
]
