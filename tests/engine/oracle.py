"""Scalar twins of the batched probe: the test oracle.

Every batched kernel in :mod:`repro.engine` claims bit-exactness with a
scalar computation. Each function here is that computation written as
the plain loop — sequential accumulation, one ``round()`` per request,
one ``model.access`` per request — under the same name and signature
as the kernel it checks, and the tests compare the two with ``==``,
never a tolerance. The direct probe's oracle is the scalar
``repro.bench.model_probe.probe_point`` itself.

:func:`forced_scalar` is the test-only patch that sends every probe
point down the scalar probe, so whole experiments can be compared
against an all-scalar run.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np

from repro.engine import probe
from repro.request import AccessType, MemoryRequest
from repro.units import CACHE_LINE_BYTES


def issue_schedule(ops: int, gap_ns: float) -> np.ndarray:
    """The literal ``now += gap`` accumulation from 0."""
    if ops < 1:
        return np.empty(0, dtype=float)
    out = np.empty(ops, dtype=float)
    now = 0.0
    for index in range(ops):
        out[index] = now
        now += gap_ns
    return out


def bresenham_reads(ops: int, read_ratio: float) -> np.ndarray:
    """The scalar probe's Bresenham interleave, one round() per request."""
    out = np.empty(ops, dtype=bool)
    reads_acc = 0
    for index in range(ops):
        target = round((index + 1) * read_ratio)
        out[index] = target > reads_acc
        if out[index]:
            reads_acc += 1
    return out


def stream_addresses(ops: int, streams: int, stream_bytes: int) -> np.ndarray:
    """The scalar probe's per-stream position counters, one step per request."""
    stream_lines = stream_bytes // CACHE_LINE_BYTES
    positions = [0] * streams
    out = np.empty(ops, dtype=np.int64)
    for index in range(ops):
        stream = index % streams
        out[index] = stream * stream_bytes + positions[stream] * CACHE_LINE_BYTES
        positions[stream] = (positions[stream] + 1) % stream_lines
    return out


def queue_waits(pipe, t: np.ndarray, service: np.ndarray | None = None) -> np.ndarray:
    """``admit`` per arrival, on a copy of the pipe."""
    queue = copy.copy(pipe)
    if service is None:
        return np.array([queue.admit(arrival) for arrival in t.tolist()])
    return np.array(
        [
            queue.admit(arrival, service_ns=busy)
            for arrival, busy in zip(t.tolist(), service.tolist())
        ]
    )


def batch_latencies(
    model, t: np.ndarray, is_read: np.ndarray, addresses: np.ndarray
) -> np.ndarray:
    """``model.access`` per request, on a copy of the model."""
    model = copy.deepcopy(model)
    return np.array(
        [
            model.access(
                MemoryRequest(
                    address=address,
                    access_type=AccessType.READ if read else AccessType.WRITE,
                    issue_time_ns=issue,
                )
            )
            for issue, read, address in zip(
                t.tolist(), is_read.tolist(), addresses.tolist()
            )
        ]
    )


def cap_never_stalls(
    t: np.ndarray, completions: np.ndarray, max_outstanding: int
) -> bool:
    """Scalar running-max check of the closed-loop cap bound."""
    m = max_outstanding
    if t.size <= m:
        return True
    ceiling = float("-inf")
    for index in range(m, t.size):
        ceiling = max(ceiling, float(completions[index - m]))
        if ceiling > float(t[index]):
            return False
    return True


def sequential_sum(values: np.ndarray) -> float:
    """The literal left-to-right ``+=`` accumulation."""
    total = 0.0
    for value in np.asarray(values, dtype=float):
        total += float(value)
    return total


@contextmanager
def forced_scalar() -> Iterator[None]:
    """Send every probe point down the scalar probe.

    The batched probe reports every point as failing its preconditions,
    so ``characterize_model`` measures it with the scalar probe.
    """
    with mock.patch.object(probe, "probe_point_vectorized", lambda *args: None):
        yield
