"""Scalar twins of the batched fast paths: the test oracle.

Every batched kernel in :mod:`repro.engine` claims bit-exactness with a
scalar computation. Each function here is that computation written as
the plain loop — sequential accumulation, one ``round()`` per request,
one ``simulator.access`` per request — under the same name and
signature as the kernel it checks, and the tests compare the two with
``==``, never a tolerance. The direct probe's oracle is the scalar
``repro.bench.model_probe.probe_point`` itself.

:func:`forced_scalar` is the test-only patch that sends every probe
point and every Mess window down its scalar fallback, so whole
experiments can be compared against an all-scalar run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np

from repro.core.simulator import MessMemorySimulator
from repro.engine import mess, probe
from repro.request import AccessType, MemoryRequest
from repro.units import CACHE_LINE_BYTES


def issue_schedule(ops: int, gap_ns: float, start_ns: float = 0.0) -> np.ndarray:
    """The literal ``now += gap`` accumulation."""
    if ops < 1:
        return np.empty(0, dtype=float)
    out = np.empty(ops, dtype=float)
    now = start_ns
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


def drive_fixed_rate(
    simulator: MessMemorySimulator,
    gap_ns: float,
    ops: int,
    address_lines: int = 65536,
    start_ns: float = 0.0,
) -> float:
    """The one-request-at-a-time drive loop."""
    now = start_ns
    for index in range(ops):
        simulator.access(
            MemoryRequest(
                address=(index % address_lines) * CACHE_LINE_BYTES,
                access_type=AccessType.READ,
                issue_time_ns=now,
            )
        )
        now += gap_ns
    return now


@contextmanager
def forced_scalar() -> Iterator[None]:
    """Send every probe point and Mess window down its scalar fallback.

    The batched probe reports every point as failing its preconditions,
    so ``characterize_model`` measures it with the scalar probe; the
    window fast path declines every window, so ``drive_fixed_rate``
    replays each one through ``simulator.access``.
    """
    with mock.patch.object(
        probe, "probe_point_vectorized", lambda *args: None
    ), mock.patch.object(mess, "_window_fast_path", lambda *args: False):
        yield
