"""The batched probe primitives agree bit-for-bit with their scalar twins.

:mod:`tests.engine.oracle` is the scalar reference for every batched
kernel in :mod:`repro.engine`: the same name and signature, written as
the plain loop. This module pins the probe primitives against it at the
small, odd-sized inputs that exercise their edges — a gap that is not
a power of two, a read ratio that does not divide the request count, a
window cap of one — and compares with ``==``, never a tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.engine import probe as fast_probe

from . import oracle


class TestNumericParity:
    def test_probe_primitives(self):
        assert oracle.issue_schedule(
            50, 3.3
        ).tolist() == fast_probe.issue_schedule(50, 3.3).tolist()
        assert oracle.bresenham_reads(
            41, 0.62
        ).tolist() == fast_probe.bresenham_reads(41, 0.62).tolist()
        values = np.linspace(0.1, 9.9, 257)
        assert oracle.sequential_sum(values) == fast_probe.sequential_sum(
            values
        )

    def test_cap_never_stalls(self):
        t = np.arange(0.0, 100.0, 2.5)
        schedule = fast_probe.issue_schedule(t.size, 1.0)
        for cap in (1, 4, 64):
            for completions in (t + 17.0, schedule + 5.0, schedule + 200.0):
                assert oracle.cap_never_stalls(
                    t, completions, cap
                ) == fast_probe.cap_never_stalls(t, completions, cap)
