"""Pointer-chase latency probe (Appendix A, Listing 1).

The original is a chain of dependent x86 ``mov (%rax), %rax`` loads over
a randomly-permuted array larger than the LLC, one element per cache
line. Our port preserves every property that matters to the
measurement:

- each load *depends* on the previous one, so latencies serialize and
  the mean latency is total time / loads (``MemOp.dependent=True``);
- the traversal is random at cache-line granularity, defeating
  prefetching and temporal locality;
- the footprint exceeds the last-level cache, so the chain misses to
  memory.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..cpu.core import MemOp, Operation
from ..errors import BenchmarkError
from ..units import CACHE_LINE_BYTES


def pointer_chase_ops(
    array_bytes: int,
    base_address: int = 0,
    seed: int = 0,
    max_ops: int | None = None,
) -> Iterator[Operation]:
    """Infinite (or bounded) stream of dependent random loads.

    A true pointer chase follows one random permutation cycle; sampling
    uniform random lines from the same footprint is statistically
    equivalent for cache behaviour and avoids materializing multi-million
    entry permutations. Revisits within a huge array are rare enough not
    to perturb the miss rate.
    """
    if array_bytes < CACHE_LINE_BYTES:
        raise BenchmarkError("pointer-chase array must hold at least one line")
    lines = array_bytes // CACHE_LINE_BYTES
    rng = np.random.default_rng(seed)
    issued = 0
    batch = 4096
    while max_ops is None or issued < max_ops:
        for index in rng.integers(0, lines, size=batch):
            if max_ops is not None and issued >= max_ops:
                return
            # (address, is_store, dependent) by position
            yield MemOp(base_address + int(index) * CACHE_LINE_BYTES, False, True)
            issued += 1
