"""GUPS / RandomAccess workload (HPC Challenge).

Section IV-D notes the Mess traffic generator extends naturally to other
access patterns and names HPCC RandomAccess (Giga Updates Per Second) as
one of them: random read-modify-write updates over a huge table, the
worst case for row-buffer locality. We implement it both as an
alternative traffic pattern (for the row-buffer ablation) and as a
runnable workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..cpu.core import MemOp, Operation
from ..cpu.system import System, SystemResult
from ..errors import ConfigurationError
from ..units import CACHE_LINE_BYTES
from .base import Workload


def gups_ops(
    table_bytes: int,
    base_address: int = 0,
    seed: int = 0,
    max_updates: int | None = None,
) -> Iterator[Operation]:
    """Random read-modify-write updates: each is a load plus a store.

    Every update touches a uniformly random cache line, so consecutive
    operations almost never share a DRAM row — the anti-pattern to the
    Mess generator's sequential arrays.
    """
    if table_bytes < CACHE_LINE_BYTES:
        raise ConfigurationError("table must hold at least one line")
    lines = table_bytes // CACHE_LINE_BYTES
    rng = np.random.default_rng(seed)
    issued = 0
    batch = 2048
    while max_updates is None or issued < max_updates:
        for index in rng.integers(0, lines, size=batch):
            if max_updates is not None and issued >= max_updates:
                return
            address = base_address + int(index) * CACHE_LINE_BYTES
            yield MemOp(address)
            yield MemOp(address, True)
            issued += 1


@dataclass
class GupsWorkload(Workload):
    """RandomAccess on every core; score is updates per microsecond."""

    table_bytes: int = 64 * 1024 * 1024
    updates_per_core: int = 3000
    seed: int = 11
    metric_name: str = "updates_per_us"
    higher_is_better: bool = True
    name: str = "gups"

    def __post_init__(self) -> None:
        if self.updates_per_core < 1:
            raise ConfigurationError("updates_per_core must be >= 1")
        self._total_updates = 0

    def attach(self, system: System) -> None:
        self._total_updates = self.updates_per_core * system.config.cores
        for core in range(system.config.cores):
            system.add_workload(
                core,
                gups_ops(
                    self.table_bytes,
                    base_address=core * self.table_bytes,
                    seed=self.seed + core,
                    max_updates=self.updates_per_core,
                ),
            )

    def score(self, result: SystemResult) -> float:
        if result.duration_ns <= 0:
            raise ConfigurationError("run produced no elapsed time")
        return 1000.0 * self._total_updates / result.duration_ns
