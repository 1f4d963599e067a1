"""Fixed-latency memory model.

The simplest model in every CPU simulator (ZSim's default, OpenPiton's
recent extension): every request completes after a constant delay,
regardless of load or direction. The paper shows its defect plainly
(Figure 5a): the latency can be tuned to match the unloaded system, but
the simulated bandwidth is unbounded — ZSim's fixed model reached
342 GB/s, 2.7x the theoretical maximum of the modeled DDR4 system.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from .base import MemoryModel, MemoryRequest


class FixedLatencyModel(MemoryModel):
    """Constant service latency, infinite bandwidth."""

    def __init__(self, latency_ns: float = 25.0) -> None:
        super().__init__()
        if not (math.isfinite(latency_ns) and latency_ns > 0):
            raise ConfigurationError(
                f"latency must be finite and positive, got {latency_ns}"
            )
        self.latency_ns = latency_ns

    @property
    def name(self) -> str:
        return "fixed-latency"

    def _service_latency_ns(self, request: MemoryRequest) -> float:
        return self.latency_ns
