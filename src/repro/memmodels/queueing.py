"""Small queueing primitives shared by the analytical memory models."""

from __future__ import annotations

from ..errors import ConfigurationError


class SingleServerQueue:
    """Work-conserving single server with deterministic service time.

    Models a bandwidth pipe: each request occupies the server for its
    service time; a request arriving while the server is busy waits for
    the backlog. This is the mechanism behind the fixed-bandwidth caps
    in the gem5-simple, DRAMsim3 and Ramulator 2 analogs.
    """

    def __init__(self, service_ns: float) -> None:
        if service_ns <= 0:
            raise ConfigurationError(f"service time must be positive, got {service_ns}")
        self.service_ns = service_ns
        self._free_at_ns = 0.0

    def admit(self, arrival_ns: float, service_ns: float | None = None) -> float:
        """Admit one request; returns its queueing delay (wait before service)."""
        service = self.service_ns if service_ns is None else service_ns
        start = max(arrival_ns, self._free_at_ns)
        self._free_at_ns = start + service
        return start - arrival_ns

    @property
    def free_at_ns(self) -> float:
        """Absolute time at which the server finishes its admitted work.

        An arrival at or after this time starts service immediately.
        """
        return self._free_at_ns

    def reset(self) -> None:
        self._free_at_ns = 0.0


class ArrivalRateEstimator:
    """Exponentially weighted estimate of the request arrival rate.

    Used by the M/D/1 model to compute utilization without a fixed
    measurement window: each inter-arrival gap updates the mean with
    weight ``alpha``.
    """

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._last_arrival_ns: float | None = None
        self._mean_gap_ns: float | None = None

    def observe(self, arrival_ns: float) -> None:
        """Record one arrival."""
        if self._last_arrival_ns is not None:
            gap = max(1e-6, arrival_ns - self._last_arrival_ns)
            if self._mean_gap_ns is None:
                self._mean_gap_ns = gap
            else:
                self._mean_gap_ns += self.alpha * (gap - self._mean_gap_ns)
        self._last_arrival_ns = arrival_ns

    @property
    def rate_per_ns(self) -> float:
        """Estimated arrivals per nanosecond (0 until two arrivals seen)."""
        if not self._mean_gap_ns:
            return 0.0
        return 1.0 / self._mean_gap_ns

    def reset(self) -> None:
        self._last_arrival_ns = None
        self._mean_gap_ns = None
