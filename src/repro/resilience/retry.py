"""Retry policy: exponential backoff with deterministic jitter.

The policy is a frozen value object so it can ride inside a
:class:`~repro.runner.pool.run_many` call and produce the *same* delay
schedule in every process. It retries exactly the transient failure
kinds (:data:`~repro.resilience.failures.TRANSIENT_KINDS`, the one
retry rule). Jitter is derived from a sha256 of ``(label, attempt)``
rather than from ``random`` — reproducibility is the whole point of
this repository, and a chaos run must be replayable bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import ResilienceError
from .failures import TRANSIENT_KINDS


def deterministic_fraction(*parts: object) -> float:
    """A stable pseudo-random draw in ``[0, 1)`` from arbitrary parts.

    Shared by the retry jitter and the fault plan's probability draws.
    ``hash()`` is salted per process, so the draw hashes a canonical
    string through sha256 instead — identical across processes, runs
    and platforms.
    """
    blob = ":".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How often failed experiments are re-dispatched, and when.

    Only the transient failure kinds are retried; a deterministic model
    error would fail identically.

    Parameters
    ----------
    max_attempts:
        Total attempts per experiment including the first; ``1`` means
        no retries.
    base_delay_s / max_delay_s:
        Exponential backoff: attempt ``n`` waits
        ``min(base * 2**(n-1), max)`` seconds before re-dispatch.
    jitter:
        Fractional spread applied to each delay, in ``[0, 1]``: the
        delay is scaled by a deterministic factor in
        ``[1 - jitter, 1 + jitter]`` so retries of many experiments do
        not re-dispatch in lockstep.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    max_delay_s: float = 5.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ResilienceError(
                "retry delays must be non-negative, got "
                f"base={self.base_delay_s}, max={self.max_delay_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def should_retry(self, failure_kind: str, attempt: int) -> bool:
        """Whether attempt ``attempt`` failing with ``kind`` gets another."""
        return attempt < self.max_attempts and failure_kind in TRANSIENT_KINDS

    def delay_s(self, label: str, attempt: int) -> float:
        """Backoff before re-dispatching ``label`` after attempt ``attempt``."""
        if attempt < 1:
            raise ResilienceError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.base_delay_s * (2.0 ** (attempt - 1)), self.max_delay_s)
        if self.jitter and delay > 0:
            draw = deterministic_fraction("retry", label, attempt)
            delay *= 1.0 + self.jitter * (2.0 * draw - 1.0)
        return delay
