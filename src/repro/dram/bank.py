"""Per-bank and per-rank DRAM state tracked by the controller.

These records only hold state. The rules that read and advance it —
row-buffer outcome, activate and precharge delays, tFAW, write
recovery, the page policy — all live in one frame,
:meth:`repro.dram.controller.DramController._schedule_device`, which a
request reaches once. :meth:`BankState.classify` is the one rule kept
here, for the FR-FCFS frontends that peek at a bank without scheduling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .stats import RowBufferOutcome


@dataclass
class BankState:
    """Mutable timing state of one DRAM bank.

    ``open_row`` is the row currently latched in the row buffer (``None``
    when precharged). ``ready_at_ns`` is the earliest time the bank can
    accept its next column or activate command; ``precharge_ok_ns``
    enforces tRAS before the open row may be closed.
    """

    open_row: int | None = None
    ready_at_ns: float = 0.0
    precharge_ok_ns: float = 0.0

    def classify(self, row: int) -> RowBufferOutcome:
        """Row-buffer outcome if ``row`` were accessed now."""
        if self.open_row is None:
            return RowBufferOutcome.EMPTY
        if self.open_row == row:
            return RowBufferOutcome.HIT
        return RowBufferOutcome.MISS


@dataclass
class RankState:
    """Per-rank constraints: the four-activate window and refresh clock.

    ``activate_times_ns`` holds the issue times of the rank's last four
    activates; a fifth may issue only tFAW after the oldest of them.
    """

    activate_times_ns: deque[float] = field(default_factory=lambda: deque(maxlen=4))
    next_refresh_ns: float = 0.0
