"""Memory trace records and their on-disk format.

Section IV-D collects Mess memory traces from ZSim simulation — the
addresses of all reads and writes plus timing hints (arrival cycles for
DRAMsim3, inter-request instruction counts for Ramulator) — and replays
them through the external simulators in isolation. Our format keeps one
line per request: ``issue_time_ns,address,R|W``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import TraceError
from ..request import AccessType, MemoryRequest


@dataclass(frozen=True)
class TraceRecord:
    """One memory operation in a trace."""

    issue_time_ns: float
    address: int
    access_type: AccessType

    def to_request(self, time_shift_ns: float = 0.0) -> MemoryRequest:
        """Materialize as a request, optionally shifted in time."""
        return MemoryRequest(
            self.address, self.access_type, self.issue_time_ns + time_shift_ns
        )

    def to_line(self) -> str:
        flag = "W" if self.access_type.is_write else "R"
        return f"{self.issue_time_ns:.3f},{self.address:#x},{flag}"

    @classmethod
    def from_line(cls, line: str, lineno: int = 0) -> "TraceRecord":
        parts = line.strip().split(",")
        if len(parts) != 3:
            raise TraceError(
                f"line {lineno}: expected 'time,address,R|W', got {line!r}"
            )
        time_str, addr_str, flag = parts
        try:
            issue = float(time_str)
            address = int(addr_str, 0)
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        if issue < 0 or address < 0:
            raise TraceError(f"line {lineno}: negative time or address")
        if flag not in ("R", "W"):
            raise TraceError(f"line {lineno}: access flag must be R or W")
        return cls(
            issue_time_ns=issue,
            address=address,
            access_type=AccessType.WRITE if flag == "W" else AccessType.READ,
        )


def write_trace(records: Iterable[TraceRecord], path: str | Path) -> int:
    """Write records to ``path``; returns the record count."""
    path = Path(path)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(record.to_line() + "\n")
            count += 1
    return count


def read_trace(path: str | Path) -> Iterator[TraceRecord]:
    """Stream records from a trace file, validating each line."""
    path = Path(path)
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip() or line.startswith("#"):
                continue
            yield TraceRecord.from_line(line, lineno)
