"""Shared memory-request types.

Kept in a leaf module (no intra-package imports beyond ``units``) so the
DRAM substrate and the memory-model zoo can both depend on the request
vocabulary without importing each other.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .units import CACHE_LINE_BYTES


class AccessType(enum.Enum):
    """Direction of a memory operation as seen by the memory system."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE


class MemoryRequest(NamedTuple):
    """One cache-line request arriving at the memory system.

    A named tuple: one is built per simulated access, and a tuple is
    the cheapest immutable record to build.

    Attributes
    ----------
    address:
        Physical byte address; models that care about locality (row
        buffers, bank mapping) decode it, others ignore it.
    access_type:
        Read or write, after the cache hierarchy: a CPU store under
        write-allocate arrives here first as a READ (the line fill) and
        later as a WRITE (the dirty eviction).
    issue_time_ns:
        Simulation time at which the request reaches the memory system.
        Models may assume calls arrive in non-decreasing issue time.
    size_bytes:
        Transfer size; always one cache line in this reproduction.
    """

    address: int
    access_type: AccessType
    issue_time_ns: float
    size_bytes: int = CACHE_LINE_BYTES
