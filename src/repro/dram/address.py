"""Physical address decomposition for the DRAM substrate.

The mapper splits a physical byte address into (channel, rank, bank, row,
column). The scheme is the bandwidth-friendly layout used by server
memory controllers: channel bits immediately above the cache-line offset
(so sequential streams stripe across channels), then bank bits (so
consecutive rows of one stream land in different banks), then the row.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import ConfigurationError
from ..units import CACHE_LINE_BYTES
from .timing import DramTiming


class DecodedAddress(NamedTuple):
    """Coordinates of one cache line inside the memory system.

    A named tuple, so coordinates order as (channel, rank, bank, row,
    column): the controller's write drain sorts them in that order.
    """

    channel: int
    rank: int
    bank: int
    row: int
    column: int


# decode builds its record as namedtuple's own ``_make`` does, without
# the generated Python-level ``__new__``
_tuple_new = tuple.__new__


class AddressMapper:
    """Maps physical addresses to DRAM coordinates.

    Parameters
    ----------
    timing:
        Device geometry source (banks, ranks, row size).
    channels:
        Number of channels in the memory system.
    interleave_bytes:
        Granularity of channel interleaving; defaults to one cache line,
        matching fine-grained server interleaving.
    """

    def __init__(
        self,
        timing: DramTiming,
        channels: int,
        interleave_bytes: int = CACHE_LINE_BYTES,
        bank_hash: bool = True,
    ) -> None:
        if channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {channels}")
        if interleave_bytes < CACHE_LINE_BYTES:
            raise ConfigurationError(
                "interleave granularity must be at least one cache line"
            )
        if interleave_bytes % CACHE_LINE_BYTES:
            raise ConfigurationError(
                "interleave granularity must be a multiple of the line size"
            )
        self.timing = timing
        self.channels = channels
        self.interleave_bytes = interleave_bytes
        self.bank_hash = bank_hash
        # the geometry decode reads, copied once
        self._lines_per_interleave = interleave_bytes // CACHE_LINE_BYTES
        self._lines_per_row = timing.row_bytes // CACHE_LINE_BYTES
        self._banks = timing.banks_per_rank
        self._ranks = timing.ranks

    def decode(self, address: int) -> DecodedAddress:
        """Decompose a physical byte address.

        Layout from least to most significant: line offset, channel,
        column (within-row line index), bank, rank, row.

        With ``bank_hash`` on, the bank index is permuted the way server
        memory controllers XOR row bits into it, so that power-of-two
        address strides (common across concurrent application arrays)
        do not pile every stream onto the same bank. All row digits
        (base ``banks_per_rank``) are folded in, so any stride
        eventually decorrelates.
        """
        if address < 0:
            raise ConfigurationError(f"address must be non-negative, got {address}")
        interleave = self.interleave_bytes
        channels = self.channels
        unit = address // interleave
        channel = unit % channels
        # restore intra-interleave lines so columns advance within a row
        line = (unit // channels) * self._lines_per_interleave + (
            address % interleave
        ) // CACHE_LINE_BYTES
        lines_per_row = self._lines_per_row
        column = line % lines_per_row
        rest = line // lines_per_row
        banks = self._banks
        bank = rest % banks
        rest //= banks
        ranks = self._ranks
        rank = rest % ranks
        row = rest // ranks
        if self.bank_hash:
            folded = row
            while folded:
                bank ^= folded % banks
                folded //= banks
            bank %= banks
        return _tuple_new(DecodedAddress, (channel, rank, bank, row, column))
