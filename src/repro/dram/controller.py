"""Cycle-level DRAM channel controller.

This is the detailed end of our model zoo: banks with row buffers,
activate/precharge timing, read/write bus turnarounds, the four-activate
window, refresh, and a posted write queue. It plays two roles in the
reproduction (Section 2 of DESIGN.md): as the "actual hardware" that the
Mess benchmark characterizes, and as the cycle-accurate external
simulator analog for the trace-driven experiments (Figures 6 and 7).

The controller is arrival-ordered: requests are scheduled in the order
they are submitted, each start time constrained by bank readiness, bus
occupancy, turnarounds, tFAW and refresh. Queueing delay therefore
emerges naturally from resource backlog rather than from an explicit
queue model. The trace-driven frontend (:mod:`repro.traces.driver`) adds
FR-FCFS reordering on top via :meth:`DramController.peek_outcome`.

A read costs three Python frames: :meth:`DramController.submit` (the
arrival-order check and the read/write split),
:meth:`AddressMapper.decode` and :meth:`DramController._schedule_device`.
The last is the one copy of the bank and rank rules: row-buffer
classification, tFAW, the precharge and activate delays, turnarounds,
the data-bus slot, write recovery, the page policy and the row-buffer
census. :class:`~repro.dram.bank.BankState` and
:class:`~repro.dram.bank.RankState` only hold that state. The timing
constants the rules read are copied out of the :class:`DramTiming` once,
at construction.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from ..errors import ConfigurationError, SimulationError
from ..request import AccessType, MemoryRequest
from ..telemetry import registry as telemetry
from ..units import MAX_MODEL_UNITS
from .address import AddressMapper, DecodedAddress
from .bank import BankState, RankState
from .stats import ControllerStats, RowBufferOutcome, RowBufferStats
from .timing import DramTiming

_HIT = RowBufferOutcome.HIT
_EMPTY = RowBufferOutcome.EMPTY
_MISS = RowBufferOutcome.MISS

# The per-request records are built as namedtuple's own ``_make`` does,
# without the generated Python-level ``__new__``.
_tuple_new = tuple.__new__


class ServiceResult(NamedTuple):
    """Scheduling outcome of one request."""

    start_ns: float
    completion_ns: float
    outcome: RowBufferOutcome

    @property
    def latency_ns(self) -> float:
        return self.completion_ns - self.start_ns


class _ChannelState:
    """Mutable state of one channel: banks, ranks, data bus, write queue."""

    __slots__ = (
        "banks",
        "ranks",
        "bus_free_at_ns",
        "last_was_write",
        "last_data_end_ns",
        "pending_writes",
        "inflight_writes",
    )

    def __init__(self, timing: DramTiming, refresh_offset_ns: float) -> None:
        self.banks = [
            [BankState() for _ in range(timing.banks_per_rank)]
            for _ in range(timing.ranks)
        ]
        self.ranks = [RankState() for _ in range(timing.ranks)]
        for index, rank in enumerate(self.ranks):
            rank.next_refresh_ns = refresh_offset_ns * (index + 1)
        self.bus_free_at_ns = 0.0
        self.last_was_write = False
        self.last_data_end_ns = 0.0
        # coordinates of writes accepted but not yet issued to the
        # device (drain-batched), decoded once on acceptance
        self.pending_writes: list[DecodedAddress] = []
        # device completion times of drained writes still occupying a
        # buffer slot (nondecreasing across batches)
        self.inflight_writes: deque[float] = deque()


class DramController:
    """Multi-channel DRAM memory controller.

    Parameters
    ----------
    timing:
        Device timing preset (see :mod:`repro.dram.timing`).
    channels:
        Number of independent channels; requests are routed by the
        address mapper.
    page_policy:
        ``"open"`` keeps rows open after an access (row-buffer hits for
        spatially local streams); ``"closed"`` auto-precharges, turning
        every access into an EMPTY-state activate.
    write_queue_depth:
        Posted-write buffer entries per channel. Writes report a small
        enqueue latency while the buffer has room; once full, the
        requester observes the drain backlog.
    interleave_bytes:
        Channel interleave granularity (forwarded to the mapper).
    """

    #: Reported latency of a posted write that found buffer room.
    WRITE_ACCEPT_NS = 2.0

    def __init__(
        self,
        timing: DramTiming,
        channels: int = 1,
        page_policy: str = "open",
        write_queue_depth: int = 32,
        interleave_bytes: int | None = None,
    ) -> None:
        if page_policy not in ("open", "closed"):
            raise ConfigurationError(
                f"page_policy must be 'open' or 'closed', got {page_policy!r}"
            )
        if write_queue_depth < 1:
            raise ConfigurationError(
                f"write_queue_depth must be >= 1, got {write_queue_depth}"
            )
        # one BankState per bank of every channel; the limit is checked
        # on the channel count, so no operand is multiplied unchecked
        max_channels = MAX_MODEL_UNITS // timing.total_banks
        if not 1 <= channels <= max_channels:
            raise ConfigurationError(
                f"channels must be in [1, {max_channels}] for "
                f"{timing.total_banks} banks per channel (at most "
                f"{MAX_MODEL_UNITS} banks), got {channels}"
            )
        self.timing = timing
        self.channels = channels
        self.page_policy = page_policy
        self.write_queue_depth = write_queue_depth
        # standard drain watermarks: start draining at 3/4 full, stop at 1/4
        self._drain_high = max(1, (3 * write_queue_depth) // 4)
        self._drain_low = write_queue_depth // 4
        mapper_kwargs = {}
        if interleave_bytes is not None:
            mapper_kwargs["interleave_bytes"] = interleave_bytes
        self.mapper = AddressMapper(timing, channels, **mapper_kwargs)
        # the timing constants the scheduling rules read, copied once
        burst = timing.tBURST
        self._burst_ns = burst
        self._tCL = timing.tCL
        self._tCWL = timing.tCWL
        self._tRCD = timing.tRCD
        self._tRP = timing.tRP
        self._tRAS = timing.tRAS
        self._tWR = timing.tWR
        self._tWTR = timing.tWTR
        self._tRTW = timing.tRTW
        self._tFAW = timing.tFAW
        self._miss_delay_ns = timing.tRP + timing.tRCD
        # data-bus dead time of a direction switch
        self._read_to_write_ns = max(0.0, timing.tCL - timing.tCWL) + timing.tRTW
        self._write_to_read_ns = timing.tCWL + burst + timing.tWTR
        self._closed_page = page_policy == "closed"
        self.stats = ControllerStats()
        self._channels = [
            _ChannelState(timing, timing.tREFI / timing.ranks)
            for _ in range(channels)
        ]
        self._last_submit_ns = 0.0
        # Null-sink fast path: one None check per access when disabled.
        self._tel = telemetry.active()
        if self._tel is not None:
            self._tel_rows = {
                RowBufferOutcome.HIT: self._tel.counter(
                    "dram.row_hits", help="column accesses that hit an open row"
                ),
                RowBufferOutcome.EMPTY: self._tel.counter(
                    "dram.row_empties", help="accesses to a precharged bank"
                ),
                RowBufferOutcome.MISS: self._tel.counter(
                    "dram.row_misses", help="accesses that closed another row"
                ),
            }
            self._tel_reads = self._tel.counter("dram.reads")
            self._tel_writes = self._tel.counter("dram.writes")
            self._tel_write_stalls = self._tel.counter(
                "dram.write_stalls", help="writes that waited for a buffer slot"
            )
            self._tel_write_drains = self._tel.counter(
                "dram.write_drains", help="write-drain batches issued"
            )
            self._tel_refreshes = self._tel.counter("dram.refreshes")
            self._tel_wq_depth = self._tel.histogram(
                "dram.write_queue_occupancy",
                help="posted-write buffer occupancy at write acceptance",
            )

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate theoretical bandwidth of all channels."""
        return self.timing.channel_peak_gbps * self.channels

    def reset(self) -> None:
        """Return every bank, bus and queue to the power-on state."""
        self.stats = ControllerStats()
        self._channels = [
            _ChannelState(self.timing, self.timing.tREFI / self.timing.ranks)
            for _ in range(self.channels)
        ]
        self._last_submit_ns = 0.0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def submit(self, request: MemoryRequest) -> ServiceResult:
        """Schedule one request; returns its timing and row outcome.

        Requests must be submitted in non-decreasing issue time: the
        controller is arrival-ordered and cannot retroactively insert
        work into the past.
        """
        address, access_type, now, _ = request
        last = self._last_submit_ns
        if now < last - 1e-9:
            raise SimulationError(
                f"requests must arrive in time order: {now} after {last}"
            )
        if now > last:
            self._last_submit_ns = now
        decoded = self.mapper.decode(address)
        if access_type is AccessType.WRITE:
            return self._submit_write(decoded, now)
        self.stats.reads += 1
        if self._tel is not None:
            self._tel_reads.inc()
        return self._schedule_device(decoded, now, False)

    def _submit_write(self, decoded: DecodedAddress, now: float) -> ServiceResult:
        """Posted, drain-batched write.

        Writes are accepted into a per-channel buffer and issued to the
        device in batches once the buffer crosses the high watermark —
        the standard write-drain policy that amortizes the read/write
        bus turnaround over a whole batch instead of paying it per
        write. The requester only waits when the buffer is full.
        """
        channel = self._channels[decoded.channel]
        self.stats.writes += 1
        # retire drained writes whose device work finished: their buffer
        # slots are free again
        inflight = channel.inflight_writes
        while inflight and inflight[0] <= now:
            inflight.popleft()
        channel.pending_writes.append(decoded)
        if len(channel.pending_writes) >= self._drain_high:
            self._drain_writes(channel, now)
        occupancy = len(channel.pending_writes) + len(channel.inflight_writes)
        if self._tel is not None:
            self._tel_writes.inc()
            self._tel_wq_depth.observe(occupancy)
        if occupancy > self.write_queue_depth and channel.inflight_writes:
            # full buffer: the requester waits until the oldest drained
            # write completes on the device and frees a slot
            completion = channel.inflight_writes.popleft()
            self.stats.write_stalls += 1
            if self._tel is not None:
                self._tel_write_stalls.inc()
        else:
            completion = now + self.WRITE_ACCEPT_NS
        # the HIT outcome is a placeholder: the device outcome is
        # recorded when the batched write actually drains
        return _tuple_new(ServiceResult, (now, completion, _HIT))

    def _drain_writes(self, channel: _ChannelState, now_ns: float) -> None:
        """Issue buffered writes down to the low watermark.

        Drained writes move to the in-flight set until their device work
        completes; their buffer slots stay occupied meanwhile, which is
        what ultimately backpressures a write-only requester. The batch
        pays the read-to-write turnaround once, and is issued in
        (bank, row) order — real controllers sort their write queue so a
        drain streams through open rows instead of ping-ponging between
        them.
        """
        count = len(channel.pending_writes) - self._drain_low
        if count <= 0:
            return
        if self._tel is not None:
            self._tel_write_drains.inc()
        # row-grouped drain: order the *whole* pending queue by
        # (rank, bank, row, column) and take the batch from the front,
        # so writes sharing a row issue consecutively and each open-row
        # cycle is amortized over the group — the write-queue row
        # coalescing every server controller performs. The queue holds
        # one channel, so the coordinates' own tuple order is that key.
        ordered = sorted(channel.pending_writes)
        channel.pending_writes = ordered[count:]
        inflight = channel.inflight_writes
        for decoded in ordered[:count]:
            inflight.append(self._schedule_device(decoded, now_ns, True).completion_ns)
        # completions within a row-sorted batch are not monotone; keep
        # the in-flight set ordered so the oldest slot frees first
        channel.inflight_writes = deque(sorted(inflight))

    def _schedule_device(
        self, decoded: DecodedAddress, now: float, is_write: bool
    ) -> ServiceResult:
        """Schedule the device-side work of one column access at ``now``.

        Every bank and rank rule lives here, in one frame. Each
        max(a, b) is spelt ``b if b > a else a``, which is what max
        returns, without a builtin call per request.
        """
        burst = self._burst_ns
        channel_index, rank_index, bank_index, row, _ = decoded
        channel = self._channels[channel_index]
        rank = channel.ranks[rank_index]
        bank = channel.banks[rank_index][bank_index]

        if rank.next_refresh_ns <= now:
            self._apply_refresh(channel, rank_index, now)

        ready = bank.ready_at_ns
        earliest = ready if ready > now else now
        direction_switch = is_write != channel.last_was_write
        if direction_switch:
            turnaround = channel.last_data_end_ns + (
                self._tRTW if is_write else self._tWTR
            )
            if turnaround > earliest:
                earliest = turnaround

        census = self.stats.row_buffer
        open_row = bank.open_row
        if open_row == row:
            outcome = _HIT
            column_cmd_at = earliest
            census.hits += 1
        else:
            # four-activate window: the rank's deque holds its last four
            activates = rank.activate_times_ns
            if len(activates) == 4:
                faw = activates[0] + self._tFAW
                if faw > earliest:
                    earliest = faw
            if open_row is None:
                outcome = _EMPTY
                activate_at = earliest
                column_cmd_at = earliest + self._tRCD
                census.empties += 1
            else:
                # the open row may close only after tRAS
                outcome = _MISS
                precharge_ok = bank.precharge_ok_ns
                if precharge_ok > earliest:
                    earliest = precharge_ok
                activate_at = earliest + self._tRP
                column_cmd_at = earliest + self._miss_delay_ns
                census.misses += 1
            activates.append(activate_at)
            bank.precharge_ok_ns = activate_at + self._tRAS

        # The data bus is a capacity, not a FIFO pipeline: an access
        # delayed by its bank's row cycle consumes one burst slot but
        # does not head-of-line block bursts from other banks. The slot
        # tracker accumulates tBURST of occupancy per access; the data
        # appears at whichever is later, its CAS-ready time or its slot.
        # Direction switches insert the real DDR bus dead time: the
        # write-to-read gap spans the write's CAS latency, its burst and
        # tWTR; read-to-write spans the CAS-latency difference plus the
        # bus turnaround.
        bus_free = channel.bus_free_at_ns
        bus_slot = now if now > bus_free else bus_free
        if direction_switch:
            bus_slot += self._read_to_write_ns if is_write else self._write_to_read_ns
        channel.bus_free_at_ns = bus_slot + burst
        data_start = column_cmd_at + (self._tCWL if is_write else self._tCL)
        if bus_slot > data_start:
            data_start = bus_slot
        completion = data_start + burst

        # Column commands to the same bank pipeline at tCCD granularity
        # (approximated by the burst time), not at full access latency.
        ready = column_cmd_at + burst
        if is_write:
            # Write recovery delays the next precharge, not the next column.
            recovery = completion + self._tWR
            if recovery > bank.precharge_ok_ns:
                bank.precharge_ok_ns = recovery
        if self._closed_page:
            # auto-precharge: the next access reopens the bank
            bank.open_row = None
            reopen = bank.precharge_ok_ns + self._tRP
            if reopen > ready:
                ready = reopen
        else:
            bank.open_row = row
        bank.ready_at_ns = ready
        channel.last_was_write = is_write
        channel.last_data_end_ns = completion

        if self._tel is not None:
            self._tel_rows[outcome].inc()
        return _tuple_new(ServiceResult, (earliest, completion, outcome))

    def _apply_refresh(self, channel: _ChannelState, rank_idx: int, now_ns: float) -> None:
        """Lazily apply any refreshes that became due on this rank."""
        timing = self.timing
        rank = channel.ranks[rank_idx]
        while rank.next_refresh_ns <= now_ns:
            refresh_start = rank.next_refresh_ns
            for bank in channel.banks[rank_idx]:
                bank.open_row = None
                bank.ready_at_ns = max(bank.ready_at_ns, refresh_start) + timing.tRFC
            # while one rank refreshes, roughly its share of the bus
            # capacity is lost in a backlogged system
            channel.bus_free_at_ns = (
                max(channel.bus_free_at_ns, refresh_start)
                + timing.tRFC / timing.ranks
            )
            rank.next_refresh_ns += timing.tREFI
            self.stats.refreshes += 1
            if self._tel is not None:
                self._tel_refreshes.inc()

    # ------------------------------------------------------------------
    # Introspection for FR-FCFS frontends
    # ------------------------------------------------------------------

    def peek_outcome(self, address: int) -> RowBufferOutcome:
        """Row-buffer outcome ``address`` would see right now.

        Used by the trace-driven frontend to implement FR-FCFS: among
        pending requests, those that would hit an open row are served
        first.
        """
        return self._peek(self.mapper.decode(address))

    def _peek(self, decoded: DecodedAddress) -> RowBufferOutcome:
        """:meth:`peek_outcome` of coordinates decoded once, up front.

        The FR-FCFS replay holds each pending request's coordinates and
        scans them at every step, so it classifies through here.
        """
        bank = self._channels[decoded.channel].banks[decoded.rank][decoded.bank]
        return bank.classify(decoded.row)

    def row_buffer_stats(self) -> RowBufferStats:
        """Aggregate row-buffer census since the last reset."""
        return self.stats.row_buffer
