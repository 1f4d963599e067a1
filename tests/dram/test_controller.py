"""Unit tests for the cycle-level DRAM controller."""

from __future__ import annotations

import pytest

from repro.dram.bank import BankState
from repro.dram.controller import DramController
from repro.dram.stats import RowBufferOutcome, RowBufferStats
from repro.dram.timing import DDR4_2666
from repro.errors import ConfigurationError, SimulationError
from repro.request import AccessType, MemoryRequest


def read(address, at):
    return MemoryRequest(address, AccessType.READ, at)


def write(address, at):
    return MemoryRequest(address, AccessType.WRITE, at)


@pytest.fixture
def controller():
    return DramController(DDR4_2666, channels=2)


class TestConfiguration:
    def test_invalid_page_policy(self):
        with pytest.raises(ConfigurationError):
            DramController(DDR4_2666, page_policy="weird")

    def test_invalid_write_queue(self):
        with pytest.raises(ConfigurationError):
            DramController(DDR4_2666, write_queue_depth=0)

    def test_peak_bandwidth(self, controller):
        assert controller.peak_bandwidth_gbps == pytest.approx(
            2 * DDR4_2666.channel_peak_gbps
        )


class TestReadTiming:
    def test_idle_empty_read_latency(self, controller):
        result = controller.submit(read(0, 0.0))
        expected = DDR4_2666.tRCD + DDR4_2666.tCL + DDR4_2666.tBURST
        assert result.latency_ns == pytest.approx(expected)
        assert result.outcome is RowBufferOutcome.EMPTY

    def test_row_hit_is_faster(self, controller):
        controller.submit(read(0, 0.0))
        result = controller.submit(read(64 * 2, 100.0))  # same channel, next col
        assert result.outcome is RowBufferOutcome.HIT
        assert result.latency_ns == pytest.approx(
            DDR4_2666.tCL + DDR4_2666.tBURST
        )

    def test_row_miss_pays_precharge(self, controller):
        controller.submit(read(0, 0.0))
        # same bank, different row: conflict
        conflict = _same_bank_other_row(controller, 0)
        result = controller.submit(read(conflict, 200.0))
        assert result.outcome is RowBufferOutcome.MISS
        assert result.latency_ns == pytest.approx(
            DDR4_2666.tRP + DDR4_2666.tRCD + DDR4_2666.tCL + DDR4_2666.tBURST
        )

    def test_out_of_order_submission_rejected(self, controller):
        controller.submit(read(0, 100.0))
        with pytest.raises(SimulationError, match="time order"):
            controller.submit(read(64, 50.0))


def _same_bank_other_row(controller: DramController, address: int) -> int:
    """Find an address on the same (channel, rank, bank) but another row."""
    target = controller.mapper.decode(address)
    candidate = address
    while True:
        candidate += DDR4_2666.row_bytes * controller.channels
        decoded = controller.mapper.decode(candidate)
        if (
            decoded.channel == target.channel
            and decoded.rank == target.rank
            and decoded.bank == target.bank
            and decoded.row != target.row
        ):
            return candidate


class TestWrites:
    def test_posted_write_is_cheap(self, controller):
        result = controller.submit(write(0, 0.0))
        assert result.latency_ns == pytest.approx(
            DramController.WRITE_ACCEPT_NS
        )

    def test_full_buffer_stalls(self):
        controller = DramController(DDR4_2666, channels=1, write_queue_depth=4)
        latencies = [
            controller.submit(write(i * 64, 0.0)).latency_ns for i in range(12)
        ]
        assert controller.stats.write_stalls > 0
        assert max(latencies) > DramController.WRITE_ACCEPT_NS

    def test_drain_issues_writes_grouped_by_row(self):
        """A drain sorts its batch by (rank, bank, row, column).

        Six scrambled writes span two rows of one bank; the sixth
        crosses the high watermark (3/4 of 8) and drains four of them
        down to the low watermark (1/4 of 8). Grouped, the batch opens
        the lower row once, hits it twice more and then switches to the
        upper row: one empty access, two hits, one miss, with the upper
        row left open. In arrival order it would ping-pong between the
        rows and never hit.
        """
        controller = DramController(DDR4_2666, channels=1, write_queue_depth=8)
        other_row = _same_bank_other_row(controller, 0)
        lower = [0, 64, 128]
        upper = [other_row, other_row + 64, other_row + 128]
        # each triple is three columns of one row, both rows in one bank
        coordinates = [controller.mapper.decode(a) for a in lower + upper]
        assert len({(c.rank, c.bank) for c in coordinates}) == 1
        assert [c.row for c in coordinates] == [0] * 3 + [coordinates[3].row] * 3
        assert coordinates[3].row > 0
        scrambled = [upper[2], lower[0], upper[0], lower[2], upper[1], lower[1]]
        for address in scrambled:
            controller.submit(write(address, 0.0))
        census = controller.row_buffer_stats()
        assert (census.empties, census.hits, census.misses) == (1, 2, 1)
        assert controller.peek_outcome(upper[0]) is RowBufferOutcome.HIT
        assert controller.peek_outcome(lower[0]) is RowBufferOutcome.MISS

    def test_saturation_throughput_bounded_by_peak(self):
        controller = DramController(DDR4_2666, channels=1)
        last = 0.0
        n = 4000
        for i in range(n):
            result = controller.submit(read(i * 64, i * 0.2))  # 320 GB/s ask
            last = max(last, result.completion_ns)
        achieved = n * 64 / last
        assert achieved <= DDR4_2666.channel_peak_gbps * 1.01


class TestRefresh:
    def test_refresh_counted(self, controller):
        # park requests far apart so refreshes become due
        controller.submit(read(0, 0.0))
        controller.submit(read(64, 3 * DDR4_2666.tREFI))
        assert controller.stats.refreshes >= 2

    def test_refresh_closes_rows(self, controller):
        controller.submit(read(0, 0.0))
        result = controller.submit(read(64 * 2, 3 * DDR4_2666.tREFI))
        assert result.outcome is RowBufferOutcome.EMPTY


class TestPagePolicy:
    def test_closed_page_never_hits(self):
        controller = DramController(DDR4_2666, channels=1, page_policy="closed")
        controller.submit(read(0, 0.0))
        result = controller.submit(read(64, 100.0))
        assert result.outcome is not RowBufferOutcome.HIT


class TestStats:
    def test_row_buffer_census(self, controller):
        controller.submit(read(0, 0.0))
        controller.submit(read(64 * 2, 50.0))
        stats = controller.row_buffer_stats()
        assert stats.total == 2
        assert stats.hits == 1

    def test_rates_sum_to_one(self, controller):
        for i in range(50):
            controller.submit(read(i * 64, i * 10.0))
        hit, empty, miss = controller.row_buffer_stats().rates()
        assert hit + empty + miss == pytest.approx(1.0)

    def test_empty_census_rates(self):
        assert RowBufferStats().rates() == (0.0, 0.0, 0.0)

    def test_merged_census(self):
        a = RowBufferStats(hits=1, empties=2, misses=3)
        b = RowBufferStats(hits=10, empties=20, misses=30)
        merged = a.merged_with(b)
        assert (merged.hits, merged.empties, merged.misses) == (11, 22, 33)

    def test_reset(self, controller):
        controller.submit(read(0, 0.0))
        controller.reset()
        assert controller.stats.accesses == 0
        assert controller.row_buffer_stats().total == 0


class TestBankState:
    def test_classify(self):
        bank = BankState()
        assert bank.classify(5) is RowBufferOutcome.EMPTY
        bank.open_row = 5
        assert bank.classify(5) is RowBufferOutcome.HIT
        assert bank.classify(6) is RowBufferOutcome.MISS


def _one_rank_banks(controller: DramController, count: int) -> list[int]:
    """Addresses of ``count`` distinct banks of rank 0, channel 0."""
    addresses: list[int] = []
    banks: set[int] = set()
    candidate = 0
    while len(addresses) < count:
        decoded = controller.mapper.decode(candidate)
        if decoded.channel == 0 and decoded.rank == 0 and decoded.bank not in banks:
            banks.add(decoded.bank)
            addresses.append(candidate)
        candidate += DDR4_2666.row_bytes
    return addresses


class TestFourActivateWindow:
    """tFAW, seen through the activates that ``submit`` issues."""

    def test_fifth_activate_waits_for_faw(self):
        controller = DramController(DDR4_2666, channels=1)
        addresses = _one_rank_banks(controller, 6)
        # one idle bank per request: each opens its row with an activate
        results = [
            controller.submit(read(address, float(index)))
            for index, address in enumerate(addresses)
        ]
        assert [r.outcome for r in results] == [RowBufferOutcome.EMPTY] * 6
        assert [r.start_ns for r in results[:4]] == [0.0, 1.0, 2.0, 3.0]
        # the fifth waits for the window opened by the first, the sixth
        # for the one opened by the second
        assert results[4].start_ns == pytest.approx(
            results[0].start_ns + DDR4_2666.tFAW
        )
        assert results[5].start_ns == pytest.approx(
            results[1].start_ns + DDR4_2666.tFAW
        )

    def test_faw_inactive_below_four(self):
        controller = DramController(DDR4_2666, channels=1)
        results = [
            controller.submit(read(address, 0.0))
            for address in _one_rank_banks(controller, 4)
        ]
        assert [r.outcome for r in results] == [RowBufferOutcome.EMPTY] * 4
        assert [r.start_ns for r in results] == [0.0] * 4
