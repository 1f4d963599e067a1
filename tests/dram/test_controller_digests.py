"""Exact output of the cycle-level DRAM controller.

The experiment goldens reach the controller only through whole
characterizations, so a scheduling rule that moves one request by a
fraction of a nanosecond can hide inside a curve. Each case below sends
a seeded mixed read/write stream through :meth:`DramController.submit`
and pins a digest over every ``(start_ns, completion_ns, outcome)`` plus
the final ``stats.to_dict()``. The cases cover open and closed page on
six interleaved DDR4 channels, a write queue small enough to stall, a
run across several refresh intervals, and DDR5 and HBM2 geometry; each
also asserts that its census shows the branch it is there for. One more
digest pins :meth:`AddressMapper.decode` over an address range with the
bank hash on and off.
"""

from __future__ import annotations

import random

import pytest

from repro.dram.address import AddressMapper
from repro.dram.controller import DramController
from repro.dram.timing import DDR4_2666, DDR5_4800, HBM2
from repro.request import AccessType, MemoryRequest
from repro.specs import spec_digest


def stream(
    seed: int,
    count: int,
    mean_gap_ns: float,
    write_share: float,
    span_bytes: int = 1 << 26,
    sequential_share: float = 0.6,
):
    """Seeded time-ordered requests: sequential runs mixed with jumps."""
    rng = random.Random(seed)
    now = 0.0
    address = 0
    for _ in range(count):
        now += rng.uniform(0.0, 2.0 * mean_gap_ns)
        if rng.random() < sequential_share:
            address = (address + 64) % span_bytes
        else:
            address = rng.randrange(span_bytes // 64) * 64
        kind = AccessType.WRITE if rng.random() < write_share else AccessType.READ
        yield MemoryRequest(address, kind, now)


def run_case(controller: DramController, requests) -> tuple[str, dict]:
    results = [
        [result.start_ns, result.completion_ns, result.outcome.value]
        for result in map(controller.submit, requests)
    ]
    stats = controller.stats.to_dict()
    return spec_digest({"results": results, "stats": stats}), stats


def ddr4x6(page_policy: str) -> DramController:
    return DramController(
        DDR4_2666, channels=6, page_policy=page_policy, interleave_bytes=512
    )


def census(stats: dict) -> dict:
    """The controller's counters in one flat mapping."""
    return {**stats["row_buffer"], **stats}


ROW_OUTCOMES = ("hits", "empties", "misses")

#: case -> (controller, request stream, census counters that must be
#: nonzero, counters that must be zero, digest); recorded before the
#: request path was flattened into one frame per scheduling decision,
#: and unchanged since
CASES = {
    "ddr4x6-open": (
        lambda: ddr4x6("open"),
        lambda: stream(seed=1, count=6000, mean_gap_ns=1.0, write_share=0.3),
        (*ROW_OUTCOMES, "write_stalls"),
        (),
        "d28223a7d5261493d7590d508170f28f53cdffd0a67160bf051d185ee33df6d3",
    ),
    "ddr4x6-closed": (
        lambda: ddr4x6("closed"),
        lambda: stream(seed=2, count=6000, mean_gap_ns=1.0, write_share=0.3),
        ("empties",),
        ("hits", "misses"),
        "4cf778149cc2c1dec4211db08cbf28dcef98f4a9f1252831d7ad01bb4d220815",
    ),
    "write-stall": (
        lambda: DramController(DDR4_2666, channels=1, write_queue_depth=4),
        lambda: stream(seed=3, count=3000, mean_gap_ns=0.5, write_share=0.7),
        ("write_stalls", "reads"),
        (),
        "a33f5392fa4126e9c3a63723c628a1a05331d1df1c2e3d6ca5d82cf97ad66cc6",
    ),
    # ~45 us of arrivals, about six tREFI: 22 refreshes over four ranks
    "refresh": (
        lambda: DramController(DDR4_2666, channels=2),
        lambda: stream(seed=4, count=3000, mean_gap_ns=15.0, write_share=0.3),
        ("refreshes", *ROW_OUTCOMES),
        (),
        "6747c0b7b485fd3621d9b3994ba526eda13922ab3e3afe0d11c0f6bb986bfc14",
    ),
    "ddr5": (
        lambda: DramController(DDR5_4800, channels=2, interleave_bytes=256),
        lambda: stream(seed=5, count=4000, mean_gap_ns=1.5, write_share=0.3),
        ROW_OUTCOMES,
        (),
        "104e35e065d6c8bb56eae13e1cde15a065db44760978778117651e00334dd81e",
    ),
    "hbm2": (
        lambda: DramController(HBM2, channels=4),
        lambda: stream(seed=6, count=4000, mean_gap_ns=1.0, write_share=0.3),
        ROW_OUTCOMES,
        (),
        "76764d793c767c3c5256ece0bc74960553e0a9fc2a54d8bc72085b48b035ebb8",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_controller_output_digest(case):
    build, requests, nonzero, zero, expected = CASES[case]
    digest, stats = run_case(build(), requests())
    counters = census(stats)
    assert all(counters[name] > 0 for name in nonzero), counters
    assert all(counters[name] == 0 for name in zero), counters
    assert digest == expected


#: bank_hash -> digest of the coordinates of every 997th line of the
#: first 4 GiB, each at a different byte offset within its line; the
#: rows reach 2,730, so the hash folds more than one row digit
DECODE_DIGESTS = {
    True: "4c19d5900a25a44228158887717ac7b40ad629999d2a39fc23e23b54fffaa2c7",
    False: "f24d61de3c989fcf3932933a1061cdb76401ee015a556ae54343ef70713fb6a7",
}


@pytest.mark.parametrize("bank_hash", [True, False])
def test_decode_digest(bank_hash):
    mapper = AddressMapper(
        DDR4_2666, channels=6, interleave_bytes=512, bank_hash=bank_hash
    )
    coordinates = [
        list(mapper.decode(line * 64 + line % 64))
        for line in range(0, 1 << 26, 997)
    ]
    assert spec_digest(coordinates) == DECODE_DIGESTS[bank_hash]
