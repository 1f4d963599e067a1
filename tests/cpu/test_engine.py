"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.cpu.engine import Engine
from repro.errors import SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(5.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(9.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tiebreak_at_same_time(self):
        engine = Engine()
        order = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_now_advances_with_events(self):
        engine = Engine()
        seen = []
        engine.schedule(3.0, lambda: seen.append(engine.now_ns))
        engine.schedule(7.0, lambda: seen.append(engine.now_ns))
        engine.run()
        assert seen == [3.0, 7.0]

    def test_schedule_after(self):
        engine = Engine()
        engine.schedule(4.0, lambda: engine.schedule_after(2.0, lambda: None))
        engine.run()
        assert engine.now_ns == 6.0

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            engine.schedule(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)


class TestBoundedRuns:
    def test_until_stops_before_future_events(self):
        engine = Engine()
        ran = []
        engine.schedule(1.0, lambda: ran.append(1))
        engine.schedule(10.0, lambda: ran.append(10))
        executed = engine.run(until_ns=5.0)
        assert executed == 1
        assert ran == [1]
        assert engine.now_ns == 5.0

    def test_bounded_runs_compose(self):
        engine = Engine()
        ran = []
        engine.schedule(1.0, lambda: ran.append(1))
        engine.schedule(10.0, lambda: ran.append(10))
        engine.run(until_ns=5.0)
        engine.run(until_ns=20.0)
        assert ran == [1, 10]

    def test_max_events(self):
        engine = Engine()
        for t in range(10):
            engine.schedule(float(t), lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.pending() == 7

    def test_discard_pending_drops_events_unrun(self):
        engine = Engine()
        ran = []
        engine.schedule(1.0, lambda: ran.append(1))
        engine.schedule(10.0, lambda: ran.append(10))
        engine.run(until_ns=5.0)
        engine.discard_pending()
        assert engine.pending() == 0
        assert engine.run(until_ns=20.0) == 0
        assert ran == [1]
        assert engine.now_ns == 20.0

    def test_clock_advances_to_until_when_queue_empties(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run(until_ns=100.0)
        assert engine.now_ns == 100.0

    def test_reentrancy_rejected(self):
        engine = Engine()

        def recurse():
            engine.run()

        engine.schedule(1.0, recurse)
        with pytest.raises(SimulationError, match="reentrant"):
            engine.run()

    def test_determinism(self):
        def build_and_run():
            engine = Engine()
            log = []
            for t in (3.0, 1.0, 2.0, 1.0):
                engine.schedule(t, lambda t=t: log.append(t))
            engine.run()
            return log

        assert build_and_run() == build_and_run()
