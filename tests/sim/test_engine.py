"""Tests for the discrete-event engine and event queue."""

import pytest

from repro.core.clock import Clock
from repro.sim import Engine, EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, order.append, "c")
        queue.push(1.0, order.append, "a")
        queue.push(2.0, order.append, "b")
        while True:
            event = queue.pop()
            if event is None:
                break
            event.fn(*event.args)
        assert order == ["a", "b", "c"]

    def test_fifo_at_equal_times(self):
        queue = EventQueue()
        order = []
        for label in ("first", "second", "third"):
            queue.push(1.0, order.append, label)
        while (event := queue.pop()) is not None:
            event.fn(*event.args)
        assert order == ["first", "second", "third"]

    def test_cancellation(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, fired.append, "x")
        event.cancelled = True
        assert queue.pop() is None
        assert not fired

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        drop = queue.push(2.0, lambda: None)
        drop.cancelled = True
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0


class TestEngine:
    def test_clock_advances_through_events(self):
        engine = Engine()
        times = []
        engine.at(1.0, lambda: times.append(engine.now))
        engine.at(2.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [1.0, 2.5]
        assert engine.now == 2.5

    def test_after_is_relative(self):
        engine = Engine(start_time=10.0)
        fired = []
        engine.after(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [15.0]

    def test_events_can_schedule_events(self):
        engine = Engine()
        log = []

        def chain(n):
            log.append((engine.now, n))
            if n > 0:
                engine.after(1.0, chain, n - 1)

        engine.at(0.0, chain, 3)
        engine.run()
        assert log == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]

    def test_run_until_stops_midway(self):
        engine = Engine()
        fired = []
        engine.at(1.0, fired.append, "early")
        engine.at(10.0, fired.append, "late")
        engine.run(until=5.0)
        assert fired == ["early"]
        assert engine.now == 5.0
        engine.run()
        assert fired == ["early", "late"]

    def test_cancel(self):
        engine = Engine()
        fired = []
        event = engine.at(1.0, fired.append, "x")
        engine.cancel(event)
        engine.run()
        assert not fired

    def test_scheduling_in_past_rejected(self):
        engine = Engine()
        engine.at(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.at(1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.after(-1.0, lambda: None)

    def test_runaway_guard(self):
        engine = Engine()

        def forever():
            engine.after(0.001, forever)

        engine.at(0.0, forever)
        with pytest.raises(RuntimeError):
            engine.run(max_events=1000)

    def test_executed_events_counted(self):
        engine = Engine()
        for i in range(5):
            engine.at(float(i), lambda: None)
        engine.run()
        assert engine.executed_events == 5


def _replay(use_schedule, arrivals, before=(), after=(), chained=()):
    """Run one scenario; return the execution log.

    ``before``/``after`` are ``(time, label)`` events scheduled with
    :meth:`Engine.at` before/after the arrival schedule is installed;
    ``chained`` maps an arrival time to a delay: that arrival schedules
    a follow-up ``after(delay)``. With ``use_schedule`` False the
    arrivals go through one :meth:`Engine.at` call each, the reference
    the schedule must match.
    """
    engine = Engine()
    log = []

    def arrive(t):
        log.append(("arrival", t, engine.now))
        if t in chained:
            engine.after(chained[t], log.append, ("chained", t))

    for time, label in before:
        engine.at(time, log.append, label)
    if use_schedule:
        engine.at_each(arrivals, arrive)
    else:
        for t in arrivals:
            engine.at(t, arrive, t)
    for time, label in after:
        engine.at(time, log.append, label)
    executed = engine.run()
    return log, executed, engine.executed_events


class TestArrivalSchedule:
    def test_ties_match_individual_scheduling(self):
        scenario = dict(
            arrivals=[0.0, 1.0, 1.0, 2.0, 3.0],
            # Heap events tied with arrivals, on both sides of the
            # reserved block, plus follow-ups landing on later arrivals.
            before=[(1.0, "before@1"), (3.0, "before@3")],
            after=[(1.0, "after@1"), (0.0, "after@0"), (2.0, "after@2")],
            chained={0.0: 2.0, 1.0: 0.0},
        )
        expected = _replay(False, **scenario)
        assert _replay(True, **scenario) == expected
        log = expected[0]
        assert log.index("before@1") < log.index(("arrival", 1.0, 1.0))
        assert log.index(("arrival", 1.0, 1.0)) < log.index("after@1")

    def test_arrival_sees_its_own_time(self):
        log, executed, total = _replay(True, [0.5, 1.5])
        assert log == [("arrival", 0.5, 0.5), ("arrival", 1.5, 1.5)]
        assert executed == total == 2

    def test_unsorted_schedule_rejected(self):
        with pytest.raises(ValueError):
            Engine().at_each([1.0, 0.5], lambda t: None)

    def test_past_dated_schedule_rejected(self):
        engine = Engine(start_time=5.0)
        with pytest.raises(ValueError):
            engine.at_each([4.0, 6.0], lambda t: None)

    def test_second_pending_schedule_rejected(self):
        engine = Engine()
        engine.at_each([1.0], lambda t: None)
        with pytest.raises(RuntimeError):
            engine.at_each([2.0], lambda t: None)
        engine.run()
        engine.at_each([3.0], lambda t: None)  # the first one drained

    def test_install_during_run_rejected(self):
        engine = Engine()
        errors = []

        def install():
            try:
                engine.at_each([2.0], lambda t: None)
            except RuntimeError as exc:
                errors.append(exc)

        engine.at(1.0, install)
        engine.run()
        assert len(errors) == 1

    def test_run_until_stops_inside_schedule_and_resumes(self):
        engine = Engine()
        seen = []
        engine.at_each([1.0, 2.0, 3.0, 4.0], seen.append)
        assert engine.run(until=2.5) == 2
        assert seen == [1.0, 2.0]
        assert engine.now == 2.5
        assert engine.run() == 2
        assert seen == [1.0, 2.0, 3.0, 4.0]
        assert engine.executed_events == 4

    def test_max_events_counts_arrivals(self):
        engine = Engine()
        engine.at_each([float(i) for i in range(10)], lambda t: None)
        with pytest.raises(RuntimeError):
            engine.run(max_events=5)
        assert engine.executed_events == 6

    def test_empty_schedule(self):
        engine = Engine()
        engine.at_each([], lambda t: None)
        assert engine.run() == 0


class TestTupleHeap:
    def test_cancel_tied_with_arrival(self):
        engine = Engine()
        fired = []
        event = engine.at(1.0, fired.append, "cancelled")
        engine.at_each([1.0], fired.append)
        engine.at(1.0, fired.append, "kept")
        engine.cancel(event)
        engine.run()
        assert fired == [1.0, "kept"]
        assert engine.executed_events == 2

    def test_cancel_from_inside_run(self):
        engine = Engine()
        fired = []
        later = engine.at(2.0, fired.append, "later")
        engine.at(1.0, engine.cancel, later)
        engine.run()
        assert fired == []

    def test_run_until_in_the_past_raises(self):
        engine = Engine()
        engine.at(5.0, lambda: None)
        engine.at(10.0, lambda: None)
        engine.run(until=6.0)
        with pytest.raises(ValueError):
            engine.run(until=1.0)


class TestEngineClock:
    def test_clock_reads_engine_time(self):
        engine = Engine(start_time=2.0)
        seen = []
        engine.at(3.0, lambda: seen.append(engine.clock.now()))
        engine.run()
        assert seen == [3.0]
        assert isinstance(engine.clock, Clock)

    def test_clock_refuses_to_go_backwards(self):
        engine = Engine(start_time=2.0)
        with pytest.raises(ValueError):
            engine.clock.advance_to(1.0)
        engine.clock.advance_to(4.0)
        assert engine.now == 4.0
        engine.clock.sleep_until(3.0)
        assert engine.now == 4.0
