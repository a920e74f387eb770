"""Discrete-event simulation engine.

A minimal execution-driven core in the spirit of the user-level
simulators the paper targets (zsim, Graphite): a virtual clock and an
event heap. Components schedule callbacks; :meth:`Engine.run` executes
them in ``(time, seq)`` order — timestamp first, scheduling order at
equal times.

The engine owns its clock. Virtual time is the plain attribute
:attr:`Engine.now`, written only by the run loop, so hot callbacks read
it without a property call or a lock: the engine is single-threaded by
construction. :attr:`Engine.clock` is an :class:`EngineClock`, a
:class:`~repro.core.clock.Clock` view of that time for the harness
components that take a clock (the metrics sampler), so harness logic is
unchanged between live and simulated runs. The locked
:class:`~repro.core.clock.VirtualClock` stays for code that shares one
clock across threads.

A sorted arrival schedule (:meth:`Engine.at_each`) never enters the
heap. It reserves one block of sequence numbers and the run loop merges
it through a cursor against the heap top, so every heap operation pays
``log`` of the in-flight events rather than of the whole schedule, and
ties between arrivals and other events break exactly as if each
arrival had been scheduled with :meth:`Engine.at`.
"""

from __future__ import annotations

import heapq
import math
import operator
from itertools import islice
from typing import Any, Callable, Optional, Sequence

from ..core.clock import Clock
from .events import Event, EventQueue

__all__ = ["Engine", "EngineClock"]


class EngineClock(Clock):
    """Lock-free :class:`Clock` view of one engine's virtual time."""

    __slots__ = ("_engine",)

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine

    def now(self) -> float:
        return self._engine.now

    def advance_to(self, t: float) -> None:
        if t < self._engine.now:
            raise ValueError(
                f"virtual time cannot go backwards ({t} < {self._engine.now})"
            )
        self._engine.now = t

    def sleep_until(self, deadline: float) -> None:
        if deadline > self._engine.now:
            self._engine.now = deadline


class Engine:
    """Runs events in virtual time.

    ``now`` is the current virtual time; treat it as read-only.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self.clock = EngineClock(self)
        self._queue = EventQueue()
        self._executed = 0
        self._running = False
        # The pending arrival schedule: times, callback, sequence number
        # of times[0], and the cursor (index of the next arrival).
        self._arrivals: Sequence[float] = ()
        self._arrival_fn: Optional[Callable[[float], Any]] = None
        self._arrival_seq = 0
        self._cursor = 0

    @property
    def executed_events(self) -> int:
        """Events executed by every :meth:`run` call so far."""
        return self._executed

    def at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        now = self.now
        if time < now:
            if time < now - 1e-12:
                raise ValueError(f"cannot schedule in the past ({time} < {now})")
            time = now
        return self._queue.push(time, fn, *args)

    def after(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self._queue.push(self.now + delay, fn, *args)

    def at_each(self, times: Sequence[float], fn: Callable[[float], Any]) -> None:
        """Schedule ``fn(t)`` at every ``t`` of the sorted sequence ``times``.

        Equivalent to ``for t in times: self.at(t, fn, t)``, including
        the tie-break rank of each arrival against other events, but the
        schedule stays out of the heap. One schedule may be pending at a
        time, and it must be installed outside :meth:`run`. Arrival
        events cannot be cancelled. ``times`` is read in place, so it
        must not change while the schedule is pending.
        """
        if self._running:
            raise RuntimeError("at_each cannot be called while the engine runs")
        if self._cursor < len(self._arrivals):
            raise RuntimeError("an arrival schedule is already pending")
        if not all(map(operator.le, times, islice(times, 1, None))):
            raise ValueError("arrival times must be sorted")
        if len(times) and times[0] < self.now:
            raise ValueError(
                f"cannot schedule in the past ({times[0]} < {self.now})"
            )
        self._arrivals = times
        self._arrival_fn = fn
        self._arrival_seq = self._queue.reserve(len(times))
        self._cursor = 0

    def cancel(self, event: Event) -> None:
        event.cancelled = True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> int:
        """Process events until the queue drains (or ``until``).

        Returns the number of events executed by this call, arrivals
        included.
        """
        heap = self._queue.heap
        heappop = heapq.heappop
        times = self._arrivals
        n_arrivals = len(times)
        arrive = self._arrival_fn
        first_seq = self._arrival_seq
        i = self._cursor
        next_arrival = times[i] if i < n_arrivals else math.inf
        horizon = math.inf if until is None else until
        executed = 0
        self._running = True
        try:
            while True:
                if heap:
                    entry = heap[0]
                    time = entry[0]
                    if next_arrival < time or (
                        next_arrival == time and first_seq + i < entry[1]
                    ):
                        event = None
                        time = next_arrival
                    else:
                        event = entry[2]
                        if event.cancelled:
                            heappop(heap)
                            continue
                elif i < n_arrivals:
                    event = None
                    time = next_arrival
                else:
                    break
                if time > horizon:
                    self.clock.advance_to(until)
                    break
                self.now = time
                if event is None:
                    i += 1
                    next_arrival = times[i] if i < n_arrivals else math.inf
                    arrive(time)
                else:
                    heappop(heap)
                    event.fn(*event.args)
                executed += 1
                if executed > max_events:
                    raise RuntimeError(
                        "event budget exhausted (runaway simulation?)"
                    )
        finally:
            self._running = False
            self._cursor = i
            self._executed += executed
        return executed
