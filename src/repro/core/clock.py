"""Clock abstraction shared by live runs and virtual-time simulation.

Every timing decision in the harness goes through a :class:`Clock` so
the same harness logic can run against the wall clock (live mode) or a
simulated clock (virtual-time mode). This is the mechanism that lets
the integrated configuration be "easy to run in simulation" (Sec. IV-B
of the paper): swap the clock, keep the methodology.
"""

from __future__ import annotations

import ctypes
import threading
import time

__all__ = ["Clock", "WallClock", "VirtualClock", "SPIN_TAIL_S"]

#: Final stretch of every wall-clock wait that is spun instead of slept.
#: It absorbs the late wake-up: with a 1 ns timer slack ``time.sleep``
#: on Linux wakes a median 8 us late (p90 14-21 us), and a waking
#: thread may also wait for a busy worker to yield the CPU and the GIL.
#: 30 us keeps the shaper's send lag low with busy workers while
#: leaving nearly all of each wait off the CPU (DESIGN.md §17).
SPIN_TAIL_S = 30e-6

_PR_SET_TIMERSLACK = 29
_TIMER_SLACK_NS = 1


def _find_prctl():
    """Return libc's ``prctl``, or None where the platform has none."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (AttributeError, OSError, TypeError):
        return None
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    return prctl


# Looked up once per process, at import, never per run or per wait.
_prctl = _find_prctl()


class _ThreadSlack(threading.local):
    """Whether this thread's timer slack was already cut.

    Timer slack is per-thread kernel state, so the flag that mirrors it
    is per-thread too.
    """

    tight = False


_thread_slack = _ThreadSlack()


class Clock:
    """Minimal monotonic-clock interface (times in float seconds)."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep_until(self, deadline: float) -> None:
        raise NotImplementedError

    def sleep(self, duration: float) -> None:
        if duration < 0:
            raise ValueError("cannot sleep a negative duration")
        self.sleep_until(self.now() + duration)


class WallClock(Clock):
    """Real time via ``time.perf_counter`` (monotonic, ns resolution).

    ``sleep_until`` sleeps through all but the last :data:`SPIN_TAIL_S`
    of a wait and spins only that tail. Linux gives each thread 50 us
    of timer slack by default, so a plain ``time.sleep`` wakes about
    60 us late; the first wait in each thread therefore cuts that
    thread's slack to 1 ns with ``prctl(PR_SET_TIMERSLACK)``. Where
    ``prctl`` does not exist the wait is the same, only with the
    platform's own wake-up precision.
    """

    def now(self) -> float:
        return time.perf_counter()

    def sleep_until(self, deadline: float) -> None:
        if not _thread_slack.tight:
            _thread_slack.tight = True
            if _prctl is not None:
                _prctl(_PR_SET_TIMERSLACK, _TIMER_SLACK_NS, 0, 0, 0)
        remaining = deadline - time.perf_counter()
        if remaining > SPIN_TAIL_S:
            time.sleep(remaining - SPIN_TAIL_S)
        while time.perf_counter() < deadline:
            pass


class VirtualClock(Clock):
    """Manually advanced clock for deterministic simulation.

    ``sleep_until`` simply advances the clock; there is no real waiting.
    Thread-safe so live-mode components can also be pointed at it in
    tests, though the discrete-event engine drives it single-threaded.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance_to(self, t: float) -> None:
        with self._lock:
            if t < self._now:
                raise ValueError(
                    f"virtual time cannot go backwards ({t} < {self._now})"
                )
            self._now = t

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance by a negative duration")
        with self._lock:
            self._now += dt

    def sleep_until(self, deadline: float) -> None:
        with self._lock:
            if deadline > self._now:
                self._now = deadline
