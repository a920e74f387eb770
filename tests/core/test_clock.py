"""Tests for the clock abstraction."""

import ctypes
import random
import sys
import threading
import time

import pytest

from repro import HarnessConfig, run_harness
from repro.core import VirtualClock, WallClock

PR_SET_TIMERSLACK = 29
PR_GET_TIMERSLACK = 30
DEFAULT_SLACK_NS = 50_000  # Linux's default per-thread timer slack


def _child_timer_slack_ns():
    """Slack read back by two fresh threads: (never waited, waited once).

    A new thread inherits its creator's slack, so both are started from
    a parent thread whose slack is first set to the Linux default;
    earlier waits on the calling thread cannot leak into the result.
    """
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    seen = {}

    def child(waits):
        if waits:
            clock = WallClock()
            clock.sleep_until(clock.now() + 1e-4)
        seen[waits] = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)

    def parent():
        prctl(PR_SET_TIMERSLACK, DEFAULT_SLACK_NS, 0, 0, 0)
        for waits in (False, True):
            thread = threading.Thread(target=child, args=(waits,))
            thread.start()
            thread.join()

    thread = threading.Thread(target=parent)
    thread.start()
    thread.join()
    return seen[False], seen[True]


class NoopApp:
    def setup(self):
        pass

    def process(self, payload):
        return payload

    def make_client(self, seed=0):
        class _Client:
            def next_request(self):
                return None

        return _Client()


class TestWallClock:
    def test_monotone(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_sleep_until_reaches_deadline(self):
        clock = WallClock()
        deadline = clock.now() + 0.005
        clock.sleep_until(deadline)
        assert clock.now() >= deadline

    def test_sleep_until_precision(self):
        # Tight timer slack plus a short final spin should keep the
        # overshoot small even on noisy shared machines (generous bound
        # for CI).
        clock = WallClock()
        overshoots = []
        for _ in range(5):
            deadline = clock.now() + 0.002
            clock.sleep_until(deadline)
            overshoots.append(clock.now() - deadline)
        assert min(overshoots) < 2e-3

    def test_sleep_past_deadline_returns_immediately(self):
        clock = WallClock()
        start = clock.now()
        clock.sleep_until(start - 1.0)
        assert clock.now() - start < 0.01

    def test_sleep_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            WallClock().sleep(-0.1)

    def test_sleep_until_never_returns_early(self):
        clock = WallClock()
        rng = random.Random(7)
        for _ in range(200):
            deadline = clock.now() + rng.uniform(0.0, 300e-6)
            clock.sleep_until(deadline)
            assert clock.now() >= deadline

    def test_sleep_until_sleeps_rather_than_spins(self):
        # Waits are slept, not spun: the waiting thread's CPU time stays
        # well under the wall time it waited. Host load can only lower
        # this thread's CPU share, never raise it.
        clock = WallClock()
        cpu0, wall0 = time.thread_time(), clock.now()
        for _ in range(200):
            clock.sleep_until(clock.now() + 300e-6)
        cpu, wall = time.thread_time() - cpu0, clock.now() - wall0
        assert cpu < 0.5 * wall, f"thread CPU {cpu:.4f}s of {wall:.4f}s wall"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="prctl is Linux-only"
    )
    def test_first_wait_tightens_thread_timer_slack(self):
        untouched, waited = _child_timer_slack_ns()
        assert untouched == DEFAULT_SLACK_NS
        assert waited < DEFAULT_SLACK_NS

    def test_multi_client_harness_conserves_requests(self):
        config = HarnessConfig(
            qps=2000, n_clients=2, warmup_requests=50, measure_requests=400
        )
        result = run_harness(NoopApp(), config)
        stats = result.stats
        assert result.outcomes["offered"] == config.total_requests
        assert stats.count + stats.dropped_warmup == config.total_requests
        assert sum(result.routed_counts) == config.total_requests
        assert not result.server_errors


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_cannot_go_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_sleep_until_advances_without_waiting(self):
        clock = VirtualClock()
        wall_start = time.perf_counter()
        clock.sleep_until(1000.0)
        assert time.perf_counter() - wall_start < 0.5
        assert clock.now() == 1000.0

    def test_sleep_until_past_is_noop(self):
        clock = VirtualClock(100.0)
        clock.sleep_until(50.0)
        assert clock.now() == 100.0
