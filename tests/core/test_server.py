"""Tests for the worker-pool server."""

import sys
import threading
import time

import pytest

from repro.core import Request, RequestQueue, Server, WallClock


class EchoApp:
    def process(self, payload):
        return ("echo", payload)


class SlowApp:
    def __init__(self, delay=0.01):
        self.delay = delay
        self.concurrent = 0
        self.max_concurrent = 0
        self._lock = threading.Lock()

    def process(self, payload):
        with self._lock:
            self.concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self.concurrent)
        time.sleep(self.delay)
        with self._lock:
            self.concurrent -= 1
        return payload


class FailingApp:
    def process(self, payload):
        raise RuntimeError("boom")


def submit(queue, payload):
    request = Request(payload=payload, generated_at=0.0)
    request.sent_at = 0.0
    queue.put(request)
    return request


class TestServer:
    def test_processes_and_stamps(self):
        clock = WallClock()
        queue = RequestQueue(clock)
        done = []
        server = Server(EchoApp(), queue, clock, respond=done.append)
        server.start()
        request = submit(queue, "hello")
        deadline = time.time() + 2.0
        while not done and time.time() < deadline:
            time.sleep(0.001)
        server.shutdown()
        assert done[0].response == ("echo", "hello")
        assert request.service_start_at is not None
        assert request.service_end_at >= request.service_start_at

    def test_multiple_workers_run_concurrently(self):
        clock = WallClock()
        queue = RequestQueue(clock)
        app = SlowApp(delay=0.05)
        done = []
        server = Server(app, queue, clock, n_threads=4, respond=done.append)
        server.start()
        for i in range(4):
            submit(queue, i)
        deadline = time.time() + 5.0
        while len(done) < 4 and time.time() < deadline:
            time.sleep(0.005)
        server.shutdown()
        assert len(done) == 4
        assert app.max_concurrent >= 2

    def test_errors_captured_not_fatal(self):
        clock = WallClock()
        queue = RequestQueue(clock)
        done = []
        server = Server(FailingApp(), queue, clock, respond=done.append)
        server.start()
        submit(queue, "x")
        submit(queue, "y")
        deadline = time.time() + 2.0
        while len(done) < 2 and time.time() < deadline:
            time.sleep(0.001)
        server.shutdown()
        assert len(done) == 2
        assert all("boom" in r.error for r in done)
        assert len(server.errors) == 2

    def test_shutdown_stops_workers(self):
        clock = WallClock()
        queue = RequestQueue(clock)
        server = Server(EchoApp(), queue, clock, n_threads=2)
        server.start()
        server.shutdown()  # must not hang

    def test_cannot_start_twice(self):
        clock = WallClock()
        server = Server(EchoApp(), RequestQueue(clock), clock)
        server.start()
        with pytest.raises(RuntimeError):
            server.start()
        server.shutdown()

    def test_busy_workers_returns_to_zero_after_burst(self):
        # Eight workers flip their busy flags concurrently, with thread
        # switches forced often; once every request has been answered
        # none may be left counted as busy.
        clock = WallClock()
        n_requests = 2000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                queue = RequestQueue(clock)
                done = []
                all_done = threading.Event()

                def respond(request, done=done, all_done=all_done):
                    done.append(request)
                    if len(done) == n_requests:
                        all_done.set()

                server = Server(EchoApp(), queue, clock, n_threads=8,
                                respond=respond)
                server.start()
                for i in range(n_requests):
                    submit(queue, i)
                assert all_done.wait(10.0)
                # Every worker clears its flag before it responds.
                assert server.busy_workers == 0
                server.shutdown()
                assert server.busy_workers == 0
        finally:
            sys.setswitchinterval(interval)

    def test_requires_positive_threads(self):
        clock = WallClock()
        with pytest.raises(ValueError):
            Server(EchoApp(), RequestQueue(clock), clock, n_threads=0)
