"""Application server: a worker-thread pool over the request queue.

Each worker pulls requests from the shared :class:`RequestQueue`,
stamps service start/end around the application's ``process`` call,
and hands the completed request to a response callback (the transport's
reply path). This mirrors the paper's harness structure (Fig. 1): the
request queue is shared among application threads, and the number of
workers is the "threads" axis of Figs. 4 and 7.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from typing import Callable, List

from ..faults import InjectedFault
from .clock import Clock
from .queueing import QueueClosed, RequestQueue
from .request import Request

__all__ = ["Server"]


class Server:
    """Worker pool that services requests from a queue.

    Parameters
    ----------
    app:
        Object with a ``process(payload) -> response`` method (the
        :class:`repro.apps.base.Application` interface).
    queue:
        Shared request queue (already instrumented).
    clock:
        Time source for service start/end stamps.
    n_threads:
        Number of worker threads.
    respond:
        Callback invoked with each completed :class:`Request`.
    injector:
        Optional :class:`repro.faults.FaultInjector` driving worker
        pauses, worker crashes, and injected application errors.
    server_id:
        Index of this instance in a multi-server topology (0 in the
        classic single-server shape); worker threads are named after it.
    batching:
        Optional :class:`repro.batching.BatchPolicy`. When set, workers
        run the batched loop: they dequeue size-or-deadline batches via
        :meth:`RequestQueue.get_batch` and service each batch with one
        application call (``handle_batch`` when the app provides it,
        else a per-request ``process`` loop). When ``None`` (default)
        the original single-request loop runs, untouched.
    cache:
        Optional :class:`repro.cache.RequestCache` shared across all
        server instances. Workers consult it before ``process``: a hit
        short-circuits the application call, serving the cached
        response for the configured near-zero hit cost. Requests whose
        app declines a key (``cache_key`` returns None) bypass the
        cache entirely. When ``None`` (default) the service path is
        untouched.
    """

    def __init__(
        self,
        app,
        queue: RequestQueue,
        clock: Clock,
        n_threads: int = 1,
        respond: Callable[[Request], None] = None,
        injector=None,
        server_id: int = 0,
        batching=None,
        cache=None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("need at least one worker thread")
        self._app = app
        self._queue = queue
        self._clock = clock
        self._respond = respond or (lambda req: None)
        self._injector = injector
        self.server_id = server_id
        self._batching = batching
        self._cache = cache
        self._batch_seq = itertools.count()
        loop = self._worker_loop if batching is None else self._batch_worker_loop
        self._threads: List[threading.Thread] = [
            threading.Thread(
                target=loop,
                args=(i,),
                name=f"tb-s{server_id}-worker-{i}",
                daemon=True,
            )
            for i in range(n_threads)
        ]
        self._started = False
        self._errors: List[str] = []
        self._errors_lock = threading.Lock()
        self._alive = n_threads
        self._alive_lock = threading.Lock()
        # One busy flag per worker, each written only by its own worker
        # and summed on read, so no update can be lost and the hot path
        # takes no lock. The tracer is installed only when observability
        # is on — see Transport.set_observability.
        self._busy = [0] * n_threads
        self._tracer = None

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    @property
    def busy_workers(self) -> int:
        """Workers currently inside the application service window."""
        return sum(self._busy)

    def set_tracer(self, tracer) -> None:
        """Install a tracer for worker-layer fault events."""
        self._tracer = tracer

    @property
    def alive_workers(self) -> int:
        """Workers still serving: ``n_threads`` minus injected crashes.

        Capacity lost to crash faults is observable here instead of
        silently degrading throughput.
        """
        with self._alive_lock:
            return self._alive

    def start(self) -> None:
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for t in self._threads:
            t.start()

    def _worker_loop(self, slot: int) -> None:
        injector = self._injector
        busy = self._busy
        while True:
            try:
                request = self._queue.get()
            except QueueClosed:
                return
            request.service_start_at = self._clock.now()
            busy[slot] = 1
            if injector is not None:
                pause = injector.worker_pause()
                if pause > 0.0:
                    if self._tracer is not None:
                        self._tracer.emit(
                            "fault_pause", request.service_start_at,
                            logical_id=request.logical_id,
                            request_id=request.request_id,
                            attempt=request.attempt,
                            server_id=self.server_id, value=pause,
                        )
                    # GC/compaction-style stall inside the service window.
                    self._clock.sleep(pause)
            # Caching tier: consult before touching the application. A
            # hit serves the stored response for the configured hit
            # cost; the backend never runs (injected app errors model
            # backend failures, so a hit skips those too).
            cache_key = None
            if self._cache is not None:
                cache_key = self._app.cache_key(request.payload)
                if cache_key is not None:
                    hit, value = self._cache.lookup(
                        cache_key, self._clock.now(),
                        logical_id=request.logical_id,
                        request_id=request.request_id,
                        attempt=request.attempt,
                        server_id=self.server_id,
                    )
                    if hit:
                        request.response = value
                        request.cache_hit = True
                        if self._cache.hit_cost > 0.0:
                            self._clock.sleep(self._cache.hit_cost)
            if not request.cache_hit:
                try:
                    if injector is not None and injector.app_error():
                        if self._tracer is not None:
                            self._tracer.emit(
                                "fault_app_error", self._clock.now(),
                                logical_id=request.logical_id,
                                request_id=request.request_id,
                                attempt=request.attempt,
                                server_id=self.server_id,
                            )
                        raise InjectedFault("injected application error")
                    request.response = self._app.process(request.payload)
                except Exception:  # noqa: BLE001 - report, don't kill the worker
                    request.error = traceback.format_exc()
                    with self._errors_lock:
                        self._errors.append(request.error)
                if cache_key is not None and request.error is None:
                    # Only successful responses are cacheable.
                    self._cache.store(
                        cache_key, request.response, self._clock.now(),
                        logical_id=request.logical_id,
                        request_id=request.request_id,
                        attempt=request.attempt,
                        server_id=self.server_id,
                    )
            request.service_end_at = self._clock.now()
            busy[slot] = 0
            self._respond(request)
            if injector is not None and injector.worker_crash():
                # Injected crash: the pool permanently loses a worker.
                with self._alive_lock:
                    self._alive -= 1
                if self._tracer is not None:
                    self._tracer.emit(
                        "fault_crash", self._clock.now(),
                        server_id=self.server_id,
                    )
                return

    def _batch_worker_loop(self, slot: int) -> None:
        """Batched variant of :meth:`_worker_loop`.

        Dequeues size-or-deadline batches (one priority class each, see
        :meth:`~repro.core.queueing.RequestQueue.get_batch`) and
        services every member with a single application call —
        ``handle_batch`` when the app implements it, else a plain
        ``process`` loop. All members share one ``service_start_at`` /
        ``service_end_at`` window; per-request cost attribution divides
        the window by the recorded ``batch_size``.
        """
        injector = self._injector
        busy = self._busy
        handle_batch = getattr(self._app, "handle_batch", None)
        while True:
            try:
                batch = self._queue.get_batch(self._batching)
            except QueueClosed:
                return
            seq = next(self._batch_seq)
            size = len(batch)
            start = self._clock.now()
            for request in batch:
                request.service_start_at = start
                request.batch_size = size
            if self._tracer is not None:
                for request in batch:
                    self._tracer.emit(
                        "batch_form", start,
                        logical_id=request.logical_id,
                        request_id=request.request_id,
                        attempt=request.attempt,
                        server_id=self.server_id, value=float(seq),
                    )
                self._tracer.emit(
                    "batch_start", start,
                    server_id=self.server_id, value=float(seq),
                )
            busy[slot] = 1
            if injector is not None:
                pause = injector.worker_pause()
                if pause > 0.0:
                    if self._tracer is not None:
                        self._tracer.emit(
                            "fault_pause", start,
                            server_id=self.server_id, value=pause,
                        )
                    # One stall covers the whole batch: the pause models
                    # a worker-level freeze, not per-request slowness.
                    self._clock.sleep(pause)
            # Injected application errors keep per-request semantics:
            # a failed member consumes no service and gets an error
            # response; the rest of the batch is processed normally.
            failed = (
                [injector.app_error() for _ in batch]
                if injector is not None
                else [False] * size
            )
            served = [r for r, bad in zip(batch, failed) if not bad]
            try:
                if handle_batch is not None:
                    responses = handle_batch([r.payload for r in served])
                else:
                    responses = [self._app.process(r.payload) for r in served]
                if len(responses) != len(served):
                    raise RuntimeError(
                        f"handle_batch returned {len(responses)} responses "
                        f"for {len(served)} payloads"
                    )
                for request, response in zip(served, responses):
                    request.response = response
            except Exception:  # noqa: BLE001 - report, don't kill the worker
                err = traceback.format_exc()
                for request in served:
                    request.error = err
                with self._errors_lock:
                    self._errors.append(err)
            for request, bad in zip(batch, failed):
                if not bad:
                    continue
                if self._tracer is not None:
                    self._tracer.emit(
                        "fault_app_error", self._clock.now(),
                        logical_id=request.logical_id,
                        request_id=request.request_id,
                        attempt=request.attempt,
                        server_id=self.server_id,
                    )
                request.error = "InjectedFault: injected application error"
                with self._errors_lock:
                    self._errors.append(request.error)
            end = self._clock.now()
            for request in batch:
                request.service_end_at = end
            busy[slot] = 0
            if self._tracer is not None:
                self._tracer.emit(
                    "batch_end", end,
                    server_id=self.server_id, value=float(seq),
                )
            for request in batch:
                self._respond(request)
            if injector is not None and any(
                injector.worker_crash() for _ in batch
            ):
                # Injected crash: the pool permanently loses a worker.
                with self._alive_lock:
                    self._alive -= 1
                if self._tracer is not None:
                    self._tracer.emit(
                        "fault_crash", self._clock.now(),
                        server_id=self.server_id,
                    )
                return

    def shutdown(
        self, timeout: float = 30.0, discard_pending: bool = False
    ) -> None:
        """Close the queue and join all workers.

        ``timeout`` bounds the whole shutdown, not each join: a shared
        deadline is computed once and each join waits only the
        remaining budget. ``discard_pending`` drops requests still
        queued instead of serving them — the end-of-run path, where
        every waiter has already been resolved or timed out.
        """
        self._queue.close(discard_pending=discard_pending)
        if not self._started:
            return
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                raise RuntimeError(f"worker {t.name} failed to stop")

    @property
    def errors(self) -> List[str]:
        with self._errors_lock:
            return list(self._errors)
