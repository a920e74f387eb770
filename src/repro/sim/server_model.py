"""Virtual-time server model.

Reproduces the harness's server structure — shared FIFO request queue
drained by ``n`` worker threads — as discrete events: request arrival
(after the inbound wire delay), service start when a worker frees up,
service completion, response receipt (after the outbound wire delay).
Timestamps land in the same :class:`~repro.core.request.RequestRecord`
chain live runs produce, so all downstream statistics code is shared.

The model mirrors the live server's fault-injection points: with a
:class:`repro.faults.FaultInjector`, queue stalls freeze dispatch,
worker pauses inflate service time, worker crashes permanently reduce
capacity, and the application layer errors at the plan's rate. With a
``queue_capacity``, arrivals beyond the bound are shed and answered
with a shed response (admission control).
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, List, Optional, Sequence

from ..core.collector import StatsCollector
from ..core.queueing import FifoBuffer, QueueSnapshot
from ..core.request import Request
from .engine import Engine
from .network_model import NetworkModel
from .service_models import ServiceTimeModel

__all__ = ["SimulatedServer"]


class SimulatedServer:
    """n-worker FCFS server in virtual time.

    Parameters
    ----------
    engine:
        The discrete-event engine to schedule on.
    service_model:
        Per-request service-time source (already composed with
        contention / simulator-speed / occupancy dilations).
    network:
        Wire-latency model of the active harness configuration.
    n_threads:
        Number of worker "threads" (parallel servers).
    collector:
        Destination for completed request records.
    rng:
        Random stream for service-time draws.
    injector:
        Optional fault injector (queue stalls, worker pauses/crashes,
        application errors).
    queue_capacity:
        Optional bound on waiting requests; arrivals beyond it are
        shed.
    on_response:
        Optional hook receiving every response (including shed and
        errored ones) in place of default collector recording — the
        simulated resilient client installs itself here.
    server_id:
        Index of this instance in a multi-server topology; stamped on
        every request it serves so per-server statistics work.
    tracer:
        Optional :class:`repro.obs.Tracer`. The simulated server emits
        the *same* event schema as the live harness — lifecycle spans
        on every response, ``fault_*`` markers as faults fire — so
        live and virtual-time traces diff directly.
    gate:
        Optional :class:`repro.control.AdmissionGate` consulted on
        every arrival — the *same* gate object type (and therefore the
        same CoDel/AIMD decision code) the live request queue uses.
    buffer:
        Optional queue-discipline buffer (see
        :class:`repro.core.queueing.PriorityBuffer`); FIFO when None.
    batching:
        Optional :class:`repro.batching.BatchPolicy` — the *same*
        policy class the live worker loop uses, applied to the same
        buffer state, so batch membership matches across modes. When
        set, dispatch forms size-or-deadline batches instead of
        starting requests one at a time.
    batch_marginal_cost:
        Service-time model for batched dispatch: a batch of per-member
        draws ``s_0..s_{k-1}`` occupies its worker for ``s_0 +
        batch_marginal_cost * (s_1 + ... + s_{k-1})`` — one draw per
        member keeps the service RNG stream aligned with unbatched
        runs, and the marginal fraction models the amortization a
        vectorized ``handle_batch`` achieves live (1.0 = no benefit).
    """

    def __init__(
        self,
        engine: Engine,
        service_model: ServiceTimeModel,
        network: NetworkModel,
        n_threads: int,
        collector: StatsCollector,
        rng: random.Random,
        injector=None,
        queue_capacity: Optional[int] = None,
        on_response: Optional[Callable[[Request], None]] = None,
        server_id: int = 0,
        tracer=None,
        gate=None,
        buffer=None,
        batching=None,
        batch_marginal_cost: float = 0.35,
        live=None,
        cache=None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None)")
        self._engine = engine
        self._service_model = service_model
        self._network = network
        self._n_threads = n_threads
        self._collector = collector
        self._rng = rng
        self._injector = injector
        self._capacity = queue_capacity
        self._on_response_cb = on_response
        self.server_id = server_id
        self._tracer = tracer
        # Streaming SLO hook (repro.obs.live.LiveObs) — fed at the
        # same two points the live transport taps: every submission
        # and every response. None (the default) costs one test.
        self._live = live
        self._gate = gate
        self._queue = buffer if buffer is not None else FifoBuffer()
        self._batching = batching
        self._batch_marginal = batch_marginal_cost
        # Caching tier (repro.cache.RequestCache), shared across the
        # fleet. Consulted at service start for requests that carry a
        # synthetic key (payload is not None); None costs one test.
        self._cache = cache
        self._batch_seq = itertools.count()
        # Earliest pending batch-deadline event (None when none is
        # scheduled): lets dispatch avoid stacking redundant wakeups.
        self._batch_deadline_at: Optional[float] = None
        self._busy_workers = 0
        self._workers_alive = n_threads
        self._stall_event_pending = False
        self.peak_queue_depth = 0
        self.completed = 0
        self.good_completed = 0
        self.shed_count = 0
        self.crashed_workers = 0
        self.busy_time = 0.0
        self.total_enqueued = 0
        # Runtime-membership bookkeeping (mirrors the live
        # ServerInstance fields): the topology sets these when replicas
        # join or drain, and per-server rate accounting reads them.
        self.draining = False
        self.started_at = 0.0
        self.drained_at: Optional[float] = None

    def set_response_callback(
        self, callback: Callable[[Request], None]
    ) -> None:
        self._on_response_cb = callback

    # -- client side ------------------------------------------------------
    def submit(self, generated_at: float, payload=None) -> None:
        """Schedule one request whose ideal arrival instant is given.

        The open-loop guarantee holds by construction in virtual time:
        submission instants come straight from the arrival schedule.
        ``payload`` carries the synthetic cache key when the caching
        tier is enabled (None otherwise — the historical shape).
        """
        request = Request(payload=payload, generated_at=generated_at)
        request.sent_at = generated_at
        self.submit_request(request)

    def submit_schedule(
        self,
        times: Sequence[float],
        next_payload: Optional[Callable[[], object]] = None,
    ) -> None:
        """:meth:`submit` one request per instant of the sorted ``times``.

        Event for event the same as calling :meth:`submit` for each
        instant in order, but through the engine's arrival schedule
        (:meth:`Engine.at_each`): the requests are built as they arrive
        instead of all sitting on the event heap from time 0.
        ``next_payload`` supplies each request's payload in schedule
        order.
        """
        if self._live is not None:
            # submit() observes each send when it is called, so every
            # send of the schedule is observed before the run starts.
            for generated_at in times:
                self._live.observe_sent(generated_at)
        wire = self._network.wire_latency_each_way
        pending = iter(times)

        def arrive(_: float) -> None:
            generated_at = next(pending)
            request = Request(
                payload=next_payload() if next_payload is not None else None,
                generated_at=generated_at,
            )
            request.sent_at = generated_at
            request.server_id = self.server_id
            self._on_arrival(request)

        # The arrival instant as submit_request computes it:
        # sent_at + wire + extra_delay, with no extra delay.
        self._engine.at_each([t + wire + 0.0 for t in times], arrive)

    def submit_request(self, request: Request, extra_delay: float = 0.0) -> None:
        """Schedule an already-built attempt (``sent_at`` stamped).

        ``extra_delay`` models fault-injected in-flight latency on top
        of the configuration's wire delay.
        """
        if request.server_id is None:
            request.server_id = self.server_id
        if self._live is not None and not request.discard:
            # Send-anchored SLO accounting, mirroring the live
            # transport: the attempt burns budget in the window it was
            # dispatched, whether or not it ever completes.
            self._live.observe_sent(request.sent_at)
        self._engine.at(
            request.sent_at
            + self._network.wire_latency_each_way
            + extra_delay,
            self._on_arrival,
            request,
        )

    # -- server events -------------------------------------------------------
    def _stall_remaining(self) -> float:
        if self._injector is None:
            return 0.0
        return self._injector.queue_stall_remaining(self._engine.now)

    def _on_arrival(self, request: Request) -> None:
        request.enqueued_at = self._engine.now
        # The admission gate sees every arrival — including ones a free
        # worker could start immediately — exactly as the live queue's
        # put path does, so admit/drop tallies match across modes.
        if self._gate is not None and not self._gate.admit(
            request.enqueued_at, len(self._queue), request
        ):
            request.shed = True
            self.shed_count += 1
            self._schedule_response(request)
            return
        if self._batching is not None:
            # Batched dispatch: every arrival queues (even with a free
            # worker — it must wait for its batch to form), mirroring
            # the live put -> get_batch path, including its capacity
            # semantics (the bound applies to the waiting buffer).
            if (
                self._capacity is not None
                and len(self._queue) >= self._capacity
            ):
                request.shed = True
                self.shed_count += 1
                self._schedule_response(request)
                return
            self._queue.push(request)
            self.total_enqueued += 1
            if len(self._queue) > self.peak_queue_depth:
                self.peak_queue_depth = len(self._queue)
            self._batch_dispatch()
            return
        stall = self._stall_remaining()
        can_start = (
            stall <= 0.0
            and self._busy_workers < self._workers_alive
            and not len(self._queue)
        )
        if can_start:
            self.total_enqueued += 1
            self._start_service(request)
            return
        if self._capacity is not None and len(self._queue) >= self._capacity:
            request.shed = True
            self.shed_count += 1
            self._schedule_response(request)
            return
        self._queue.push(request)
        self.total_enqueued += 1
        if len(self._queue) > self.peak_queue_depth:
            self.peak_queue_depth = len(self._queue)
        if stall > 0.0:
            self._schedule_stall_end(stall)

    def _schedule_stall_end(self, stall: float) -> None:
        if not self._stall_event_pending:
            self._stall_event_pending = True
            self._engine.after(stall, self._stall_over)

    def _stall_over(self) -> None:
        self._stall_event_pending = False
        if self._batching is not None:
            self._batch_dispatch()
        else:
            self._dispatch()

    def _dispatch(self) -> None:
        while len(self._queue) and self._busy_workers < self._workers_alive:
            stall = self._stall_remaining()
            if stall > 0.0:
                self._schedule_stall_end(stall)
                return
            self._start_service(self._queue.pop())

    def _batch_dispatch(self) -> None:
        """Form and start every batch that is releasable right now.

        Evaluates the shared :class:`~repro.batching.BatchPolicy`
        against the buffer; when the head's delay has not yet expired
        (and the buffer holds less than a full batch) a single wakeup
        event is scheduled for the release instant. Wakeups can go
        stale — a completion may have dispatched the batch first — in
        which case they simply re-evaluate and find nothing to do.
        """
        while len(self._queue) and self._busy_workers < self._workers_alive:
            stall = self._stall_remaining()
            if stall > 0.0:
                self._schedule_stall_end(stall)
                return
            now = self._engine.now
            ready = self._batching.ready_at(self._queue, now)
            if ready is None:
                return
            if ready > now:
                self._schedule_batch_deadline(ready)
                return
            self._start_batch(self._batching.form(self._queue))

    def _schedule_batch_deadline(self, when: float) -> None:
        # The head only gets *younger* as batches pop, so an already-
        # scheduled earlier (or equal) wakeup covers this one.
        if self._batch_deadline_at is not None and self._batch_deadline_at <= when:
            return
        self._batch_deadline_at = when
        self._engine.at(when, self._on_batch_deadline, when)

    def _on_batch_deadline(self, when: float) -> None:
        if self._batch_deadline_at == when:
            self._batch_deadline_at = None
        self._batch_dispatch()

    def _start_batch(self, batch: List[Request]) -> None:
        self._busy_workers += 1
        now = self._engine.now
        seq = next(self._batch_seq)
        size = len(batch)
        # One service draw per member keeps the RNG stream identical to
        # an unbatched run; the marginal-cost sum is the batch's single
        # service window.
        draws = [self._service_model.sample(self._rng) for _ in batch]
        service_time = draws[0] + self._batch_marginal * sum(draws[1:])
        for request in batch:
            request.service_start_at = now
            request.batch_size = size
        if self._tracer is not None:
            for request in batch:
                self._tracer.emit(
                    "batch_form", now,
                    logical_id=request.logical_id,
                    request_id=request.request_id,
                    attempt=request.attempt,
                    server_id=self.server_id, value=float(seq),
                )
            self._tracer.emit(
                "batch_start", now, server_id=self.server_id,
                value=float(seq),
            )
        if self._injector is not None:
            pause = self._injector.worker_pause()
            if pause > 0.0:
                if self._tracer is not None:
                    self._tracer.emit(
                        "fault_pause", now,
                        server_id=self.server_id, value=pause,
                    )
                service_time += pause
        self.busy_time += service_time
        self._engine.after(service_time, self._on_batch_completion, seq, batch)

    def _on_batch_completion(self, seq: int, batch: List[Request]) -> None:
        now = self._engine.now
        self._busy_workers -= 1
        if self._injector is not None:
            for request in batch:
                if self._injector.app_error():
                    request.error = "injected application error"
                    if self._tracer is not None:
                        self._tracer.emit(
                            "fault_app_error", now,
                            logical_id=request.logical_id,
                            request_id=request.request_id,
                            attempt=request.attempt,
                            server_id=self.server_id,
                        )
            if any(self._injector.worker_crash() for _ in batch):
                self._workers_alive = max(0, self._workers_alive - 1)
                self.crashed_workers += 1
                if self._tracer is not None:
                    self._tracer.emit(
                        "fault_crash", now, server_id=self.server_id,
                    )
        for request in batch:
            request.service_end_at = now
        if self._tracer is not None:
            self._tracer.emit(
                "batch_end", now, server_id=self.server_id, value=float(seq),
            )
        for request in batch:
            self._schedule_response(request)
        self._batch_dispatch()

    def _start_service(self, request: Request) -> None:
        self._busy_workers += 1
        request.service_start_at = self._engine.now
        service_time = self._service_model.sample(self._rng)
        if self._cache is not None and request.payload is not None:
            # RNG-stream alignment: the service draw above is consumed
            # whether or not the lookup hits, so enabling the cache
            # never shifts the server's random stream — a hit merely
            # substitutes the near-zero hit cost for the drawn value.
            hit, _ = self._cache.lookup(
                request.payload, request.service_start_at,
                logical_id=request.logical_id,
                request_id=request.request_id,
                attempt=request.attempt,
                server_id=self.server_id,
            )
            if hit:
                request.cache_hit = True
                service_time = self._cache.hit_cost
            else:
                # Resident from service start: concurrent requests for
                # the same key coalesce onto the entry optimistically.
                self._cache.store(
                    request.payload, True, request.service_start_at,
                    logical_id=request.logical_id,
                    request_id=request.request_id,
                    attempt=request.attempt,
                    server_id=self.server_id,
                )
        if self._injector is not None:
            pause = self._injector.worker_pause()
            if pause > 0.0 and self._tracer is not None:
                self._tracer.emit(
                    "fault_pause", request.service_start_at,
                    logical_id=request.logical_id,
                    request_id=request.request_id,
                    attempt=request.attempt,
                    server_id=self.server_id, value=pause,
                )
            service_time += pause
        self.busy_time += service_time
        self._engine.after(service_time, self._on_completion, request)

    def _on_completion(self, request: Request) -> None:
        request.service_end_at = self._engine.now
        self._busy_workers -= 1
        if self._injector is not None:
            if self._injector.app_error():
                request.error = "injected application error"
                if self._tracer is not None:
                    self._tracer.emit(
                        "fault_app_error", request.service_end_at,
                        logical_id=request.logical_id,
                        request_id=request.request_id,
                        attempt=request.attempt,
                        server_id=self.server_id,
                    )
            if self._injector.worker_crash():
                self._workers_alive = max(0, self._workers_alive - 1)
                self.crashed_workers += 1
                if self._tracer is not None:
                    self._tracer.emit(
                        "fault_crash", request.service_end_at,
                        server_id=self.server_id,
                    )
        self._schedule_response(request)
        self._dispatch()

    def _schedule_response(self, request: Request) -> None:
        self._engine.at(
            self._engine.now + self._network.wire_latency_each_way,
            self._on_response,
            request,
        )

    def _on_response(self, request: Request) -> None:
        request.response_received_at = self._engine.now
        self.completed += 1
        if request.error is None and not request.shed and not request.discard:
            self.good_completed += 1
        if self._tracer is not None:
            if request.shed:
                outcome = "shed"
            elif request.error is not None:
                outcome = "error"
            elif request.discard:
                outcome = "discard"
            else:
                outcome = None
            self._tracer.record_request(request, outcome=outcome)
        if self._live is not None and not request.discard:
            self._live.observe(request)
        if self._on_response_cb is not None:
            self._on_response_cb(request)
            return
        if request.error is None and not request.shed and not request.discard:
            self._collector.add(request.finish())

    # -- derived metrics --------------------------------------------------------
    @property
    def workers_alive(self) -> int:
        return self._workers_alive

    @property
    def busy_workers(self) -> int:
        return self._busy_workers

    @property
    def queue_len(self) -> int:
        """Requests waiting (excluding in-service) — the gauge signal."""
        return len(self._queue)

    @property
    def depth(self) -> int:
        """Queued plus in-service requests — the JSQ/P2C load signal."""
        return len(self._queue) + self._busy_workers

    @property
    def n_threads(self) -> int:
        return self._n_threads

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of workers busy over ``elapsed`` virtual seconds."""
        if elapsed <= 0:
            raise ValueError("elapsed must be positive")
        return self.busy_time / (elapsed * self._n_threads)

    def queue_snapshot(self, now: Optional[float] = None) -> QueueSnapshot:
        """The same :class:`QueueSnapshot` view the live queue exposes."""
        if now is None:
            now = self._engine.now
        head = self._queue.head_enqueued_at()
        return QueueSnapshot(
            depth=len(self._queue),
            peak_depth=self.peak_queue_depth,
            total_enqueued=self.total_enqueued,
            total_shed=self.shed_count,
            head_sojourn=max(0.0, now - head) if head is not None else 0.0,
        )
