"""Top-level virtual-time load testing.

:func:`simulate_load` is the simulator's counterpart of
:func:`repro.core.harness.run_harness`: same methodology (open-loop
Poisson arrivals, warmup discard, per-request timestamp chains), but
executed in virtual time against a calibrated or measured service-time
model. Deterministic given a seed, microsecond-exact, and fast — this
is the configuration the paper runs under zsim (Sec. VI).

Fault plans (``SimConfig.faults``) and resilience policies
(``SimConfig.resilience``) replay in virtual time through
:class:`_SimClient`, a single-threaded mirror of the live
:class:`~repro.core.resilience.ResilientClient`: same state machine
(deadlines, attempt timeouts, full-jitter backoff, hedging), same
outcome taxonomy, but with recovery timers as simulator events instead
of a timer thread. Because the event loop is single-threaded and every
random draw comes from seeded streams, the same plan replayed with the
same seed yields byte-identical results.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.balancer import BALANCERS, LoadBalancer, make_balancer, pick_active
from ..batching.config import NO_BATCHING, BatchingConfig
from ..core.collector import CollectedStats, StatsCollector
from ..core.config import (
    NO_CACHE,
    NO_CONTROL,
    NO_FANOUT,
    NO_OBSERVABILITY,
    NO_RESILIENCE,
    CacheConfig,
    ControlPlaneConfig,
    FanoutConfig,
    ObservabilityConfig,
)
from ..core.request import Request
from ..core.resilience import (
    ResilienceConfig,
    _Call,
    backoff_delay,
    effective_attempt_timeout,
)
from ..core.traffic import ArrivalSchedule, DeterministicArrivals, PoissonArrivals
from ..faults import FaultInjector, FaultPlan, Scenario, ScenarioInjector
from ..health.config import NO_HEALTH, HealthConfig
from ..stats import LatencySummary
from .calibration import AppProfile, paper_profile
from .engine import Engine
from .network_model import network_model_for
from .server_model import SimulatedServer

__all__ = ["SimConfig", "SimResult", "simulate_load", "simulate_app"]


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one virtual-time measurement run."""

    qps: float = 1000.0
    n_threads: int = 1
    configuration: str = "integrated"
    warmup_requests: int = 500
    measure_requests: int = 5000
    seed: int = 0
    #: Model the zsim-simulated system (applies the profile's constant
    #: performance error) rather than the real machine.
    simulated_system: bool = False
    #: Idealized memory (zero-latency/infinite-bandwidth DRAM): removes
    #: memory-contention dilation, keeping synchronization overheads —
    #: the Sec. VII experiment.
    ideal_memory: bool = False
    deterministic_arrivals: bool = False
    #: Fault plan to replay in virtual time (None = healthy run).
    faults: Optional[FaultPlan] = None
    #: Client-side recovery policy (deadlines/retries/hedging).
    resilience: ResilienceConfig = NO_RESILIENCE
    #: Bound on the simulated server's request queue (None = unbounded);
    #: arrivals beyond it are shed. With ``n_servers > 1`` the bound
    #: applies per instance, as in the live harness.
    queue_capacity: Optional[int] = None
    #: Independent server replicas behind the balancer, each with its
    #: own queue, worker pool, and service-time stream. 1 reproduces
    #: the original single-server simulator bit-for-bit.
    n_servers: int = 1
    #: Client count, accepted for API parity with the live harness. In
    #: virtual time the round-robin schedule split re-merges into the
    #: identical event sequence, so this never changes results — the
    #: open-loop process is invariant under client count by design.
    n_clients: int = 1
    #: Routing policy (see :mod:`repro.core.balancer`):
    #: ``round_robin`` / ``random`` / ``power_of_two`` / ``jsq``.
    balancer: str = "round_robin"
    #: Tracing/metrics policy (see :mod:`repro.obs`). Off by default;
    #: when on, the simulator emits the same event schema as the live
    #: harness and samples metrics as a recurring virtual-time event.
    observability: ObservabilityConfig = NO_OBSERVABILITY
    #: SLO-driven control plane (see :mod:`repro.control`). Off by
    #: default; control ticks become recurring virtual-time events, so
    #: controlled runs stay deterministic under a fixed seed.
    control: ControlPlaneConfig = NO_CONTROL
    #: Dynamic request batching (see :mod:`repro.batching`). Off by
    #: default; when enabled the simulated servers form the identical
    #: size-or-deadline batches the live worker loop forms, and a
    #: batch's service window is one full-price draw plus
    #: ``sim_marginal_cost`` of each additional member's draw.
    batching: BatchingConfig = NO_BATCHING
    #: Optional piecewise ``((duration, qps), ...)`` load schedule
    #: replacing the constant-rate arrival process (warmup discard is
    #: skipped; the transient is the measurement).
    load_profile: Optional[Tuple[Tuple[float, float], ...]] = None
    #: Failure-aware serving (see :mod:`repro.health`): replica health
    #: tracking, outlier ejection, circuit breakers, retry budget. Off
    #: by default — disabled runs build no health objects and replay
    #: bit-identically to pre-health builds.
    health: HealthConfig = NO_HEALTH
    #: Optional chaos :class:`repro.faults.Scenario`; phase boundaries
    #: become engine events, so scenario replay is deterministic per
    #: seed. Composes over ``faults`` as the steady-state base plan.
    scenario: Optional[Scenario] = None
    #: Scatter-gather request shape (see
    #: :class:`repro.core.FanoutConfig`): each arrival scatters one
    #: pinned sub-request to every server and the end-to-end latency
    #: is the slowest shard's. Off by default; a K=1 fan-out replays
    #: bit-identically to the unsharded simulator per seed (the
    #: sub-request schedule, RNG streams, and event order coincide).
    fanout: FanoutConfig = NO_FANOUT
    #: Request/result caching tier (see :class:`repro.core.CacheConfig`
    #: and :mod:`repro.cache`). Off by default. When enabled, arrivals
    #: carry synthetic Zipfian keys drawn from a *dedicated* RNG stream
    #: and a hit substitutes ``hit_cost`` for the sampled service time
    #: — the sample is consumed either way, and the key stream simply
    #: never exists when disabled, so a cache-off run stays
    #: bit-identical to pre-cache builds per seed.
    cache: CacheConfig = NO_CACHE

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ValueError("qps must be positive")
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.warmup_requests < 0 or self.measure_requests < 1:
            raise ValueError("invalid request counts")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None)")
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.balancer not in BALANCERS:
            raise ValueError(
                f"balancer must be one of {sorted(BALANCERS)}, "
                f"got {self.balancer!r}"
            )
        if self.load_profile is not None:
            if not self.load_profile:
                raise ValueError("load_profile must have >= 1 segment")
            for segment in self.load_profile:
                if len(segment) != 2:
                    raise ValueError(
                        "load_profile segments are (duration, qps) pairs"
                    )
                duration, qps = segment
                if duration <= 0 or qps <= 0:
                    raise ValueError(
                        "load_profile durations and qps must be positive"
                    )
        if self.control.enabled and self.control.autoscaler is not None:
            scaler = self.control.autoscaler
            if not (
                scaler.min_servers <= self.n_servers <= scaler.max_servers
            ):
                raise ValueError(
                    "n_servers must lie within the autoscaler's "
                    "[min_servers, max_servers] band"
                )
        if self.fanout.enabled:
            # Same composition rules as the live harness: pinned
            # sub-requests must all be answered for a gather to
            # complete, so layers that retry, reroute, or drop
            # individual requests are excluded.
            if self.n_servers != self.fanout.shards:
                raise ValueError(
                    "fan-out requires n_servers == fanout.shards "
                    f"(n_servers={self.n_servers}, "
                    f"shards={self.fanout.shards})"
                )
            if self.resilience.enabled:
                raise ValueError(
                    "resilience retries/hedges reroute pinned "
                    "sub-requests; disable it under fan-out"
                )
            if self.control.enabled or self.health.enabled:
                raise ValueError(
                    "control-plane and health policies drop or reroute "
                    "requests, breaking the gather contract; disable "
                    "them under fan-out"
                )
            if self.faults is not None or self.scenario is not None:
                raise ValueError(
                    "fault injection can drop sub-requests, leaving "
                    "gathers forever incomplete; fan-out does not "
                    "compose with faults/scenarios"
                )
        if self.cache.enabled:
            if self.batching.enabled:
                raise ValueError(
                    "the batched service window prices whole batches "
                    "and has no per-request hit path; caching does not "
                    "compose with batching"
                )
            if self.fanout.enabled:
                raise ValueError(
                    "fan-out sub-requests carry partial per-shard "
                    "responses; caching does not compose with fan-out"
                )
            if (
                self.resilience.enabled
                or self.health.enabled
                or self.faults is not None
                or self.scenario is not None
            ):
                # The resilient-client mirror submits keyless attempts
                # (every request would miss), which would silently
                # defeat the cache; reject rather than mislead. The
                # live harness does support these combinations — real
                # apps key on real payloads there.
                raise ValueError(
                    "the simulator's synthetic key stream only feeds "
                    "the direct and routed arrival paths; caching does "
                    "not compose with resilience/health/faults in sim "
                    "(use the live harness for those)"
                )

    @property
    def total_requests(self) -> int:
        return self.warmup_requests + self.measure_requests

    def with_qps(self, qps: float) -> "SimConfig":
        return dataclasses.replace(self, qps=qps)

    def with_seed(self, seed: int) -> "SimConfig":
        return dataclasses.replace(self, seed=seed)

    def replace(self, **changes) -> "SimConfig":
        """Copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one virtual-time run (mirrors HarnessResult)."""

    profile_name: str
    config: SimConfig
    stats: CollectedStats
    offered_qps: float
    utilization: float
    virtual_time: float
    outcomes: Dict[str, int] = field(default_factory=dict)
    goodput_qps: float = 0.0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Workers still alive per server instance at run end.
    alive_workers: Tuple[int, ...] = ()
    #: Requests routed to each server instance by the balancer.
    routed_counts: Tuple[int, ...] = ()
    #: Observability artifacts (trace events, metric series, snapshot);
    #: None unless ``config.observability.tracing`` was enabled.
    obs: Optional[object] = None
    #: Control-plane tallies (mirrors HarnessResult.control_counts).
    control_counts: Dict[str, int] = field(default_factory=dict)
    #: Health-layer tallies (mirrors HarnessResult.health_counts).
    health_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-shard leaf latencies and critical-shard attribution
    #: (:class:`repro.core.fanout.FanoutStats`); None unless
    #: ``config.fanout.enabled``.
    fanout: Optional[object] = None
    #: Caching-tier tallies (hits, misses, expirations, evictions,
    #: rejections); empty unless ``config.cache.enabled``.
    cache_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-instance ``(server_id, completions, active_seconds)`` — the
    #: active window runs from join to drain, so per-server rates stay
    #: honest under autoscaling membership churn.
    server_activity: Tuple[Tuple[int, int, float], ...] = ()

    def per_server_qps(self) -> Dict[int, float]:
        """Completions per second of *active window*, per instance."""
        return {
            server_id: (completed / active if active > 0 else 0.0)
            for server_id, completed, active in self.server_activity
        }

    @property
    def sojourn(self) -> LatencySummary:
        return self.stats.summary("sojourn")

    def per_server(self, metric: str = "sojourn") -> Dict[int, LatencySummary]:
        """Per-instance latency summaries (see CollectedStats.per_server)."""
        return self.stats.per_server(metric)

    @property
    def service(self) -> LatencySummary:
        return self.stats.summary("service")

    @property
    def queue(self) -> LatencySummary:
        return self.stats.summary("queue")

    @property
    def attempt_latency(self) -> LatencySummary:
        """Per-attempt latency summary (every attempt with a response)."""
        return self.stats.attempt_summary()

    @property
    def retry_amplification(self) -> float:
        """Attempts sent per logical request offered (1.0 = no retries)."""
        offered = self.outcomes.get("offered", 0)
        attempts = self.outcomes.get("attempts", 0)
        if offered == 0 or attempts == 0:
            return 1.0
        return attempts / offered

    @property
    def success_rate(self) -> float:
        """Fraction of offered logical requests that met their deadline."""
        offered = self.outcomes.get("offered", 0)
        if offered == 0:
            return 1.0
        return self.outcomes.get("succeeded", 0) / offered

    @property
    def saturated(self) -> bool:
        """Offered load at or beyond the server's service capacity."""
        return self.utilization >= 0.98

    def describe(self) -> str:
        lines = [
            f"{self.profile_name} [{self.config.configuration}] "
            f"qps={self.offered_qps:g} threads={self.config.n_threads} "
            f"util={self.utilization:.2f}",
            f"sojourn: {self.sojourn.describe()}",
        ]
        if self.config.n_servers > 1:
            lines.append(
                f"topology: {self.config.n_servers} servers "
                f"balancer={self.config.balancer} "
                f"routed={list(self.routed_counts)} "
                f"alive_workers={list(self.alive_workers)}"
            )
        if self.control_counts:
            c = self.control_counts
            lines.append(
                f"control: ticks={c.get('ticks', 0)} "
                f"admitted={c.get('admitted', 0)} "
                f"codel_dropped={c.get('codel_dropped', 0)} "
                f"limit_dropped={c.get('limit_dropped', 0)} "
                f"scale_ups={c.get('scale_ups', 0)} "
                f"scale_downs={c.get('scale_downs', 0)} "
                f"active_servers={c.get('active_servers', 0)}"
            )
        if self.health_counts:
            h = self.health_counts
            lines.append(
                f"health: ejections={h.get('ejections', 0)} "
                f"readmissions={h.get('readmissions', 0)} "
                f"probes={h.get('probes', 0)} "
                f"breaker_opens={h.get('breaker_opens', 0)} "
                f"retries_denied={h.get('retries_denied', 0)}"
            )
        if self.cache_counts:
            cc = self.cache_counts
            looked = cc.get("hits", 0) + cc.get("misses", 0)
            rate = cc.get("hits", 0) / looked if looked else 0.0
            lines.append(
                f"cache: hit_rate={rate:.1%} hits={cc.get('hits', 0)} "
                f"misses={cc.get('misses', 0)} "
                f"expirations={cc.get('expirations', 0)} "
                f"evictions={cc.get('evictions', 0)}"
            )
        if self.outcomes:
            o = self.outcomes
            lines.append(
                f"goodput_qps={self.goodput_qps:.1f} "
                f"succeeded={o.get('succeeded', 0)} "
                f"timed_out={o.get('timed_out', 0)} "
                f"failed={o.get('failed', 0)} shed={o.get('shed', 0)} "
                f"retries={o.get('retries', 0)} "
                f"amplification={self.retry_amplification:.2f}"
            )
        return "\n".join(lines)


class _Topology:
    """Routes attempts across N simulated servers through a balancer.

    Virtual-time mirror of the live transport's routing layer: tracks
    per-server ``outstanding`` (routed minus responded — the depth
    vector the balancer inspects, same signal as the live
    ``Transport.queue_depths``) and lifetime ``routed`` counts, and
    wraps each server's response callback so the slot is released when
    the response event fires. With one server the balancer is never
    consulted, so the single-server event/RNG streams are untouched.

    With a control plane the topology also owns runtime membership,
    mirroring the live transport: the server list is append-only
    (``add_server`` via ``server_factory``), removed replicas drain in
    place, and routing only ever targets the active subset (see
    :func:`repro.core.balancer.pick_active`).
    """

    def __init__(
        self,
        servers: List[SimulatedServer],
        balancer: LoadBalancer,
        engine: Optional[Engine] = None,
        server_factory: Optional[Callable[[int], SimulatedServer]] = None,
        plane=None,
        health=None,
    ) -> None:
        self._servers = servers
        self._balancer = balancer
        self._engine = engine
        self._factory = server_factory
        self._plane = plane
        self._health = health
        self._sink: Optional[Callable[[Request], None]] = None
        self._outstanding = [0] * len(servers)
        self.routed = [0] * len(servers)
        # Ids of the non-draining servers, rebuilt only when membership
        # changes; routing passes it (and ``_outstanding``) to the
        # balancer read-only instead of copying both per arrival.
        self._active = self._scan_active()
        #: Hook run on every runtime-added server (gauge registration).
        self.on_server_added: Optional[Callable[[SimulatedServer], None]] = None

    @property
    def servers(self) -> List[SimulatedServer]:
        return list(self._servers)

    def server(self, server_id: int) -> SimulatedServer:
        return self._servers[server_id]

    def depths(self) -> List[int]:
        return list(self._outstanding)

    def active_ids(self) -> List[int]:
        return list(self._active)

    def _scan_active(self) -> List[int]:
        return [
            server.server_id
            for server in self._servers
            if not server.draining
        ]

    def add_server(self) -> Optional[int]:
        """Grow the replica set by one at runtime (autoscale up)."""
        if self._factory is None:
            return None
        server_id = len(self._servers)
        server = self._factory(server_id)
        self._servers.append(server)
        self._outstanding.append(0)
        self.routed.append(0)
        self._active = self._scan_active()
        if self._sink is not None:
            server.set_response_callback(self._sink)
        if self.on_server_added is not None:
            self.on_server_added(server)
        return server_id

    def drain_server(self) -> Optional[int]:
        """Stop routing to the youngest active replica (autoscale down).

        Work already queued on it still completes — the server object
        stays in place, exactly like the live transport's drain.
        """
        if len(self._active) <= 1:
            return None
        server = self._servers[self._active[-1]]
        server.draining = True
        server.drained_at = (
            self._engine.now if self._engine is not None else None
        )
        self._active = self._scan_active()
        return server.server_id

    def submit_attempt(
        self,
        request: Request,
        extra_delay: float = 0.0,
        avoid: Optional[int] = None,
    ) -> int:
        """Route one attempt; returns the chosen server index.

        A request arriving with ``server_id`` already stamped (an
        injected duplicate shadowing its original) skips the balancer
        and lands on that server, as on the live wire.
        """
        if request.server_id is None:
            if self._plane is not None:
                self._plane.classify(request)
            if len(self._servers) == 1:
                request.server_id = 0
            elif self._health is not None:
                now = (
                    request.sent_at
                    if request.sent_at is not None
                    else request.generated_at
                )
                candidates, forced = self._health.route(self._active, now)
                if forced:
                    # Probation probe / breaker trial: route directly.
                    request.server_id = candidates[0]
                else:
                    request.server_id = pick_active(
                        self._balancer, self._outstanding, candidates,
                        avoid=avoid,
                    )
            else:
                request.server_id = pick_active(
                    self._balancer, self._outstanding, self._active,
                    avoid=avoid,
                )
        server_id = request.server_id
        self._outstanding[server_id] += 1
        self.routed[server_id] += 1
        self._servers[server_id].submit_request(
            request, extra_delay=extra_delay
        )
        return server_id

    def set_response_callback(
        self, callback: Callable[[Request], None]
    ) -> None:
        """Install the client-side sink behind per-server settling."""

        def sink(request: Request) -> None:
            server_id = request.server_id or 0
            self._outstanding[server_id] = max(
                self._outstanding[server_id] - 1, 0
            )
            if (
                self._plane is not None
                and request.error is None
                and not request.shed
                and not request.discard
            ):
                # Same AIMD signal the live transport feeds: end-to-end
                # sojourn of every successful completion.
                self._plane.observe_sojourn(
                    request.response_received_at - request.generated_at
                )
            if (
                self._health is not None
                and not request.discard
                and request.server_id is not None
            ):
                # Same feed the live transport completion path gives
                # the health layer: every non-discarded response, ok or
                # not, attributed to the replica that served it.
                ok = request.error is None and not request.shed
                self._health.record_attempt(
                    request.server_id,
                    (
                        request.response_received_at - request.sent_at
                        if ok and request.sent_at is not None
                        else None
                    ),
                    ok,
                    request.response_received_at,
                )
            callback(request)

        self._sink = sink
        for server in self._servers:
            server.set_response_callback(sink)


class _SimControlTarget:
    """Bind the control plane to the simulated topology.

    Duck-typed :class:`repro.control.ControlTarget` (kept import-free
    so the control package loads only on controlled runs): controllers
    read virtual-time queue snapshots and load gauges and actuate
    runtime membership on the topology — the identical controller code
    that drives the live transport.
    """

    def __init__(self, topology: _Topology, plane) -> None:
        self._topology = topology
        self._plane = plane

    def active_servers(self) -> List[int]:
        return self._topology.active_ids()

    def queue_snapshot(self, server_id: int, now: float):
        return self._topology.server(server_id).queue_snapshot(now)

    def server_load(self, server_id: int) -> Tuple[int, int, int]:
        server = self._topology.server(server_id)
        return (server.queue_len, server.busy_workers, server.workers_alive)

    def gate(self, server_id: int):
        return self._plane.gate_for(server_id)

    def scale_up(self) -> Optional[int]:
        return self._topology.add_server()

    def scale_down(self) -> Optional[int]:
        return self._topology.drain_server()


class _SimClient:
    """Virtual-time mirror of :class:`repro.core.resilience.ResilientClient`.

    Runs the identical logical-request state machine — deadlines,
    per-attempt timeouts, retries with full-jitter backoff, hedges,
    first-response-wins resolution, late-response accounting — but
    schedules every recovery timer on the simulation engine and applies
    transport faults (drop / delay / duplicate) inline, since the
    simulator has no wire to corrupt. Single-threaded by construction:
    no locks, fully deterministic under a fixed seed.
    """

    def __init__(
        self,
        engine: Engine,
        topology: _Topology,
        config: ResilienceConfig,
        collector: StatsCollector,
        injector: Optional[FaultInjector],
        seed: int = 0,
        tracer=None,
        health=None,
    ) -> None:
        self._engine = engine
        self._topology = topology
        self._config = config
        self._collector = collector
        self._injector = injector
        self._tracer = tracer
        self._health = health
        self._rng = random.Random(seed ^ 0x8E511)
        self._attempt_timeout = effective_attempt_timeout(config)
        self._calls: Dict[int, _Call] = {}
        self._ids = itertools.count()
        topology.set_response_callback(self._on_attempt_complete)

    # -- logical request lifecycle -------------------------------------
    def begin(self, generated_at: float) -> None:
        """Start one logical request (runs at its arrival instant)."""
        config = self._config
        logical_id = next(self._ids)
        deadline = (
            generated_at + config.deadline
            if config.deadline is not None
            else None
        )
        call = _Call(logical_id, None, generated_at, deadline)
        self._calls[logical_id] = call
        self._collector.note("offered")
        if self._health is not None:
            self._health.on_first_attempt()
        self._send_attempt(call, kind="first")
        if deadline is not None:
            self._engine.at(deadline, self._on_deadline, call)
        if config.hedge_after is not None and config.max_hedges > 0:
            self._engine.after(config.hedge_after, self._maybe_hedge, call)

    def finalize(self) -> None:
        """Resolve logical requests left dangling by unrecovered drops.

        Only reachable without a deadline: with one, the deadline event
        always resolves the call inside the simulation.
        """
        for call in list(self._calls.values()):
            self._resolve(call, "failed")

    # -- attempts ------------------------------------------------------
    def _send_attempt(self, call: _Call, kind: str) -> None:
        if call.resolved:
            return
        call.attempt_seq += 1
        attempt_no = call.attempt_seq
        if kind != "hedge":
            call.cur_attempt = attempt_no
        self._collector.note("attempts")
        if kind == "retry":
            self._collector.note("retries")
        elif kind == "hedge":
            self._collector.note("hedges")
        tracer = self._tracer
        if tracer is not None and kind != "first":
            tracer.emit(
                kind, self._engine.now, logical_id=call.logical_id,
                attempt=attempt_no,
            )

        drop = duplicate = False
        extra_delay = 0.0
        if self._injector is not None:
            action = self._injector.transport_action()
            drop, duplicate, extra_delay = action
        if drop and tracer is not None:
            # Mirror the live transport's dropped-attempt trail: the
            # truncated chain plus an explicit fault marker.
            now = self._engine.now
            tracer.emit("generated", call.generated_at,
                        logical_id=call.logical_id, attempt=attempt_no)
            tracer.emit("sent", now, logical_id=call.logical_id,
                        attempt=attempt_no)
            tracer.emit("fault_drop", now, logical_id=call.logical_id,
                        attempt=attempt_no)
        if not drop:
            now = self._engine.now
            request = Request(
                payload=None,
                generated_at=call.generated_at,
                logical_id=call.logical_id,
                attempt=attempt_no,
                deadline=call.deadline,
            )
            request.sent_at = now
            # A hedge steers away from the replica serving the primary
            # attempt, so replica-local trouble cannot slow both copies.
            if extra_delay > 0.0 and tracer is not None:
                tracer.emit(
                    "fault_delay", now, logical_id=call.logical_id,
                    request_id=request.request_id, attempt=attempt_no,
                    value=extra_delay,
                )
            server_id = self._topology.submit_attempt(
                request,
                extra_delay=extra_delay,
                avoid=call.last_server if kind == "hedge" else None,
            )
            if kind != "hedge":
                call.last_server = server_id
            if duplicate:
                dup = Request(
                    payload=None,
                    generated_at=call.generated_at,
                    logical_id=call.logical_id,
                    attempt=attempt_no,
                    deadline=call.deadline,
                    discard=True,
                )
                dup.sent_at = now
                dup.server_id = server_id
                if tracer is not None:
                    tracer.emit(
                        "fault_duplicate", now, logical_id=call.logical_id,
                        request_id=dup.request_id, attempt=attempt_no,
                        server_id=server_id,
                    )
                self._topology.submit_attempt(dup, extra_delay=extra_delay)
        if kind != "hedge" and self._attempt_timeout is not None:
            # Clamp to the remaining deadline budget (mirrors the live
            # client): backoff sleeps erode the budget, and an attempt
            # timer running past the deadline would only extend virtual
            # time after the request has already timed out.
            timeout = effective_attempt_timeout(
                self._config, now=self._engine.now, deadline=call.deadline
            )
            if timeout is not None and timeout > 0.0:
                self._engine.after(
                    timeout, self._on_attempt_timeout, call, attempt_no
                )

    def _on_attempt_complete(self, request: Request) -> None:
        if request.discard:
            return  # injected duplicate: response intentionally ignored
        now = request.response_received_at
        if request.sent_at is not None:
            self._collector.record_attempt(max(now - request.sent_at, 0.0))
        call = self._calls.get(request.logical_id)
        if call is None or call.resolved:
            self._collector.note("late")
            if self._tracer is not None:
                self._tracer.emit(
                    "late", now, logical_id=request.logical_id,
                    request_id=request.request_id, attempt=request.attempt,
                    server_id=request.server_id,
                )
            return
        if request.shed:
            self._collector.note("shed")
            self._retry_or_fail(call, request.attempt, "failed")
            return
        if request.error is not None:
            self._collector.note("errors")
            self._retry_or_fail(call, request.attempt, "failed")
            return
        if call.deadline is not None and now > call.deadline:
            self._resolve(call, "timed_out")
            return
        if self._resolve(call, "succeeded"):
            self._collector.add(request.finish())

    def _on_attempt_timeout(self, call: _Call, attempt_no: int) -> None:
        if call.resolved or attempt_no != call.cur_attempt:
            return
        if self._health is not None and call.last_server is not None:
            # The topology sink never sees a timed-out attempt at its
            # timeout instant; report the failure against the replica
            # (mirrors the live client's timeout feed).
            self._health.record_attempt(
                call.last_server, None, False, self._engine.now
            )
        self._retry_or_fail(call, attempt_no, "timed_out")

    def _retry_or_fail(
        self, call: _Call, attempt_no: int, exhausted_outcome: str
    ) -> None:
        config = self._config
        if call.resolved or attempt_no < call.cur_attempt:
            return
        if call.retry_pending:
            return
        if call.retries < config.max_retries:
            call.retries += 1
            delay = backoff_delay(config, self._rng, call.retries - 1)
            if (
                call.deadline is not None
                and self._engine.now + delay >= call.deadline
            ):
                # The retry could not respond before the deadline; let
                # the deadline event resolve the call instead.
                return
            if self._health is not None and not (
                self._health.try_spend_retry(self._engine.now)
            ):
                # Retry budget exhausted: give the slot back so a later
                # failure may retry once tokens refill, and fail now
                # when no deadline will resolve the call.
                call.retries -= 1
                if call.deadline is None:
                    self._resolve(call, exhausted_outcome)
                return
            call.retry_pending = True
            self._engine.after(delay, self._send_retry, call)
        elif call.deadline is None:
            self._resolve(call, exhausted_outcome)

    def _send_retry(self, call: _Call) -> None:
        if call.resolved:
            return
        call.retry_pending = False
        self._send_attempt(call, kind="retry")

    def _maybe_hedge(self, call: _Call) -> None:
        if call.resolved or call.hedges >= self._config.max_hedges:
            return
        call.hedges += 1
        self._send_attempt(call, kind="hedge")

    def _on_deadline(self, call: _Call) -> None:
        self._resolve(call, "timed_out")

    def _resolve(self, call: _Call, outcome: str) -> bool:
        if call.resolved:
            return False
        call.resolved = True
        self._calls.pop(call.logical_id, None)
        self._collector.note(outcome)
        return True


def simulate_load(profile: AppProfile, config: SimConfig) -> SimResult:
    """Run one open-loop load test in virtual time."""
    network = network_model_for(config.configuration)
    service_model = profile.service_model(
        n_threads=config.n_threads,
        ideal_memory=config.ideal_memory,
        simulated_system=config.simulated_system,
        added_occupancy=network.server_occupancy,
    )
    engine = Engine()
    # A load profile measures everything (the transient response is the
    # experiment); steady-state runs keep the warmup-discard methodology.
    warmup = 0 if config.load_profile is not None else config.warmup_requests
    collector = StatsCollector(warmup_requests=warmup)
    if config.scenario is not None:
        injector: Optional[FaultInjector] = ScenarioInjector(
            config.scenario, seed=config.seed, base=config.faults
        )
    else:
        injector = (
            FaultInjector(config.faults, seed=config.seed)
            if config.faults is not None and not config.faults.is_noop
            else None
        )
    tracer = registry = sampler = None
    if config.observability.tracing:
        # Lazy import: the default (tracing-off) simulator path never
        # touches the obs package.
        from ..obs import MetricsRegistry, MetricsSampler, Tracer

        tracer = Tracer(capacity=config.observability.trace_capacity)
        registry = MetricsRegistry()
    live = None
    if config.observability.slo.enabled:
        # Lazy import, same policy as the tracer: runs without the
        # streaming SLO layer never touch repro.obs.live. Windows
        # anchor at virtual t=0 — the simulator's run start — so
        # boundaries are deterministic and fault onsets alignable.
        from ..obs.live import LiveObs

        live = LiveObs(
            config.observability.slo, tracer=tracer, seed=config.seed
        )
        live.set_origin(0.0)
    plane = None
    if config.control.enabled:
        # Same lazy-import policy: uncontrolled runs never touch the
        # control package.
        from ..control import ControlPlane

        plane = ControlPlane(config.control, seed=config.seed, tracer=tracer)
    batch_policy = None
    if config.batching.enabled:
        # Same lazy-import policy: unbatched runs never touch the
        # batching package (beyond the config dataclass itself).
        from ..batching import BatchPolicy

        batch_policy = BatchPolicy.from_config(config.batching)
    health = None
    if config.health.enabled:
        # Same lazy-import policy: health-off runs never touch the
        # health package (beyond the config dataclass itself).
        from ..health import HealthManager

        health = HealthManager(config.health, tracer=tracer)
    cache = None
    next_cache_key = None
    if config.cache.enabled:
        # Same lazy-import policy: cache-off runs never touch the cache
        # package (beyond the config dataclass itself).
        from ..cache import build_cache
        from ..stats import ZipfianGenerator

        cache = build_cache(config.cache, tracer=tracer)
        # The synthetic key stream gets its own RNG, constructed only
        # here: a cache-off run draws nothing extra anywhere, so its
        # arrival schedule and per-server service streams — hence its
        # fingerprint — are untouched by this subsystem existing.
        key_rng = random.Random(config.seed ^ 0xCAC4ED)
        key_zipf = ZipfianGenerator(
            config.cache.sim_keyspace, theta=config.cache.sim_theta
        )

        def next_cache_key() -> int:
            return key_zipf.sample(key_rng)

    def make_server(server_id: int) -> SimulatedServer:
        # Server 0 keeps the pre-topology stream seed so n_servers=1
        # reproduces the original single-server simulator bit-for-bit;
        # replicas (including runtime scale-ups) draw from
        # independently seeded streams, so controlled runs stay
        # deterministic no matter when a replica joins.
        rng = random.Random((config.seed ^ 0x5EED) + 1_000_003 * server_id)
        scoped = (
            injector.for_server(server_id) if injector is not None else None
        )
        server = SimulatedServer(
            engine,
            service_model,
            network,
            config.n_threads,
            collector,
            rng,
            injector=scoped,
            queue_capacity=config.queue_capacity,
            server_id=server_id,
            tracer=tracer,
            gate=plane.gate_for(server_id) if plane is not None else None,
            buffer=plane.make_buffer() if plane is not None else None,
            batching=batch_policy,
            batch_marginal_cost=config.batching.sim_marginal_cost,
            live=live,
            cache=cache,
        )
        server.started_at = engine.now
        return server

    servers: List[SimulatedServer] = [
        make_server(server_id) for server_id in range(config.n_servers)
    ]
    topology = _Topology(
        servers,
        make_balancer(config.balancer, seed=config.seed),
        engine=engine,
        server_factory=make_server if plane is not None else None,
        plane=plane,
        health=health,
    )
    if injector is not None:
        injector.start_run(0.0)
        if registry is not None:
            injector.register_metrics(registry)
    if isinstance(injector, ScenarioInjector):
        # Phase boundaries become ordinary engine events — single
        # threaded playback, bit-identical per seed (the live harness
        # uses a driver thread at the same offsets).
        for offset in injector.scenario.boundaries():
            engine.at(offset, injector.advance_to, offset)
    if health is not None and registry is not None:
        health.register_metrics(registry)
    if live is not None and registry is not None:
        live.register_metrics(registry)
    if cache is not None and registry is not None:
        cache.register_metrics(registry)
    if config.load_profile is not None:
        schedule = ArrivalSchedule.piecewise(
            config.load_profile,
            seed=config.seed,
            deterministic=config.deterministic_arrivals,
        )
        profile_time = sum(d for d, _ in config.load_profile)
        offered_qps = len(schedule) / profile_time
    else:
        process = (
            DeterministicArrivals(config.qps)
            if config.deterministic_arrivals
            else PoissonArrivals(config.qps)
        )
        schedule = ArrivalSchedule.generate(
            process, config.total_requests, seed=config.seed
        )
        offered_qps = config.qps
    n_offered = len(schedule)
    if registry is not None:
        # Same gauge families the live transport registers, read lazily
        # from existing counters — sampling is a recurring virtual-time
        # event, not a thread, bounded by the arrival horizon so the
        # event heap still drains.
        def register_server_gauges(server: SimulatedServer) -> None:
            labels = {"server": str(server.server_id)}
            registry.gauge(
                "tb_queue_depth", help="Requests waiting in the queue",
                fn=(lambda s=server: s.queue_len), **labels,
            )
            registry.gauge(
                "tb_busy_workers", help="Workers currently serving",
                fn=(lambda s=server: s.busy_workers), **labels,
            )
            registry.gauge(
                "tb_alive_workers", help="Workers still alive",
                fn=(lambda s=server: s.workers_alive), **labels,
            )
            registry.gauge(
                "tb_completed_total", help="Responses produced",
                fn=(lambda s=server: s.completed), **labels,
            )
            registry.gauge(
                "tb_shed_total", help="Requests shed by admission control",
                fn=(lambda s=server: s.shed_count), **labels,
            )
            registry.gauge(
                "tb_outstanding", help="Attempts routed and not yet answered",
                fn=(
                    lambda t=topology, i=server.server_id: t.depths()[i]
                ),
                **labels,
            )

        for server in servers:
            register_server_gauges(server)
        topology.on_server_added = register_server_gauges
        registry.gauge(
            "tb_inflight", help="Attempts in flight across all servers",
            fn=(lambda t=topology: sum(t.depths())),
        )
        sampler = MetricsSampler(
            registry, engine.clock,
            interval=config.observability.metrics_interval,
        )
        horizon = schedule.times[-1]
        interval = config.observability.metrics_interval

        def tick() -> None:
            sampler.sample()
            if engine.now + interval <= horizon:
                engine.after(interval, tick)

        engine.at(0.0, tick)
    if plane is not None:
        plane.bind(_SimControlTarget(topology, plane))
        plane.register_metrics(registry)
        control_horizon = schedule.times[-1]
        tick_interval = config.control.tick_interval

        def control_tick() -> None:
            plane.tick(engine.now)
            if engine.now + tick_interval <= control_horizon:
                engine.after(tick_interval, control_tick)

        # First tick one interval in — at t=0 there is nothing to
        # observe; bounded by the arrival horizon so the heap drains.
        engine.at(tick_interval, control_tick)
    client: Optional[_SimClient] = None
    fanout_gatherer = None
    if injector is not None or config.resilience.enabled or health is not None:
        client = _SimClient(
            engine, topology, config.resilience, collector, injector,
            seed=config.seed, tracer=tracer, health=health,
        )
        engine.at_each(schedule.times, client.begin)
    elif config.fanout.enabled:
        # Scatter-gather: every arrival's sub-requests are pushed at
        # build time — one pinned sub-request per shard, no balancer
        # draws, no routing events on the heap. At K=1 the
        # sub-request schedule, request construction order, and
        # per-server RNG streams coincide with the direct path's, so
        # an enabled fan-out of 1 replays the unsharded simulator
        # bit-for-bit; the gather callback merely renames the
        # completion path (the critical shard of a 1-wide gather is
        # the request itself).
        from ..core.fanout import FanoutGatherer

        fanout_gatherer = FanoutGatherer(
            config.fanout.shards, collector, merge=None,
            warmup=warmup, tracer=tracer,
        )
        topology.set_response_callback(fanout_gatherer.on_complete)
        for generated_at in schedule:
            gather_id, pairs = fanout_gatherer.open_gather()
            for logical_id, shard in pairs:
                if tracer is not None:
                    tracer.emit(
                        "fanout_send", generated_at,
                        logical_id=logical_id, server_id=shard,
                        value=float(gather_id),
                    )
                request = Request(payload=None, generated_at=generated_at)
                request.logical_id = logical_id
                request.sent_at = generated_at
                request.server_id = shard
                topology.submit_attempt(request)
    elif config.n_servers == 1 and plane is None:
        # Direct path: each arrival event is the server-side arrival
        # itself (no routing event), so the single-server event stream
        # is the original one. With
        # the cache on, each arrival carries a key from the dedicated
        # Zipf stream; off, payload stays None and nothing is drawn.
        servers[0].submit_schedule(schedule.times, next_cache_key)
        topology.routed[0] = len(schedule)
    else:

        def record(request: Request) -> None:
            if (
                request.error is None
                and not request.shed
                and not request.discard
            ):
                collector.add(request.finish())

        topology.set_response_callback(record)

        def begin(generated_at: float) -> None:
            # Keys draw at the arrival event in schedule order — the
            # same deterministic sequence the direct path assigns.
            payload = (
                next_cache_key() if next_cache_key is not None else None
            )
            request = Request(payload=payload, generated_at=generated_at)
            request.sent_at = generated_at
            topology.submit_attempt(request)

        # The routing decision runs *at* the arrival instant, when the
        # depth vector reflects the simulated present — not at schedule
        # build time, when every queue is empty.
        engine.at_each(schedule.times, begin)
    engine.run()
    if client is not None:
        client.finalize()
    elapsed = engine.now
    obs = None
    if tracer is not None:
        from ..obs import ObsResult, prometheus_text

        sampler.sample()  # final sample at the run's last instant
        obs = ObsResult(
            events=tracer.events(),
            dropped=tracer.dropped,
            series=sampler.series,
            snapshot=registry.snapshot(),
            prom=prometheus_text(registry),
            live=live.finish(elapsed) if live is not None else None,
        )
    stats = collector.snapshot()
    outcomes = collector.outcome_counts()
    if not collector.outcomes_used:
        outcomes["offered"] = n_offered
        # Under fan-out each logical arrival costs `shards` attempts
        # (the scatter amplification); at K=1 this reduces to the
        # unsharded tally, keeping the fingerprint bit-identical.
        outcomes["attempts"] = n_offered * (
            config.fanout.shards if config.fanout.enabled else 1
        )
        outcomes["succeeded"] = stats.count + stats.dropped_warmup
        outcomes["shed"] = sum(server.shed_count for server in servers)
    goodput = outcomes.get("succeeded", 0) / elapsed if elapsed > 0 else 0.0
    total_busy = sum(server.busy_time for server in servers)
    # Capacity integrates each replica's *active window* — for a static
    # topology every window equals the whole run and this reduces to
    # elapsed * n_threads * n_servers; under autoscaling it charges a
    # late-joining or early-drained replica only for its tenure.
    server_activity = tuple(
        (
            server.server_id,
            server.good_completed,
            max(
                (
                    server.drained_at
                    if server.drained_at is not None
                    else elapsed
                )
                - server.started_at,
                0.0,
            ),
        )
        for server in servers
    )
    capacity = sum(
        active * config.n_threads for _, _, active in server_activity
    )
    return SimResult(
        profile_name=profile.name,
        config=config,
        stats=stats,
        offered_qps=offered_qps,
        utilization=total_busy / capacity if capacity > 0 else 0.0,
        virtual_time=elapsed,
        outcomes=outcomes,
        goodput_qps=goodput,
        fault_counts=injector.counts() if injector is not None else {},
        alive_workers=tuple(server.workers_alive for server in servers),
        routed_counts=tuple(topology.routed),
        obs=obs,
        control_counts=plane.counts() if plane is not None else {},
        health_counts=health.counts() if health is not None else {},
        fanout=(
            fanout_gatherer.stats if fanout_gatherer is not None else None
        ),
        server_activity=server_activity,
        cache_counts=cache.counts() if cache is not None else {},
    )


def simulate_app(name: str, config: SimConfig) -> SimResult:
    """Simulate a paper application by name with its calibrated profile."""
    return simulate_load(paper_profile(name), config)
