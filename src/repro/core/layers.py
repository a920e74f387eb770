"""Run wiring and result surface shared by the live harness and the simulator.

:func:`build_layers` turns a :class:`~repro.core.config.RunConfig` into
the run's arrival schedule and the opt-in layers it enables: fault
injector, tracer and metrics registry, streaming SLO engine, control
plane, batch policy, health manager and cache. A layer's package is
imported only when the layer is on, so a run with everything off
imports nothing from ``obs``, ``control``, ``batching``, ``health`` or
``cache``. Substrate steps stay with each runner: transport start and
threads live, engine events in virtual time.

:class:`RunResultMixin` is the matching result surface: the latency
summaries, outcome ratios and ``describe()`` layer sections that
:class:`~repro.core.harness.HarnessResult` and
:class:`~repro.sim.SimResult` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..faults import FaultInjector, ScenarioInjector
from ..stats import LatencySummary
from .collector import StatsCollector
from .config import RunConfig
from .traffic import ArrivalSchedule, DeterministicArrivals, PoissonArrivals

__all__ = ["RunLayers", "RunResultMixin", "build_layers"]


@dataclass
class RunLayers:
    """One run's arrival schedule and opt-in layers (``None`` when off)."""

    config: RunConfig
    #: Leading completions to discard: 0 under a load profile, whose
    #: transient response is the measurement.
    warmup: int
    schedule: ArrivalSchedule
    offered_qps: float
    injector: Optional[FaultInjector] = None
    tracer: Optional[object] = None
    registry: Optional[object] = None
    live: Optional[object] = None
    plane: Optional[object] = None
    batching: Optional[object] = None
    health: Optional[object] = None
    cache: Optional[object] = None

    def register_metrics(self) -> None:
        """Register each enabled layer's metrics; needs a ``registry``."""
        for layer in (self.injector, self.health, self.cache, self.live):
            if layer is not None:
                layer.register_metrics(self.registry)

    def result_fields(
        self,
        collector: StatsCollector,
        sampler,
        run_start: float,
        run_end: float,
        activity: Iterable[Tuple[int, int, float, Optional[float]]],
        **tallies: int,
    ) -> dict:
        """The result fields both substrates fill the same way.

        ``activity`` holds ``(server_id, completions, started_at,
        drained_at)`` per instance. ``tallies`` are the substrate's own
        outcome counts (shed, and errors live), used only when no
        resilient client kept the logical tallies itself.
        """
        config = self.config
        obs = None
        if self.tracer is not None:
            from ..obs import ObsResult, prometheus_text

            obs = ObsResult(
                events=self.tracer.events(),
                dropped=self.tracer.dropped,
                series=sampler.series,
                snapshot=self.registry.snapshot(),
                prom=prometheus_text(self.registry),
                live=(
                    self.live.finish(run_end)
                    if self.live is not None
                    else None
                ),
            )
        stats = collector.snapshot()
        outcomes = collector.outcome_counts()
        if not collector.outcomes_used:
            # No resilient client ran: synthesize the logical tallies
            # from what the servers saw, so reporting is uniform. Under
            # fan-out each logical request costs `shards` attempts —
            # the scatter amplification shows up exactly where retry
            # amplification would.
            offered = len(self.schedule)
            outcomes["offered"] = offered
            outcomes["attempts"] = offered * (
                config.fanout.shards if config.fanout.enabled else 1
            )
            outcomes["succeeded"] = stats.count + stats.dropped_warmup
            outcomes.update(tallies)
        elapsed = run_end - run_start
        return dict(
            stats=stats,
            offered_qps=self.offered_qps,
            outcomes=outcomes,
            goodput_qps=(
                outcomes.get("succeeded", 0) / elapsed if elapsed > 0 else 0.0
            ),
            fault_counts=(
                dict(self.injector.counts())
                if self.injector is not None
                else {}
            ),
            obs=obs,
            control_counts=(
                self.plane.counts() if self.plane is not None else {}
            ),
            health_counts=(
                self.health.counts() if self.health is not None else {}
            ),
            cache_counts=(
                self.cache.counts() if self.cache is not None else {}
            ),
            # The active window runs from an instance joining the
            # replica set (or run start) until it drained (or run end),
            # so per-server rates stay honest under autoscaling churn.
            server_activity=tuple(
                (
                    server_id,
                    completed,
                    max(
                        (drained_at if drained_at is not None else run_end)
                        - max(started_at, run_start),
                        0.0,
                    ),
                )
                for server_id, completed, started_at, drained_at in activity
            ),
        )


def build_layers(config: RunConfig) -> RunLayers:
    """Build the arrival schedule and every layer ``config`` enables."""
    if config.load_profile is not None:
        schedule = ArrivalSchedule.piecewise(
            config.load_profile,
            seed=config.seed,
            deterministic=config.deterministic_arrivals,
        )
        profile_time = sum(d for d, _ in config.load_profile)
        warmup, offered_qps = 0, len(schedule) / profile_time
    else:
        process = (
            DeterministicArrivals(config.qps)
            if config.deterministic_arrivals
            else PoissonArrivals(config.qps)
        )
        schedule = ArrivalSchedule.generate(
            process, config.total_requests, seed=config.seed
        )
        warmup, offered_qps = config.warmup_requests, config.qps
    layers = RunLayers(
        config=config,
        warmup=warmup,
        schedule=schedule,
        offered_qps=offered_qps,
    )
    if config.scenario is not None:
        layers.injector = ScenarioInjector(
            config.scenario, seed=config.seed, base=config.faults
        )
    elif config.faults is not None and not config.faults.is_noop:
        layers.injector = FaultInjector(config.faults, seed=config.seed)
    if config.observability.tracing:
        from ..obs import MetricsRegistry, Tracer

        layers.tracer = Tracer(capacity=config.observability.trace_capacity)
        layers.registry = MetricsRegistry()
    tracer = layers.tracer
    if config.observability.slo.enabled:
        # Config validation guarantees tracing is on here.
        from ..obs.live import LiveObs

        layers.live = LiveObs(
            config.observability.slo, tracer=tracer, seed=config.seed
        )
    if config.control.enabled:
        from ..control import ControlPlane

        layers.plane = ControlPlane(
            config.control, seed=config.seed, tracer=tracer
        )
    if config.batching.enabled:
        from ..batching import BatchPolicy

        layers.batching = BatchPolicy.from_config(config.batching)
    if config.health.enabled:
        from ..health import HealthManager

        layers.health = HealthManager(config.health, tracer=tracer)
    if config.cache.enabled:
        from ..cache import build_cache

        layers.cache = build_cache(config.cache, tracer=tracer)
    return layers


class RunResultMixin:
    """Methods shared by ``HarnessResult`` and ``SimResult``.

    A plain mixin rather than a dataclass base: each result class
    declares its own fields, some without defaults, in its own order.
    """

    def per_server_qps(self) -> Dict[int, float]:
        """Completions per second of *active window*, per instance."""
        return {
            server_id: (completed / active if active > 0 else 0.0)
            for server_id, completed, active in self.server_activity
        }

    @property
    def sojourn(self) -> LatencySummary:
        return self.stats.summary("sojourn")

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

    def per_server(self, metric: str = "sojourn") -> Dict[int, LatencySummary]:
        """Per-instance latency summaries (see CollectedStats.per_server)."""
        return self.stats.per_server(metric)

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

    def _layer_lines(self) -> List[str]:
        """``describe()`` sections after the per-class header lines."""
        lines = []
        if self.config.n_servers > 1:
            lines.append(
                f"topology: {self.config.n_servers} servers "
                f"balancer={self.config.balancer} "
                f"routed={list(self.routed_counts)} "
                f"alive_workers={list(self.alive_workers)}"
            )
            for server_id, summary in sorted(self.per_server().items()):
                lines.append(f"  server[{server_id}]: {summary.describe()}")
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
        if self.cache_counts:
            cc = self.cache_counts
            keyed = cc.get("hits", 0) + cc.get("misses", 0)
            rate = cc.get("hits", 0) / keyed if keyed else 0.0
            lines.append(
                f"cache: hit_rate={rate:.1%} hits={cc.get('hits', 0)} "
                f"misses={cc.get('misses', 0)} "
                f"expirations={cc.get('expirations', 0)} "
                f"evictions={cc.get('evictions', 0)}"
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
        return lines
