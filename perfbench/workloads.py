"""The benchmark's workloads and one repetition ("rep") of each.

Every workload is open loop with Poisson arrivals and one generator
thread. The benchmark derives every input from the workload seed: the
arrival schedule (``ArrivalSchedule.generate``, the same public call the
harness makes from that seed, so the benchmark can check the harness
followed it) and, for the keyed workload, the Zipf key stream
(``repro.stats.ZipfianGenerator``). The program receives only those
inputs, through ``HarnessConfig.seed`` and the benchmark app's client.

A run is several reps of fixed work; metrics are medians over reps.
"""

from __future__ import annotations

import mmap
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from spans import SpanRecorder, traced

__all__ = ["Workload", "WORKLOADS", "Rep", "run_rep", "reps_for"]

#: Share of each rep's requests discarded as warmup.
WARMUP_SHARE = 0.02
#: Keyed workload: Zipf skew and key-space size. The 128 hottest keys
#: carry ~60% of requests; the LRU-128 cache hits ~46%.
ZIPF_THETA = 0.99
ZIPF_KEYS = 4096
#: Sim workload: simulated requests per second of rep length, sized so
#: one rep takes about as long as a live rep on a 2-vCPU host.
SIM_REQUESTS_PER_REP_SECOND = 12_500
SIM_UTILISATION = 0.7


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "live" or "sim"
    qps: float = 0.0
    mode: str = "threaded"
    n_servers: int = 1
    balancer: str = "round_robin"
    hooks: bool = False


# Why each workload exists, which layers it loads and which it bypasses
# is recorded in BENCHMARK.json at the repository root.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Harness floor. 8k QPS sits at the knee where handoff cost turns
        # into queueing, so a harness gain shows here first.
        Workload("noop_threaded", "live", qps=8000.0),
        # The only load on core.transport.process: pickled frames over
        # pipes instead of a direct handoff.
        Workload("noop_process", "live", qps=4000.0, mode="process"),
        # Every opt-in hook on (tracing, SLO engine, health, cache).
        Workload(
            "hooks_threaded",
            "live",
            qps=1500.0,
            n_servers=2,
            balancer="jsq",
            hooks=True,
        ),
        # ROADMAP item 2's reference shape; loads only sim.*.
        Workload("sim_masstree_jsq4", "sim", n_servers=4, balancer="jsq"),
    )
}


def reps_for(seconds: float) -> Tuple[int, float]:
    """(number of reps, rep length in seconds) for a ``--seconds`` budget."""
    rep_seconds = min(1.0, seconds / 2.0)
    return max(2, round(seconds / rep_seconds)), rep_seconds


# -- the benchmark app ----------------------------------------------------


def zipf_keys(seed: int, n: int) -> List[int]:
    from repro.stats import ZipfianGenerator

    rng = random.Random(seed ^ 0x5A1F)
    zipf = ZipfianGenerator(ZIPF_KEYS, theta=ZIPF_THETA)
    return [zipf.sample(rng) for _ in range(n)]


def _app_classes():
    from repro.apps.base import Application, Client

    class PayloadClient(Client):
        """Hands the harness the benchmark's pre-generated payloads."""

        def __init__(self, payloads) -> None:
            self._payloads = iter(payloads)

        def next_request(self):
            return next(self._payloads)

    class BenchApp(Application):
        """No-op app that counts its calls per payload.

        Payload ``i`` (or ``(i, key)`` when keyed) marks slot ``i`` of a
        shared-memory array, so calls made inside a forked replica
        process are counted too.
        """

        name = "bench-noop"

        def __init__(self, n: int, keys: Optional[List[int]] = None) -> None:
            self.n = n
            self.keys = keys
            self.calls = None

        def setup(self) -> None:
            # Anonymous shared memory: survives fork, leaves no file.
            self.calls = memoryview(mmap.mmap(-1, 4 * self.n)).cast("i")

        def process(self, payload):
            index = payload if self.keys is None else payload[0]
            self.calls[index] += 1
            return payload if self.keys is None else payload[1]

        def cache_key(self, payload):
            return None if self.keys is None else payload[1]

        def make_client(self, seed: int = 0):
            if self.keys is None:
                return PayloadClient(range(self.n))
            return PayloadClient(list(enumerate(self.keys)))

    return BenchApp


def _payload_rid(args, kwargs):
    payload = args[1]
    return payload if isinstance(payload, int) else payload[0]


# -- one rep --------------------------------------------------------------


@dataclass
class Rep:
    """Everything one rep observed, as plain data the checks can read."""

    live: bool
    seed: int
    traced: bool
    offered: int
    setup_s: float
    wall_s: float  # the program's own call: run_harness / simulate_app
    cpu_s: float  # RUSAGE_SELF + RUSAGE_CHILDREN over that call
    child_cpu_s: float
    records: list
    warmup_dropped: int
    shed: int
    errors: int
    server_errors: tuple
    routed: tuple
    schedule: list
    anchor: float  # instant of schedule time 0: wall clock live, 0.0 in sim
    achieved_rate: float  # completions (sim: simulated requests) per wall s
    calls: Optional[list] = None  # app.process calls per payload (live)
    cache_hits: int = 0
    cache_misses: int = 0
    trace_events: int = 0
    trace_dropped: int = 0
    health_ejections: int = 0
    utilisation: float = 0.0
    digest: Optional[tuple] = None  # sim only
    steal_pct: float = 0.0  # host steal over the rep, set by the runner
    spans: Optional[SpanRecorder] = None

    @property
    def completions(self) -> int:
        return len(self.records) + self.warmup_dropped


def _cpu() -> Tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _schedule(qps: float, n: int, seed: int) -> List[float]:
    from repro.core.traffic import ArrivalSchedule, PoissonArrivals

    return ArrivalSchedule.generate(PoissonArrivals(qps), n, seed=seed).times


def run_rep(
    workload: Workload, seed: int, rep_seconds: float, trace: bool
) -> Rep:
    if workload.kind == "sim":
        return _run_sim(workload, seed, rep_seconds, trace)
    return _run_live(workload, seed, rep_seconds, trace)


def _run_live(w: Workload, seed: int, rep_seconds: float, trace: bool) -> Rep:
    from repro import HarnessConfig, run_harness
    from repro.core.clock import WallClock
    from repro.core.config import (
        CacheConfig,
        ExecutionConfig,
        ObservabilityConfig,
        SloConfig,
    )
    from repro.health import HealthConfig

    class OfferClock(WallClock):
        """Wall clock that notes the shaper's first deadline.

        The shaper's first ``sleep_until`` is for request 0, due the
        instant it starts: that is when the first request is offered.
        """

        first_offer: Optional[float] = None

        def sleep_until(self, deadline: float) -> None:
            if self.first_offer is None:
                self.first_offer = deadline
            super().sleep_until(deadline)

    rep_start = time.perf_counter()
    total = max(50, int(w.qps * rep_seconds))
    warmup = int(total * WARMUP_SHARE)
    BenchApp = _app_classes()
    app = BenchApp(total, zipf_keys(seed, total) if w.hooks else None)
    app.setup()
    hooks = {}
    if w.hooks:
        hooks = dict(
            # Sized so the ring never evicts (checked after the run).
            observability=ObservabilityConfig(
                tracing=True,
                trace_capacity=32 * total,
                slo=SloConfig(enabled=True),
            ),
            health=HealthConfig(enabled=True),
            cache=CacheConfig(
                enabled=True, policy="lru", capacity=128, hit_cost=0.0
            ),
        )
    config = HarnessConfig(
        qps=w.qps,
        n_threads=1,
        warmup_requests=warmup,
        measure_requests=total - warmup,
        seed=seed,
        n_servers=w.n_servers,
        balancer=w.balancer,
        execution=ExecutionConfig(mode=w.mode),
        **hooks,
    )
    clock = OfferClock()
    recorder = SpanRecorder() if trace else None
    cpu0 = _cpu()
    if recorder is not None:
        app_target = ("app.process", BenchApp, "process", _payload_rid)
        with traced(recorder, extra=[app_target]):
            result = run_harness(app, config, clock=clock)
    else:
        result = run_harness(app, config, clock=clock)
    cpu1 = _cpu()
    stats = result.stats
    outcomes = result.outcomes
    obs = result.obs
    schedule = _schedule(w.qps, total, seed)
    return Rep(
        live=True,
        seed=seed,
        traced=trace,
        offered=outcomes["offered"],
        setup_s=clock.first_offer - rep_start,
        wall_s=result.wall_time,
        cpu_s=(cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1]),
        child_cpu_s=cpu1[1] - cpu0[1],
        records=list(stats.records),
        warmup_dropped=stats.dropped_warmup,
        shed=outcomes.get("shed", 0),
        errors=outcomes.get("errors", 0),
        server_errors=result.server_errors,
        routed=result.routed_counts,
        schedule=schedule,
        anchor=clock.first_offer - schedule[0],
        achieved_rate=result.achieved_qps,
        calls=list(app.calls),
        cache_hits=result.cache_counts.get("hits", 0),
        cache_misses=result.cache_counts.get("misses", 0),
        trace_events=len(obs.events) if obs is not None else 0,
        trace_dropped=obs.dropped if obs is not None else 0,
        health_ejections=result.health_counts.get("ejections", 0),
        spans=recorder,
    )


def _run_sim(w: Workload, seed: int, rep_seconds: float, trace: bool) -> Rep:
    from repro.sim import SimConfig, paper_profile, simulate_app

    rep_start = time.perf_counter()
    profile = paper_profile("masstree")
    total = int(SIM_REQUESTS_PER_REP_SECOND * rep_seconds)
    warmup = int(total * WARMUP_SHARE)
    qps = SIM_UTILISATION * w.n_servers / profile.service.mean
    config = SimConfig(
        qps=qps,
        warmup_requests=warmup,
        measure_requests=total - warmup,
        seed=seed,
        n_servers=w.n_servers,
        balancer=w.balancer,
    )
    schedule = _schedule(qps, total, seed)
    setup_s = time.perf_counter() - rep_start
    recorder = SpanRecorder() if trace else None
    cpu0 = _cpu()
    t0 = time.perf_counter()
    if recorder is not None:
        with traced(recorder):
            result = simulate_app("masstree", config)
    else:
        result = simulate_app("masstree", config)
    wall = time.perf_counter() - t0
    cpu1 = _cpu()
    stats = result.stats
    outcomes = result.outcomes
    sojourn = result.sojourn
    digest = (
        tuple(sorted(sojourn.percentiles.items())),
        sojourn.mean,
        result.utilization,
        tuple(sorted(outcomes.items())),
        tuple(result.routed_counts),
    )
    return Rep(
        live=False,
        seed=seed,
        traced=trace,
        offered=outcomes["offered"],
        setup_s=setup_s,
        wall_s=wall,
        cpu_s=(cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1]),
        child_cpu_s=cpu1[1] - cpu0[1],
        records=list(stats.records),
        warmup_dropped=stats.dropped_warmup,
        shed=outcomes.get("shed", 0),
        errors=outcomes.get("errors", 0),
        server_errors=(),
        routed=result.routed_counts,
        schedule=schedule,
        anchor=0.0,
        achieved_rate=total / wall,
        utilisation=result.utilization,
        digest=digest,
        spans=recorder,
    )


def stages(record) -> Tuple[float, float, float, float, float]:
    """Send lag, request hop, queue wait, service, return hop (seconds)."""
    return (
        record.send_delay,
        record.enqueued_at - record.sent_at,
        record.queue_time,
        record.service_time,
        record.response_received_at - record.service_end_at,
    )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an unsorted sequence."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
