"""Repo benchmark: harness floor, process hop, hook cost, sim throughput.

Run from the repository root::

    python3 perfbench/run.py --workload noop_threaded --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs untraced reps and reports the end-to-end metrics;
``--trace 1`` runs each rep seed untraced and then traced (public entry
points of every layer wrapped by :mod:`spans`) and reports the
per-layer metrics. ``--workload all`` runs every workload in turn.
Every rep is checked (:mod:`checks`); a failed check exits 1. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Spans and a full
result file are written under ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

from checks import CheckFailed, check_digests, check_keeps_up, check_rep
from hostenv import CpuTimes, environment
from workloads import (
    SIM_UTILISATION,
    WORKLOADS,
    median,
    percentile,
    reps_for,
    run_rep,
    stages,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of the end-to-end metrics, reported from untraced reps.
END_TO_END = (
    ("cpu_us_per_request", "us"),
    ("sim_requests_per_s", "1/s"),
    ("setup_s", "s"),
)

#: Latency of the untraced reps: printed by every run and reported with
#: the per-layer metrics, but not gated. On a shared 2-vCPU VM the live
#: p50 of ten runs spread by 22-36% of its median (host steal), more
#: than any regression bound the benchmark may set.
LATENCY = (
    ("sojourn_p50_us", "us"),
    ("sojourn_p99_us", "us"),
)

#: (name, unit) of the per-layer metrics, reported from traced reps.
#: A layer the workload bypasses reads 0.
PER_LAYER = LATENCY + (
    ("traffic.send_lag_p50_us", "us"),
    ("traffic.send_lag_p99_us", "us"),
    ("transport.request_hop_p50_us", "us"),
    ("transport.return_hop_p50_us", "us"),
    ("transport.send_us", "us"),
    ("transport.child_cpu_us_per_request", "us"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("server.service_p50_us", "us"),
    ("app.process_us", "us"),
    ("split.send_lag_us", "us"),
    ("split.request_hop_us", "us"),
    ("split.queue_wait_us", "us"),
    ("split.service_us", "us"),
    ("split.return_hop_us", "us"),
    ("collector.adds", "count"),
    ("collector.add_us", "us"),
    ("balancer.picks", "count"),
    ("balancer.pick_us", "us"),
    ("balancer.max_share", "ratio"),
    ("trace.events_per_request", "count"),
    ("trace.dropped", "count"),
    ("trace.record_us", "us"),
    ("trace.emit_us", "us"),
    ("slo.observe_us", "us"),
    ("slo.observe_sent_us", "us"),
    ("health.route_us", "us"),
    ("health.record_us", "us"),
    ("health.ejections", "count"),
    ("cache.hit_share", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.store_us", "us"),
    ("engine.events_per_request", "count"),
    ("engine.events_per_s", "1/s"),
    ("sim_server.submit_us", "us"),
    ("bench.shim_overhead_pct", "%"),
    ("host.steal_pct", "%"),
)


def _import_program():
    """Load ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program: {exc}")
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro loaded from {origin}, not {src}")


# -- metrics -------------------------------------------------------------


def _us(seconds: float) -> float:
    return seconds * 1e6


def end_to_end(reps) -> dict:
    return {
        "cpu_us_per_request": median(_us(r.cpu_s / r.offered) for r in reps),
        "sim_requests_per_s": median(r.achieved_rate for r in reps),
        "setup_s": median(r.setup_s for r in reps),
    }


def latency(reps) -> dict:
    return {
        f"sojourn_p{q}_us": median(
            _us(percentile([x.sojourn_time for x in r.records], q))
            for r in reps
        )
        for q in (50, 99)
    }


def _median_split(records):
    """Mean stage split of the requests whose sojourn is near the median.

    Averaging the five stages over the 45th-55th percentile band gives
    parts that sum exactly to that band's mean sojourn, i.e. a split
    of ``sojourn_p50_us`` between send lag, hops, queue wait and service.
    """
    ordered = sorted(records, key=lambda r: r.sojourn_time)
    band = ordered[int(0.45 * len(ordered)):int(0.55 * len(ordered)) + 1]
    sums = [0.0] * 5
    for record in band:
        for i, value in enumerate(stages(record)):
            sums[i] += value
    return [_us(s / len(band)) for s in sums]


def per_layer(pairs, steal_pct: float) -> dict:
    traced = [t for _, t in pairs]

    def stage_pct(stage, q):
        """Percentile ``q`` of one of the five :func:`stages`, median of reps."""
        return median(
            _us(percentile([stages(x)[stage] for x in r.records], q))
            for r in traced
        )

    spans = {}
    for rep in traced:
        for name, group in rep.spans.by_name().items():
            spans.setdefault(name, []).extend(group)

    def mean_us(name, self_time=False):
        group = spans.get(name, ())
        if not group:
            return 0.0
        total = sum(s[4] if self_time else s[2] - s[1] for s in group)
        return total / 1e3 / len(group)

    def calls_per_rep(name):
        return len(spans.get(name, ())) / len(traced)

    splits = [_median_split(r.records) for r in traced]
    keyed = sum(r.cache_hits + r.cache_misses for r in traced)
    engine = spans.get("engine.run", ())
    engine_events = sum(s[5] for s in engine)
    engine_ns = sum(s[2] - s[1] for s in engine)
    offered = sum(r.offered for r in traced)
    if traced[0].live:
        cost = [(t.cpu_s / t.offered) / (u.cpu_s / u.offered) for u, t in pairs]
    else:
        cost = [t.wall_s / u.wall_s for u, t in pairs]
    return {
        **latency([u for u, _ in pairs]),
        "traffic.send_lag_p50_us": stage_pct(0, 50),
        "traffic.send_lag_p99_us": stage_pct(0, 99),
        "transport.request_hop_p50_us": stage_pct(1, 50),
        "transport.return_hop_p50_us": stage_pct(4, 50),
        "transport.send_us": mean_us("transport.send", self_time=True),
        "transport.child_cpu_us_per_request": median(
            _us(r.child_cpu_s / r.offered) for r in traced
        ),
        "queue.wait_p50_us": stage_pct(2, 50),
        "queue.wait_p99_us": stage_pct(2, 99),
        "server.service_p50_us": stage_pct(3, 50),
        "app.process_us": mean_us("app.process"),
        "split.send_lag_us": median(s[0] for s in splits),
        "split.request_hop_us": median(s[1] for s in splits),
        "split.queue_wait_us": median(s[2] for s in splits),
        "split.service_us": median(s[3] for s in splits),
        "split.return_hop_us": median(s[4] for s in splits),
        "collector.adds": calls_per_rep("collector.add"),
        "collector.add_us": mean_us("collector.add", self_time=True),
        "balancer.picks": calls_per_rep("balancer.pick"),
        "balancer.pick_us": mean_us("balancer.pick", self_time=True),
        "balancer.max_share": median(max(r.routed) / r.offered for r in traced),
        "trace.events_per_request": sum(r.trace_events for r in traced)
        / offered,
        "trace.dropped": sum(r.trace_dropped for r in traced),
        "trace.record_us": mean_us("trace.record"),
        "trace.emit_us": mean_us("trace.emit", self_time=True),
        "slo.observe_us": mean_us("slo.observe"),
        "slo.observe_sent_us": mean_us("slo.observe_sent"),
        "health.route_us": mean_us("health.route"),
        "health.record_us": mean_us("health.record"),
        "health.ejections": sum(r.health_ejections for r in traced),
        "cache.hit_share": (
            sum(r.cache_hits for r in traced) / keyed if keyed else 0.0
        ),
        "cache.lookup_us": mean_us("cache.lookup"),
        "cache.store_us": mean_us("cache.store"),
        "engine.events_per_request": engine_events / offered,
        "engine.events_per_s": (
            engine_events / (engine_ns / 1e9) if engine_ns else 0.0
        ),
        "sim_server.submit_us": mean_us("sim_server.submit"),
        "bench.shim_overhead_pct": 100.0 * (median(cost) - 1.0),
        "host.steal_pct": steal_pct,
    }


# -- running a workload ---------------------------------------------------


def pin_to_one_cpu() -> int:
    """Pin this process, and so every thread and replica it starts, to one CPU.

    In the integrated configuration harness CPU is taken from the app
    under test, and one CPU makes that literal. On a shared 2-vCPU VM it
    also keeps cross-CPU wakeups and steal on the second vCPU out of the
    figures: unpinned, the process-mode hop swung the sojourn p50 from
    340 to 1,050 us as host steal rose to 16%; pinned, it stayed within
    320-420 us.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(workload_name: str, seed: int, seconds: float, trace: bool, out: Path):
    workload = WORKLOADS[workload_name]
    pinned_cpu = pin_to_one_cpu()
    n_reps, rep_seconds = reps_for(seconds)
    target = SIM_UTILISATION if workload.kind == "sim" else None
    if trace:
        n_reps = max(2, (n_reps + 1) // 2)  # each rep seed runs twice
    cpu_start = CpuTimes(pinned_cpu)
    reps, pairs = [], []
    failure = None
    try:
        for i in range(n_reps):
            rep_seed = seed * 1000 + i
            for traced_rep in (False, True) if trace else (False,):
                # Earlier reps' records stay alive until the run ends;
                # freezing them keeps the collector from rescanning them,
                # so every rep starts from the same garbage-collector state.
                gc.collect()
                gc.freeze()
                before = CpuTimes(pinned_cpu)
                rep = run_rep(workload, rep_seed, rep_seconds, trace=traced_rep)
                rep.steal_pct = CpuTimes(pinned_cpu).steal_pct_since(before)
                reps.append(rep)
                check_rep(rep, target)
            if trace:
                pairs.append((reps[-2], reps[-1]))
        check_keeps_up(reps)
        if trace and workload.kind == "sim":
            check_digests(pairs)
    except CheckFailed as exc:
        failure = exc
    finally:
        for child in multiprocessing.active_children():
            child.join()
    env = environment(ROOT, cpu_start, CpuTimes(pinned_cpu))
    env["pinned_cpu"] = pinned_cpu
    attempted = sum(r.offered for r in reps) or 1
    failed = sum(r.offered - r.completions for r in reps)
    if failure is not None:
        print(f"perfbench: CHECK FAILED {failure}", file=sys.stderr)
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}, env, reps, {}
    if trace:
        values, units = per_layer(pairs, env["host.steal_pct"]), PER_LAYER
        reported = {}
    else:
        values, units = end_to_end(reps), END_TO_END
        reported = _with_units(latency(reps), LATENCY)
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": _with_units(values, units)}
    _write(out, workload_name, seed, trace, dict(result, reported=reported),
           env, reps)
    return result, env, reps, reported


def _with_units(values: dict, units) -> dict:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units
    }


def _write(out: Path, workload: str, seed: int, trace: bool, result, env, reps):
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    traced = [r for r in reps if r.spans is not None]
    layers = {f"rep{i}": r.spans.layer_table() for i, r in enumerate(traced)}
    if traced:  # raw spans of one rep; every rep's layer table is kept
        traced[-1].spans.write(out / f"{stem}.spans.csv")
    doc = dict(result, workload=workload, seed=seed, trace=trace,
               environment=env, layers=layers,
               reps=[{"seed": r.seed, "traced": r.traced, "offered": r.offered,
                      "setup_s": r.setup_s, "wall_s": r.wall_s,
                      "cpu_s": r.cpu_s, "steal_pct": r.steal_pct,
                      "sojourn_p50_us": _us(median(
                          x.sojourn_time for x in r.records))}
                     for r in reps])
    (out / f"{stem}.json").write_text(json.dumps(doc, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all'"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)} or all")
    results = {}
    for name in names:
        started = time.perf_counter()
        result, env, reps, reported = run(
            name, args.seed, args.seconds, bool(args.trace), args.out
        )
        results[name] = result
        print(f"workload {name} seed {args.seed} trace {args.trace}: "
              f"{len(reps)} reps in {time.perf_counter() - started:.1f}s")
        print(f"  requests_offered = {result['attempted']} count")
        print(f"  requests_failed = {result['failed']} count")
        for metric, value in result["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
        for metric, value in reported.items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}"
                  "  (reported, not gated)")
        print("  environment: " + json.dumps(env))
        if not result["correct"]:
            break
    if len(results) == 1:
        summary = result
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
