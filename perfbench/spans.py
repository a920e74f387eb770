"""In-memory span recording around the public entry points of each layer.

The traced run patches the public methods that :func:`_traced_targets`
lists with thin wrappers that record one span per call: layer name,
start, end, the request id when the call carries one, and the span's
self time (its duration minus the time covered by spans nested inside
it on the same thread). Spans stay in memory until
:meth:`SpanRecorder.write` dumps them at the end of the run. The
untraced run never patches anything.
"""

from __future__ import annotations

import csv
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecorder", "traced"]

_now_ns = time.perf_counter_ns


def _arg_rid(index: int, attr: str) -> Callable:
    """Request id from positional argument ``index`` (after self)."""

    def rid(args, kwargs):
        obj = args[index] if len(args) > index else None
        return getattr(obj, attr, None)

    return rid


def _kw_rid(args, kwargs):
    return kwargs.get("request_id")


def _traced_targets() -> List[Tuple[str, type, str, Optional[Callable]]]:
    """(span name, class, method, request-id extractor) for every layer.

    Imported lazily so the untraced path loads nothing extra.
    """
    from repro.cache import RequestCache
    from repro.core.balancer import BALANCERS
    from repro.core.collector import StatsCollector
    from repro.core.transport.base import Transport
    from repro.health import HealthManager
    from repro.obs import Tracer
    from repro.obs.live import LiveObs
    from repro.sim import Engine, SimulatedServer

    targets = [
        ("transport.send", Transport, "send", None),
        ("collector.add", StatsCollector, "add", _arg_rid(1, "request_id")),
        ("trace.record", Tracer, "record_request", _arg_rid(1, "request_id")),
        ("trace.emit", Tracer, "emit", None),
        ("slo.observe", LiveObs, "observe", _arg_rid(1, "request_id")),
        ("slo.observe_sent", LiveObs, "observe_sent", None),
        ("health.route", HealthManager, "route", None),
        ("health.record", HealthManager, "record_attempt", None),
        ("cache.lookup", RequestCache, "lookup", _kw_rid),
        ("cache.store", RequestCache, "store", _kw_rid),
        ("engine.run", Engine, "run", None),
        (
            "sim_server.submit",
            SimulatedServer,
            "submit_request",
            _arg_rid(1, "request_id"),
        ),
    ]
    # Every concrete policy overrides pick(), so each class is patched.
    seen = set()
    for cls in BALANCERS.values():
        if cls not in seen and "pick" in vars(cls):
            seen.add(cls)
            targets.append(("balancer.pick", cls, "pick", None))
    return targets


class SpanRecorder:
    """Thread-safe span sink with per-thread nesting for self time.

    A span is ``(name, start_ns, end_ns, request_id, self_ns, result)``;
    ``result`` keeps the wrapped call's return value only for calls
    whose value the benchmark reads (``Engine.run``'s event count).
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()

    def wrap(
        self,
        name: str,
        fn: Callable,
        rid_of: Optional[Callable] = None,
        keep_result: bool = False,
    ) -> Callable:
        local = self._local
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            start = _now_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now_ns()
                child = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                rid = rid_of(args, kwargs) if rid_of is not None else None
                spans.append(
                    (name, start, end, rid, duration - child,
                     result if keep_result else None)
                )

        return wrapper

    def by_name(self) -> Dict[str, List[tuple]]:
        grouped: Dict[str, List[tuple]] = {}
        for span in self.spans:
            grouped.setdefault(span[0], []).append(span)
        return grouped

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per-layer calls, total and mean inclusive/self time (us)."""
        table = {}
        for name, spans in sorted(self.by_name().items()):
            total = sum(s[2] - s[1] for s in spans)
            self_total = sum(s[4] for s in spans)
            table[name] = {
                "calls": len(spans),
                "total_us": total / 1e3,
                "self_total_us": self_total / 1e3,
                "mean_us": total / 1e3 / len(spans),
                "self_mean_us": self_total / 1e3 / len(spans),
            }
        return table

    def write(self, path) -> None:
        """Dump every span as CSV (times in ns on the perf_counter clock)."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_ns", "end_ns", "request_id", "self_ns"])
            for name, start, end, rid, self_ns, _ in self.spans:
                out.writerow([name, start, end, "" if rid is None else rid,
                              self_ns])


@contextmanager
def traced(recorder: SpanRecorder, extra=()) -> Iterator[SpanRecorder]:
    """Patch every traced entry point for the duration of the block.

    ``extra`` adds ``(name, cls, method, rid_of)`` targets (the
    benchmark app's ``process``). Originals are restored on exit.
    """
    saved = []
    try:
        for name, cls, method, rid_of in list(_traced_targets()) + list(extra):
            original = vars(cls)[method]
            saved.append((cls, method, original))
            setattr(
                cls,
                method,
                recorder.wrap(
                    name, original, rid_of, keep_result=(name == "engine.run")
                ),
            )
        yield recorder
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)
