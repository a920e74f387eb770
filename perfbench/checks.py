"""Output checks run on every rep; any failure fails the run loudly."""

from __future__ import annotations

import bisect
from typing import List, Optional

from workloads import stages

__all__ = ["CheckFailed", "check_rep", "check_keeps_up", "check_digests"]

#: Live runs must complete this share of the rate their schedule offered.
MIN_ACHIEVED_SHARE = 0.98
#: Tolerance for float timestamp arithmetic (seconds).
TIME_TOL = 1e-9
#: Simulated utilisation must land this close to the configured target.
UTILISATION_TOL = 0.05


class CheckFailed(AssertionError):
    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check


def check_conservation(rep) -> None:
    """offered = measured + warmup-discarded + shed + errors, nothing lost."""
    accounted = len(rep.records) + rep.warmup_dropped + rep.shed + rep.errors
    if accounted != rep.offered:
        raise CheckFailed(
            "conservation",
            f"offered {rep.offered} != measured {len(rep.records)} + "
            f"warmup {rep.warmup_dropped} + shed {rep.shed} + "
            f"errors {rep.errors}",
        )
    if rep.offered != len(rep.schedule):
        raise CheckFailed(
            "conservation",
            f"offered {rep.offered} != scheduled {len(rep.schedule)}",
        )
    if sum(rep.routed) != rep.offered:
        raise CheckFailed(
            "conservation",
            f"routed {list(rep.routed)} does not sum to {rep.offered}",
        )
    if rep.server_errors:
        raise CheckFailed(
            "conservation", f"server errors: {rep.server_errors[0][:200]}"
        )
    if rep.shed or rep.errors:
        raise CheckFailed(
            "conservation", f"shed {rep.shed} errors {rep.errors} (expected 0)"
        )


def check_keeps_up(reps) -> None:
    """Live runs complete at least 0.98 of the rate their schedules offered.

    Checked over the whole run: a single host stall at the end of a
    one-second rep would otherwise read as a harness that fell behind.
    """
    live = [r for r in reps if r.live]
    if not live:
        return
    span = sum(r.schedule[-1] - r.schedule[0] for r in live)
    scheduled = sum(len(r.schedule) - 1 for r in live) / span
    achieved = sum(r.completions for r in live) / sum(r.wall_s for r in live)
    if achieved < MIN_ACHIEVED_SHARE * scheduled:
        raise CheckFailed(
            "keeps_up",
            f"achieved {achieved:.1f}/s < {MIN_ACHIEVED_SHARE} x "
            f"scheduled {scheduled:.1f}/s",
        )


def check_components(rep) -> None:
    """Per-record stages are non-negative and sum to the sojourn."""
    for r in rep.records:
        parts = stages(r)
        total = sum(parts)
        if min(parts) < -TIME_TOL or not abs(total - r.sojourn_time) <= TIME_TOL:
            raise CheckFailed(
                "components",
                f"request {r.request_id}: stages {parts} sum to {total!r}, "
                f"sojourn {r.sojourn_time!r}",
            )


def check_schedule(rep) -> None:
    """Every measured request was generated at one of its scheduled instants."""
    times = rep.schedule
    for r in rep.records:
        offset = r.generated_at - rep.anchor
        i = bisect.bisect_left(times, offset - 1e-7)
        if i >= len(times) or abs(times[i] - offset) > 1e-7:
            raise CheckFailed(
                "schedule",
                f"request {r.request_id} generated at offset {offset!r}, "
                "not a scheduled instant",
            )


def check_app_calls(rep) -> None:
    """The app's process count matches completions (hits skip the app)."""
    if rep.calls is None:
        return
    expected = rep.completions - rep.cache_hits
    total = sum(rep.calls)
    if total != expected or (rep.calls and max(rep.calls) > 1):
        raise CheckFailed(
            "app_calls",
            f"process called {total} times (max {max(rep.calls, default=0)} "
            f"per payload), expected {expected} once each",
        )


def check_trace(rep) -> None:
    if rep.trace_dropped:
        raise CheckFailed("trace", f"trace ring dropped {rep.trace_dropped}")


def check_utilisation(rep, target: Optional[float]) -> None:
    if target is None:
        return
    if abs(rep.utilisation - target) > UTILISATION_TOL:
        raise CheckFailed(
            "utilisation",
            f"simulated utilisation {rep.utilisation:.3f}, target {target}",
        )


def check_rep(rep, utilisation_target: Optional[float] = None) -> None:
    check_conservation(rep)
    check_components(rep)
    check_schedule(rep)
    check_app_calls(rep)
    check_trace(rep)
    check_utilisation(rep, utilisation_target)


def check_digests(pairs: List[tuple]) -> None:
    """Untraced and traced sim reps of one seed give identical results."""
    for untraced, traced in pairs:
        if untraced.digest != traced.digest:
            raise CheckFailed(
                "sim_digest",
                f"seed {untraced.seed}: traced run differs from untraced",
            )
