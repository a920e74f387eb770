"""Benchmark baselines: machine-stamped metric snapshots.

Every benchmark under ``benchmarks/`` writes a ``BENCH_<name>.json``
next to its rendered table: a small JSON document holding the
benchmark's headline metrics plus a **run-metadata fingerprint**
(Python version/implementation, platform, CPU count). Committed
baselines let a later run — possibly on different hardware — compare
against recorded numbers *knowing* what produced them, instead of
diffing bare numbers across unknown machines.

The module doubles as the CI validator and regression gate::

    python -m repro.experiments.baseline validate benchmarks/results
    python -m repro.experiments.baseline compare benchmarks/results \
        /tmp/fresh-results --tolerance 0.25

``validate`` checks every ``BENCH_*.json`` in the directory against
the schema (exit 1 on the first malformed file); ``compare`` re-reads
two directories of baselines — committed vs freshly produced — and
fails on metric regressions beyond a tolerance band, with per-metric
direction heuristics (``qps`` regressions are drops, ``p99``
regressions are rises).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "run_fingerprint",
    "run_meta",
    "metric_direction",
    "compare_metrics",
    "compare_directories",
    "write_baseline",
    "load_baseline",
    "validate_baseline",
    "validate_directory",
    "main",
]

Scalar = Union[int, float, str, bool]

#: Top-level keys every baseline document must carry.
_REQUIRED_KEYS = ("name", "fingerprint", "metrics")
#: Fingerprint keys stamped by :func:`run_fingerprint`.
_FINGERPRINT_KEYS = (
    "python", "implementation", "platform", "machine", "cpu_count"
)
#: Meta keys stamped by :func:`run_meta` (the environment block of
#: "Tell-Tale Tail Latencies": record what produced every number).
_META_KEYS = ("python", "cpu_count", "platform", "execution", "git_sha")


def run_fingerprint() -> Dict[str, Scalar]:
    """Metadata identifying what produced a benchmark result."""
    import os

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


_git_sha_cache: Optional[str] = None


def _git_sha() -> str:
    """Current git commit (short), or ``"unknown"`` outside a checkout."""
    import subprocess

    global _git_sha_cache
    if _git_sha_cache is not None:
        return _git_sha_cache
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        _git_sha_cache = "unknown"
        return _git_sha_cache
    sha = out.stdout.strip()
    _git_sha_cache = sha if out.returncode == 0 and sha else "unknown"
    return _git_sha_cache


def run_meta(execution: str = "threaded") -> Dict[str, Scalar]:
    """The run-metadata ``meta`` block of a baseline document.

    Captures the environment facts a reader needs to judge whether a
    recorded number is comparable to theirs: interpreter, core count,
    OS, which execution substrate ran the replicas, and the exact code
    revision.
    """
    import os

    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 0,
        "platform": platform.system(),
        "execution": execution,
        "git_sha": _git_sha(),
    }


def baseline_path(
    directory: Union[str, pathlib.Path], name: str
) -> pathlib.Path:
    return pathlib.Path(directory) / f"BENCH_{name}.json"


def write_baseline(
    directory: Union[str, pathlib.Path],
    name: str,
    metrics: Dict[str, Scalar],
    execution: str = "threaded",
    audit: Optional[Dict[str, Scalar]] = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``metrics`` must be a flat mapping of JSON scalars — the point is a
    diffable, greppable snapshot, not a dump of experiment internals.
    ``execution`` names the substrate that produced the numbers (it
    lands in the ``meta`` block); ``audit`` optionally attaches the
    run's coordinated-omission audit
    (:meth:`repro.core.CollectedStats.send_audit`) so the fingerprint
    records whether the load generator kept up.
    """
    if not name or any(c in name for c in "/\\"):
        raise ValueError(f"invalid baseline name {name!r}")
    if not metrics:
        raise ValueError("baseline needs at least one metric")
    for key, value in metrics.items():
        if not isinstance(key, str):
            raise TypeError(f"metric keys must be str, got {key!r}")
        if not isinstance(value, (int, float, str, bool)):
            raise TypeError(
                f"metric {key!r} must be a JSON scalar, got {type(value)}"
            )
        if isinstance(value, float) and value != value:
            raise ValueError(f"metric {key!r} is NaN")
    document = {
        "name": name,
        "fingerprint": run_fingerprint(),
        "meta": run_meta(execution=execution),
        "metrics": dict(sorted(metrics.items())),
    }
    if audit:
        document["audit"] = dict(sorted(audit.items()))
    path = baseline_path(directory, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Union[str, pathlib.Path]) -> Dict:
    """Read and validate one baseline document."""
    path = pathlib.Path(path)
    document = json.loads(path.read_text())
    validate_baseline(document, source=str(path))
    return document


def validate_baseline(document: Dict, source: str = "<memory>") -> None:
    """Raise ``ValueError`` unless ``document`` is a valid baseline."""
    if not isinstance(document, dict):
        raise ValueError(f"{source}: baseline must be a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in document:
            raise ValueError(f"{source}: missing required key {key!r}")
    if not isinstance(document["name"], str) or not document["name"]:
        raise ValueError(f"{source}: 'name' must be a non-empty string")
    fingerprint = document["fingerprint"]
    if not isinstance(fingerprint, dict):
        raise ValueError(f"{source}: 'fingerprint' must be an object")
    for key in _FINGERPRINT_KEYS:
        if key not in fingerprint:
            raise ValueError(f"{source}: fingerprint missing {key!r}")
    metrics = document["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError(f"{source}: 'metrics' must be a non-empty object")
    for key, value in metrics.items():
        if not isinstance(value, (int, float, str, bool)):
            raise ValueError(
                f"{source}: metric {key!r} is not a JSON scalar"
            )
    # `meta` and `audit` are optional (older baselines predate them)
    # but must be well-formed when present.
    meta = document.get("meta")
    if meta is not None:
        if not isinstance(meta, dict):
            raise ValueError(f"{source}: 'meta' must be an object")
        for key in _META_KEYS:
            if key not in meta:
                raise ValueError(f"{source}: meta missing {key!r}")
    audit = document.get("audit")
    if audit is not None:
        if not isinstance(audit, dict):
            raise ValueError(f"{source}: 'audit' must be an object")
        for key, value in audit.items():
            if not isinstance(value, (int, float)):
                raise ValueError(
                    f"{source}: audit value {key!r} is not numeric"
                )


def validate_directory(
    directory: Union[str, pathlib.Path], require: int = 0
) -> List[str]:
    """Validate every ``BENCH_*.json`` under ``directory``.

    Returns the validated baseline names; raises on the first invalid
    file, or when fewer than ``require`` baselines are present.
    """
    directory = pathlib.Path(directory)
    names = []
    for path in sorted(directory.glob("BENCH_*.json")):
        names.append(load_baseline(path)["name"])
    if len(names) < require:
        raise ValueError(
            f"{directory}: expected >= {require} baselines, found "
            f"{len(names)}"
        )
    return names


# -- regression comparison ---------------------------------------------
#
# Metric names carry their own improvement direction: throughputs
# should not drop, latencies should not rise, and anything
# unrecognized must simply stay inside the band in both directions.
# A rate per unit of time (``events_per_s``) is a throughput even
# though it ends in a time unit, so it is matched first.
_RATES = ("_per_s", "_per_ms", "_per_us")
_HIGHER_BETTER = (
    "qps", "throughput", "goodput", "speedup", "scaling", "ratio", "ops",
    "success_rate", "count",
)
_LOWER_BETTER = (
    "p50", "p90", "p95", "p99", "p999", "latency", "overhead", "lag",
    "_s", "_ms", "_us", "seconds", "time",
)


def metric_direction(key: str) -> str:
    """``"higher"``, ``"lower"``, or ``"both"`` — which way is worse.

    Lower-better wins ties: ``"send_lag_p99_s"`` contains both
    ``lag``/``p99`` and nothing higher-better; a name like
    ``"qps_p99"`` reads as a latency-of-throughput-samples and is
    treated as lower-better too.
    """
    lowered = key.lower()
    if lowered.endswith(_RATES):
        return "higher"
    if any(tok in lowered for tok in _LOWER_BETTER):
        return "lower"
    if any(tok in lowered for tok in _HIGHER_BETTER):
        return "higher"
    return "both"


def compare_metrics(
    baseline: Dict[str, Scalar],
    current: Dict[str, Scalar],
    tolerance: float = 0.25,
    source: str = "<memory>",
) -> List[str]:
    """Regressions of ``current`` against ``baseline`` (empty = pass).

    Numeric metrics must stay inside a relative ``tolerance`` band in
    the metric's *worse* direction (improvements never fail);
    non-numeric metrics must match exactly; metrics present in the
    baseline must still exist. New metrics in ``current`` are fine —
    growth is not a regression.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    regressions: List[str] = []
    for key, base in sorted(baseline.items()):
        if key not in current:
            regressions.append(f"{source}: metric {key!r} disappeared")
            continue
        cur = current[key]
        numeric = (
            isinstance(base, (int, float)) and not isinstance(base, bool)
            and isinstance(cur, (int, float)) and not isinstance(cur, bool)
        )
        if not numeric:
            if base != cur:
                regressions.append(
                    f"{source}: {key} changed {base!r} -> {cur!r}"
                )
            continue
        scale = max(abs(float(base)), 1e-12)
        direction = metric_direction(key)
        drop = (float(base) - float(cur)) / scale
        rise = (float(cur) - float(base)) / scale
        if direction in ("higher", "both") and drop > tolerance:
            regressions.append(
                f"{source}: {key} regressed {base:g} -> {cur:g} "
                f"(-{drop:.1%}, tolerance {tolerance:.0%})"
            )
        elif direction in ("lower", "both") and rise > tolerance:
            regressions.append(
                f"{source}: {key} regressed {base:g} -> {cur:g} "
                f"(+{rise:.1%}, tolerance {tolerance:.0%})"
            )
    return regressions


def _fingerprints_comparable(base: Dict, cur: Dict) -> Tuple[bool, str]:
    diffs = [
        f"{key}: {base.get(key)!r} -> {cur.get(key)!r}"
        for key in _FINGERPRINT_KEYS
        if base.get(key) != cur.get(key)
    ]
    return (not diffs, "; ".join(diffs))


def compare_directories(
    baseline_dir: Union[str, pathlib.Path],
    current_dir: Union[str, pathlib.Path],
    tolerance: float = 0.25,
    fingerprint_policy: str = "warn",
) -> Tuple[List[str], List[str]]:
    """Compare two directories of baselines; return (regressions, notes).

    Every ``BENCH_*.json`` present in *both* directories is compared
    metric by metric. ``fingerprint_policy`` governs documents whose
    environment fingerprints differ (committed baselines usually come
    from a different machine than the CI runner): ``"warn"`` notes the
    difference and compares anyway; ``"strict"`` treats it as a
    regression; ``"skip"`` skips the document.
    """
    if fingerprint_policy not in ("warn", "strict", "skip"):
        raise ValueError(
            "fingerprint_policy must be 'warn', 'strict', or 'skip', "
            f"got {fingerprint_policy!r}"
        )
    baseline_dir = pathlib.Path(baseline_dir)
    current_dir = pathlib.Path(current_dir)
    regressions: List[str] = []
    notes: List[str] = []
    compared = 0
    for base_path in sorted(baseline_dir.glob("BENCH_*.json")):
        cur_path = current_dir / base_path.name
        if not cur_path.exists():
            notes.append(f"{base_path.name}: no fresh result; skipped")
            continue
        base_doc = load_baseline(base_path)
        cur_doc = load_baseline(cur_path)
        same, diff = _fingerprints_comparable(
            base_doc["fingerprint"], cur_doc["fingerprint"]
        )
        if not same:
            if fingerprint_policy == "strict":
                regressions.append(
                    f"{base_path.name}: fingerprint mismatch ({diff})"
                )
                continue
            if fingerprint_policy == "skip":
                notes.append(
                    f"{base_path.name}: fingerprint mismatch ({diff}); "
                    "skipped"
                )
                continue
            notes.append(
                f"{base_path.name}: fingerprint mismatch ({diff}); "
                "comparing anyway"
            )
        compared += 1
        regressions.extend(
            compare_metrics(
                base_doc["metrics"],
                cur_doc["metrics"],
                tolerance=tolerance,
                source=base_path.name,
            )
        )
    if compared == 0 and not regressions:
        notes.append("no comparable baseline pairs found")
    return regressions, notes


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: `baseline <dir> [--require N]` (the original CLI)
    # still validates, without the explicit subcommand.
    if argv and argv[0] not in ("validate", "compare") and not argv[
        0
    ].startswith("-"):
        argv.insert(0, "validate")
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.baseline",
        description=(
            "Validate BENCH_*.json benchmark baselines, or compare two "
            "directories of them for regressions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_validate = sub.add_parser(
        "validate", help="schema-check every BENCH_*.json in a directory"
    )
    p_validate.add_argument(
        "directory", help="directory holding BENCH_*.json"
    )
    p_validate.add_argument(
        "--require", type=int, default=0, metavar="N",
        help="fail unless at least N baselines are present",
    )
    p_compare = sub.add_parser(
        "compare",
        help="fail on metric regressions of fresh results vs committed",
    )
    p_compare.add_argument(
        "baseline_dir", help="committed baselines (the reference)"
    )
    p_compare.add_argument(
        "current_dir", help="freshly produced baselines (the candidate)"
    )
    p_compare.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="relative band a metric may move in its worse direction "
        "(default 0.25)",
    )
    p_compare.add_argument(
        "--fingerprint-policy",
        choices=("warn", "strict", "skip"),
        default="warn",
        help="how to treat documents whose environment fingerprints "
        "differ (default: warn and compare anyway)",
    )
    args = parser.parse_args(argv)
    if args.command == "validate":
        try:
            names = validate_directory(args.directory, require=args.require)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"baseline validation failed: {exc}", file=sys.stderr)
            return 1
        for name in names:
            print(f"ok: {name}")
        return 0
    try:
        regressions, notes = compare_directories(
            args.baseline_dir,
            args.current_dir,
            tolerance=args.tolerance,
            fingerprint_policy=args.fingerprint_policy,
        )
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"baseline comparison failed: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"note: {note}")
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
