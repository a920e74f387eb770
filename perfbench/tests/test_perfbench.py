"""Tests for the repo benchmark: smoke runs and each output check.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, run_rep  # noqa: E402


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric_with_unit(workload, trace, tmp_path):
    proc = _cli(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(
        expected
    )
    for name in ("requests_offered", "requests_failed"):
        assert any(line.strip().startswith(name + " = ") for line in lines)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )


def test_no_program_in_checkout_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", "noop_threaded", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- each output check fires on a corrupted result ------------------------


@pytest.fixture(scope="module")
def reps():
    return {
        name: run_rep(workload, seed=7, rep_seconds=0.25, trace=False)
        for name, workload in WORKLOADS.items()
    }


def _corrupt(rep, **changes):
    return dataclasses.replace(copy.copy(rep), **changes)


def test_clean_reps_pass(reps):
    for name, rep in reps.items():
        target = run.SIM_UTILISATION if not rep.live else None
        checks.check_rep(rep, target)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_conservation_fires_on_missing_record(reps, workload):
    rep = reps[workload]
    with pytest.raises(checks.CheckFailed, match="conservation"):
        checks.check_conservation(_corrupt(rep, records=rep.records[1:]))


def test_conservation_fires_on_errors_and_lag(reps):
    rep = reps["noop_threaded"]
    with pytest.raises(checks.CheckFailed, match="server errors"):
        checks.check_conservation(_corrupt(rep, server_errors=("boom",)))
    checks.check_keeps_up([rep])
    with pytest.raises(checks.CheckFailed, match="keeps_up"):
        checks.check_keeps_up([_corrupt(rep, wall_s=rep.wall_s * 1.1)])
    with pytest.raises(checks.CheckFailed, match="routed"):
        checks.check_conservation(_corrupt(rep, routed=(rep.offered - 1,)))


def test_components_fire_on_broken_chain(reps):
    rep = reps["noop_threaded"]
    record = rep.records[0]
    broken = dataclasses.replace(record, enqueued_at=record.sent_at - 1e-3)
    with pytest.raises(checks.CheckFailed, match="components"):
        checks.check_components(_corrupt(rep, records=[broken]))


def test_schedule_fires_on_shifted_arrival(reps):
    for name in ("noop_threaded", "sim_masstree_jsq4"):
        rep = reps[name]
        record = rep.records[0]
        shifted = dataclasses.replace(
            record, generated_at=record.generated_at + 1e-4
        )
        with pytest.raises(checks.CheckFailed, match="schedule"):
            checks.check_schedule(_corrupt(rep, records=[shifted]))


@pytest.mark.parametrize(
    "workload", ["noop_threaded", "noop_process", "hooks_threaded"]
)
def test_app_calls_fire_on_count_mismatch(reps, workload):
    rep = reps[workload]
    calls = list(rep.calls)
    calls[calls.index(1)] = 2
    with pytest.raises(checks.CheckFailed, match="app_calls"):
        checks.check_app_calls(_corrupt(rep, calls=calls))
    with pytest.raises(checks.CheckFailed, match="app_calls"):
        checks.check_app_calls(_corrupt(rep, records=rep.records[1:]))


def test_trace_fires_on_drops(reps):
    rep = reps["hooks_threaded"]
    assert rep.trace_events > 0 and rep.trace_dropped == 0
    with pytest.raises(checks.CheckFailed, match="trace"):
        checks.check_trace(_corrupt(rep, trace_dropped=1))


def test_sim_digest_and_utilisation(reps):
    rep = reps["sim_masstree_jsq4"]
    traced = run_rep(
        WORKLOADS["sim_masstree_jsq4"], seed=7, rep_seconds=0.25, trace=True
    )
    checks.check_digests([(rep, traced)])
    bumped = _corrupt(traced, digest=traced.digest[:-1] + ((1, 2, 3, 4),))
    with pytest.raises(checks.CheckFailed, match="sim_digest"):
        checks.check_digests([(rep, bumped)])
    with pytest.raises(checks.CheckFailed, match="utilisation"):
        checks.check_utilisation(_corrupt(rep, utilisation=0.5), 0.7)


def test_failed_check_exits_nonzero(monkeypatch, reps, tmp_path):
    rep = reps["noop_threaded"]
    monkeypatch.setattr(
        run, "run_rep", lambda *a, **k: _corrupt(rep, records=rep.records[1:])
    )
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: 0)
    code = run.main(["--workload", "noop_threaded", "--seconds", "1",
                     "--out", str(tmp_path)])
    assert code == 1
