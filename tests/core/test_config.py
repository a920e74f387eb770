"""Tests for run, harness and system configuration objects."""

import dataclasses
from pathlib import Path

import pytest

from repro.batching import BatchingConfig
from repro.control import AdmissionConfig, AutoscalerConfig, ControlPlaneConfig
from repro.core import (
    PAPER_SYSTEM,
    CacheConfig,
    ExecutionConfig,
    FanoutConfig,
    HarnessConfig,
    ResilienceConfig,
    SystemConfig,
)
from repro.core.config import RunConfig
from repro.faults import FaultPhase, FaultPlan, Scenario
from repro.health import HealthConfig
from repro.sim import SimConfig


class TestHarnessConfig:
    def test_defaults_valid(self):
        config = HarnessConfig()
        assert config.configuration == "integrated"
        assert config.total_requests == config.warmup_requests + config.measure_requests

    def test_rejects_unknown_configuration(self):
        with pytest.raises(ValueError):
            HarnessConfig(configuration="multiverse")

    def test_rejects_bad_qps(self):
        with pytest.raises(ValueError):
            HarnessConfig(qps=0)

    def test_rejects_bad_threads(self):
        with pytest.raises(ValueError):
            HarnessConfig(n_threads=0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            HarnessConfig(measure_requests=0)
        with pytest.raises(ValueError):
            HarnessConfig(warmup_requests=-1)

    def test_with_seed_changes_only_seed(self):
        config = HarnessConfig(qps=123.0, n_threads=2)
        other = config.with_seed(99)
        assert other.seed == 99
        assert other.qps == 123.0
        assert other.n_threads == 2

    def test_with_qps_changes_only_qps(self):
        config = HarnessConfig(seed=5)
        other = config.with_qps(777.0)
        assert other.qps == 777.0
        assert other.seed == 5

    def test_frozen(self):
        with pytest.raises(Exception):
            HarnessConfig().qps = 1.0

    def test_with_seed_preserves_robustness_fields(self):
        # dataclasses.replace keeps every field, including the ones
        # added after with_seed was first written.
        plan = FaultPlan(drop_rate=0.1)
        policy = ResilienceConfig(deadline=0.5, max_retries=2)
        config = HarnessConfig(
            faults=plan, resilience=policy, queue_capacity=32
        )
        for other in (config.with_seed(9), config.with_qps(50.0)):
            assert other.faults == plan
            assert other.resilience == policy
            assert other.queue_capacity == 32

    def test_replace(self):
        config = HarnessConfig().replace(qps=9.0, n_threads=3)
        assert config.qps == 9.0
        assert config.n_threads == 3
        with pytest.raises(ValueError):
            HarnessConfig().replace(qps=-1.0)  # validation re-runs

    def test_rejects_bad_queue_capacity(self):
        with pytest.raises(ValueError):
            HarnessConfig(queue_capacity=0)


class TestSystemConfig:
    def test_paper_system_matches_table2(self):
        # Table II: 8 SandyBridge cores @ 2.4 GHz, 32KB 8-way L1s,
        # 256KB 8-way L2, 20MB 20-way L3, 32GB RAM.
        assert PAPER_SYSTEM.cores == 8
        assert PAPER_SYSTEM.frequency_ghz == 2.4
        assert PAPER_SYSTEM.l1d_kb == 32
        assert PAPER_SYSTEM.l1d_ways == 8
        assert PAPER_SYSTEM.l2_kb == 256
        assert PAPER_SYSTEM.l3_mb == 20
        assert PAPER_SYSTEM.l3_ways == 20
        assert PAPER_SYSTEM.memory_gb == 32

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            SystemConfig(cores=0)
        with pytest.raises(ValueError):
            SystemConfig(l3_ways=0)


# -- the composition-rule table ------------------------------------------

_PROCESS = ExecutionConfig(mode="process")
_FANOUT2 = dict(n_servers=2, fanout=FanoutConfig(enabled=True, shards=2))
_CACHE = CacheConfig(enabled=True)
_RETRY = ResilienceConfig(max_retries=1)

#: A distinctive fragment of each row's reason -> config kwargs that
#: trip that row and no other.
_TRIGGERS = {
    "autoscaler's": dict(
        n_servers=1,
        control=ControlPlaneConfig(
            enabled=True,
            autoscaler=AutoscalerConfig(min_servers=2, max_servers=4),
        ),
    ),
    "n_servers == fanout.shards": dict(
        n_servers=2, fanout=FanoutConfig(enabled=True, shards=4)
    ),
    "retries/hedges would reroute": dict(_FANOUT2, resilience=_RETRY),
    "all-shards-answer": dict(_FANOUT2, health=HealthConfig(enabled=True)),
    "leaving gathers": dict(_FANOUT2, faults=FaultPlan(drop_rate=0.1)),
    "per-request hit path": dict(
        cache=_CACHE, batching=BatchingConfig(enabled=True)
    ),
    "only meaningful to their gather": dict(_FANOUT2, cache=_CACHE),
    "'integrated'": dict(configuration="loopback", execution=_PROCESS),
    "autoscaler only": dict(
        execution=_PROCESS,
        control=ControlPlaneConfig(enabled=True, admission=AdmissionConfig()),
    ),
    "static fault plans": dict(
        execution=_PROCESS,
        scenario=Scenario(
            name="burst",
            phases=(
                FaultPhase(
                    start=0.0, duration=1.0, plan=FaultPlan(error_rate=0.5)
                ),
            ),
        ),
    ),
    "gather point cannot merge": dict(_FANOUT2, execution=_PROCESS),
    "caching is threaded-only": dict(cache=_CACHE, execution=_PROCESS),
    "synthetic key stream": dict(cache=_CACHE, resilience=_RETRY),
}


def _rule_rows():
    """``(scope, reason)`` per row: shared rows, then each class's own."""
    shared = RunConfig.RULES
    rows = [("both", reason) for _, reason in shared]
    for scope, cls in (("live", HarnessConfig), ("sim", SimConfig)):
        assert cls.RULES[: len(shared)] == shared
        rows += [(scope, reason) for _, reason in cls.RULES[len(shared):]]
    return rows


def _construct(cls, kwargs):
    """Build ``cls`` from the kwargs it has fields for."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in kwargs.items() if k in names})


@pytest.mark.parametrize("scope, reason", _rule_rows())
def test_composition_rule_rejects_on_its_scope_only(scope, reason):
    (kwargs,) = [kw for key, kw in _TRIGGERS.items() if key in reason]
    for cls, cls_scope in ((HarnessConfig, "live"), (SimConfig, "sim")):
        if scope in ("both", cls_scope):
            with pytest.raises(ValueError) as info:
                _construct(cls, kwargs)
            assert str(info.value) == reason
        else:
            _construct(cls, kwargs)


def test_pair_outside_the_table_constructs_on_both():
    kwargs = dict(_FANOUT2, batching=BatchingConfig(enabled=True))
    for cls in (HarnessConfig, SimConfig):
        assert cls(**kwargs).fanout.enabled


def test_design_doc_lists_the_code_table():
    text = (Path(__file__).parents[2] / "DESIGN.md").read_text()
    section = text.split("## 16.", 1)[1].split("\n## ", 1)[0]
    documented = [
        (cells[0], cells[2])
        for cells in (
            [cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("|")
        )
        if cells[0] in ("both", "live", "sim")
    ]
    assert documented == _rule_rows()
