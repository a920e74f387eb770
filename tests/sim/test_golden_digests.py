"""Golden digests: exact outputs of fixed-seed simulator runs.

Each configuration below runs the simulator once and compares a digest
of its results (sojourn percentiles and mean, utilisation, nonzero
outcome tallies, routed counts, the engine's executed-event count, and
for traced runs a hash of the trace and SLO windows) against values
recorded from an earlier build. Floats are compared through
``float.hex``, so any change in event order, RNG draw order, or
arithmetic shows up as a mismatch.

The other bit-identity tests compare feature-on against feature-off
inside one tree; they cannot see a change that reorders events in
every run alike. This test can: it is the gate for engine and
scheduling changes that promise identical results.

To re-record after an intentional behaviour change, run this file as a
script (``PYTHONPATH=src python tests/sim/test_golden_digests.py``) and
paste its output over ``GOLDEN``.
"""

import hashlib

import pytest

from repro.batching import BatchingConfig
from repro.control import AdmissionConfig, AutoscalerConfig, ControlPlaneConfig
from repro.core import CacheConfig, FanoutConfig, ResilienceConfig
from repro.core.config import ObservabilityConfig, SloConfig
from repro.faults import FaultPlan, retry_storm
from repro.health import HealthConfig
from repro.sim import Engine, SimConfig, paper_profile, simulate_load

_MASSTREE = paper_profile("masstree")
_XAPIAN = paper_profile("xapian")


def _qps(profile, utilisation, n_servers=1):
    return utilisation * n_servers / profile.service.mean


def _config(profile, n_servers=1, utilisation=0.7, **overrides):
    params = dict(
        qps=_qps(profile, utilisation, n_servers),
        warmup_requests=200,
        measure_requests=1800,
        seed=11,
        n_servers=n_servers,
    )
    params.update(overrides)
    return SimConfig(**params)


_SLO = SloConfig(
    enabled=True, target=5 * _MASSTREE.service.mean, objective=0.9,
    window=0.05, fast_windows=2, slow_windows=6, fast_burn=2.5,
    slow_burn=1.0, clear_factor=0.5, exemplars_per_window=3,
)

#: name -> (profile, config)
CONFIGS = {
    "direct": (_MASSTREE, _config(_MASSTREE)),
    "direct_traced_slo": (
        _MASSTREE,
        _config(
            _MASSTREE,
            observability=ObservabilityConfig(tracing=True, slo=_SLO),
        ),
    ),
    "jsq4": (_MASSTREE, _config(_MASSTREE, 4, balancer="jsq")),
    "p2c4_traced_slo": (
        _MASSTREE,
        _config(
            _MASSTREE, 4, balancer="power_of_two",
            observability=ObservabilityConfig(tracing=True, slo=_SLO),
        ),
    ),
    "deterministic_rr2": (
        _MASSTREE,
        _config(
            _MASSTREE, 2, utilisation=0.9, balancer="round_robin",
            deterministic_arrivals=True,
        ),
    ),
    "faults_resilience": (
        _MASSTREE,
        _config(
            _MASSTREE, 3, utilisation=0.5, balancer="round_robin",
            faults=FaultPlan(drop_rate=0.03, worker_pause_rate=0.02,
                             worker_pause=2e-4, error_rate=0.02,
                             duplicate_rate=0.02, delay_rate=0.02,
                             delay=1e-4),
            resilience=ResilienceConfig(
                deadline=1e-2, attempt_timeout=2e-3, max_retries=2,
                backoff_base=5e-5, backoff_cap=2e-4, hedge_after=1e-3,
                max_hedges=1,
            ),
        ),
    ),
    "health_scenario": (
        _MASSTREE,
        _config(
            _MASSTREE, 3, balancer="round_robin",
            resilience=ResilienceConfig(
                deadline=2e-3, attempt_timeout=5e-4, max_retries=3,
                backoff_base=5e-5, backoff_cap=2e-4,
            ),
            scenario=retry_storm(
                server_id=2, start=0.02, duration=0.05, pause=5e-3
            ),
            health=HealthConfig(enabled=True, min_samples=5,
                                probe_interval=25),
        ),
    ),
    "control_load_profile": (
        _MASSTREE,
        _config(
            _MASSTREE, 1, balancer="jsq",
            load_profile=(
                (0.05, _qps(_MASSTREE, 0.5)),
                (0.1, _qps(_MASSTREE, 1.6)),
                (0.05, _qps(_MASSTREE, 0.5)),
            ),
            control=ControlPlaneConfig(
                enabled=True, tick_interval=0.005,
                admission=AdmissionConfig(
                    target_p99=10 * _MASSTREE.service.mean
                ),
                autoscaler=AutoscalerConfig(max_servers=3, cooldown=0.02),
            ),
        ),
    ),
    "batching": (
        _MASSTREE,
        _config(
            _MASSTREE, 2, utilisation=0.9, balancer="jsq",
            batching=BatchingConfig(enabled=True, max_batch_size=4,
                                    max_batch_delay=2e-5),
        ),
    ),
    "fanout4": (
        _MASSTREE,
        _config(
            _MASSTREE, 4, utilisation=0.5,
            fanout=FanoutConfig(enabled=True, shards=4),
        ),
    ),
    "cache_direct": (
        _XAPIAN,
        _config(_XAPIAN, cache=CacheConfig(enabled=True, capacity=64)),
    ),
    "cache_jsq2": (
        _XAPIAN,
        _config(
            _XAPIAN, 2, balancer="jsq",
            cache=CacheConfig(enabled=True, policy="lfu", capacity=64),
        ),
    ),
}


def digest(name):
    """Run configuration ``name`` and digest its results."""
    engines = []
    original = Engine.run

    def run(self, *args, **kwargs):
        engines.append(self)
        return original(self, *args, **kwargs)

    profile, config = CONFIGS[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "run", run)
        result = simulate_load(profile, config)
    sojourn = result.sojourn
    out = {
        "percentiles": tuple(
            (repr(p), v.hex()) for p, v in sorted(sojourn.percentiles.items())
        ),
        "mean": sojourn.mean.hex(),
        "utilization": result.utilization.hex(),
        "outcomes": {k: v for k, v in sorted(result.outcomes.items()) if v},
        "routed": tuple(result.routed_counts),
        "executed_events": sum(e.executed_events for e in set(engines)),
    }
    if result.obs is not None:
        out["trace_sha256"] = _sha256(_trace_rows(result.obs.events))
        if result.obs.live is not None:
            out["slo_sha256"] = _sha256(_slo_rows(result.obs.live))
    return out


def _sha256(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _trace_rows(events):
    # Request ids come from a process-wide counter, so only their
    # offsets from the run's first id are stable.
    ids = [e.request_id for e in events if e.request_id is not None]
    base = min(ids, default=0)
    return tuple(
        (
            e.ts.hex(), e.kind, e.logical_id,
            None if e.request_id is None else e.request_id - base,
            e.attempt, e.server_id, e.value,
        )
        for e in events
    )


def _slo_rows(report):
    return (
        tuple(
            (
                w.start.hex(), w.end.hex(), w.sent, w.completed, w.good,
                w.bad, sorted(w.quantiles.items()), w.fast_burn.hex(),
                w.slow_burn.hex(),
            )
            for w in report.windows
        ),
        sorted(report.quantiles.items()),
        (report.sent, report.completed, report.good, report.bad),
    )


#: Recorded from the build before the simulator fast path.
GOLDEN = {
    "batching": {
        "percentiles": (
            ("50.0", "0x1.3cbd8fdf39d40p-12"),
            ("90.0", "0x1.f04ee72e21f01p-12"),
            ("95.0", "0x1.11fd15993f9c0p-11"),
            ("99.0", "0x1.3c93418f304b6p-11"),
            ("99.9", "0x1.6e426c083d722p-11"),
        ),
        "mean": "0x1.4cc66f3a30b42p-12",
        "utilization": "0x1.8d717d953e977p-1",
        "outcomes": {"attempts": 2000, "offered": 2000, "succeeded": 2000},
        "routed": (1095, 905),
        "executed_events": 8216,
    },
    "cache_direct": {
        "percentiles": (
            ("50.0", "0x1.040cf9a10e800p-11"),
            ("90.0", "0x1.3af19b45fa74ep-9"),
            ("95.0", "0x1.a967a5d6ca580p-9"),
            ("99.0", "0x1.45de628270cf3p-8"),
            ("99.9", "0x1.b5490822e6cadp-8"),
        ),
        "mean": "0x1.d880c3d036760p-11",
        "utilization": "0x1.8b71c5d3e37b6p-2",
        "outcomes": {"attempts": 2000, "offered": 2000, "succeeded": 2000},
        "routed": (2000,),
        "executed_events": 6000,
    },
    "cache_jsq2": {
        "percentiles": (
            ("50.0", "0x1.2dcaf02672000p-13"),
            ("90.0", "0x1.7022a1ac99a9ap-10"),
            ("95.0", "0x1.17f1761d0f30cp-9"),
            ("99.0", "0x1.069a6897c657fp-8"),
            ("99.9", "0x1.9bdb03bf8b405p-8"),
        ),
        "mean": "0x1.0d55b9d866b5fp-11",
        "utilization": "0x1.5b50299f94766p-2",
        "outcomes": {"attempts": 2000, "offered": 2000, "succeeded": 2000},
        "routed": (1348, 652),
        "executed_events": 8000,
    },
    "control_load_profile": {
        "percentiles": (
            ("50.0", "0x1.66320103b0ae0p-12"),
            ("90.0", "0x1.46384955ac91ap-9"),
            ("95.0", "0x1.bff112a2cd11cp-9"),
            ("99.0", "0x1.971497f92cc12p-8"),
            ("99.9", "0x1.cc33bfe7c6da0p-8"),
        ),
        "mean": "0x1.b137a5893a525p-11",
        "utilization": "0x1.37482e1364832p-1",
        "outcomes": {"attempts": 1066, "offered": 1066, "shed": 1, "succeeded": 1065},
        "routed": (687, 379),
        "executed_events": 4302,
    },
    "deterministic_rr2": {
        "percentiles": (
            ("50.0", "0x1.b84e2382b9e00p-13"),
            ("90.0", "0x1.4d16bb67afef3p-12"),
            ("95.0", "0x1.818d1ec5425bfp-12"),
            ("99.0", "0x1.000a190358ab4p-11"),
            ("99.9", "0x1.3d4fcad58cc84p-11"),
        ),
        "mean": "0x1.d73948c72dae4p-13",
        "utilization": "0x1.cd54d582718f2p-1",
        "outcomes": {"attempts": 2000, "offered": 2000, "succeeded": 2000},
        "routed": (1000, 1000),
        "executed_events": 8000,
    },
    "direct": {
        "percentiles": (
            ("50.0", "0x1.82f6a628c9480p-12"),
            ("90.0", "0x1.f95a8598ced92p-11"),
            ("95.0", "0x1.32730f8c9b673p-10"),
            ("99.0", "0x1.e2c3cec200285p-10"),
            ("99.9", "0x1.42074a775f3c7p-9"),
        ),
        "mean": "0x1.f965e6122c8dap-12",
        "utilization": "0x1.67562f027bc13p-1",
        "outcomes": {"attempts": 2000, "offered": 2000, "succeeded": 2000},
        "routed": (2000,),
        "executed_events": 6000,
    },
    "direct_traced_slo": {
        "percentiles": (
            ("50.0", "0x1.82f6a628c9480p-12"),
            ("90.0", "0x1.f95a8598ced92p-11"),
            ("95.0", "0x1.32730f8c9b673p-10"),
            ("99.0", "0x1.e2c3cec200285p-10"),
            ("99.9", "0x1.42074a775f3c7p-9"),
        ),
        "mean": "0x1.f965e6122c8dap-12",
        "utilization": "0x1.67562f027bc13p-1",
        "outcomes": {"attempts": 2000, "offered": 2000, "succeeded": 2000},
        "routed": (2000,),
        "executed_events": 6011,
        "trace_sha256": "50ae599acbea3229",
        "slo_sha256": "c2bb92a6664afde5",
    },
    "fanout4": {
        "percentiles": (
            ("50.0", "0x1.a1b6c8cd5cb60p-4"),
            ("90.0", "0x1.65e8caaca59d5p-3"),
            ("95.0", "0x1.79c1376700cf8p-3"),
            ("99.0", "0x1.88a64bfeec0e9p-3"),
            ("99.9", "0x1.8be9018053221p-3"),
        ),
        "mean": "0x1.acd99d6379a28p-4",
        "utilization": "0x1.faae4e03cd5d4p-1",
        "outcomes": {"attempts": 8000, "offered": 2000, "succeeded": 2000},
        "routed": (2000, 2000, 2000, 2000),
        "executed_events": 24000,
    },
    "faults_resilience": {
        "percentiles": (
            ("50.0", "0x1.b3ca4b28f9800p-13"),
            ("90.0", "0x1.ad36edd85cb69p-12"),
            ("95.0", "0x1.27aacd1c2ef72p-11"),
            ("99.0", "0x1.4da92800e4dadp-10"),
            ("99.9", "0x1.2722d38f4fe71p-9"),
        ),
        "mean": "0x1.1d23499b086a2p-12",
        "utilization": "0x1.0567e6402b4a8p-1",
        "outcomes": {"attempts": 2115, "errors": 43, "hedges": 69, "offered": 2000, "retries": 46, "succeeded": 2000},
        "routed": (693, 696, 694),
        "executed_events": 14341,
    },
    "health_scenario": {
        "percentiles": (
            ("50.0", "0x1.0b126c4ab6000p-12"),
            ("90.0", "0x1.796fd17752880p-11"),
            ("95.0", "0x1.db0841e11d400p-11"),
            ("99.0", "0x1.b18ee0110d560p-10"),
            ("99.9", "0x1.f7b57a28054a0p-10"),
        ),
        "mean": "0x1.7e3d74e45d905p-12",
        "utilization": "0x1.651edbf2e2b00p-1",
        "outcomes": {"attempts": 2210, "late": 909, "offered": 2000, "retries": 210, "succeeded": 1301, "timed_out": 699},
        "routed": (671, 651, 888),
        "executed_events": 13052,
    },
    "jsq4": {
        "percentiles": (
            ("50.0", "0x1.cf4c07d71c800p-13"),
            ("90.0", "0x1.a4911c9403db9p-12"),
            ("95.0", "0x1.edf3ee49286b2p-12"),
            ("99.0", "0x1.49a51e5162bddp-11"),
            ("99.9", "0x1.b900df967eb10p-11"),
        ),
        "mean": "0x1.0807d3ce62a65p-12",
        "utilization": "0x1.658364edb9766p-1",
        "outcomes": {"attempts": 2000, "offered": 2000, "succeeded": 2000},
        "routed": (608, 541, 480, 371),
        "executed_events": 8000,
    },
    "p2c4_traced_slo": {
        "percentiles": (
            ("50.0", "0x1.f980f6aec0c00p-13"),
            ("90.0", "0x1.cd68648402804p-12"),
            ("95.0", "0x1.0baa14ff5f073p-11"),
            ("99.0", "0x1.59ece7359abaap-11"),
            ("99.9", "0x1.d73444441c0d6p-11"),
        ),
        "mean": "0x1.1d43c9dd842acp-12",
        "utilization": "0x1.6534568909a8ap-1",
        "outcomes": {"attempts": 2000, "offered": 2000, "succeeded": 2000},
        "routed": (508, 506, 492, 494),
        "executed_events": 8003,
        "trace_sha256": "677da1a50f0b822f",
        "slo_sha256": "12eadf40537a1472",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name):
    assert digest(name) == GOLDEN[name]


def _render(digests):
    """``digests`` as the Python literal assigned to ``GOLDEN``."""
    lines = ["GOLDEN = {"]
    for name, fields in digests.items():
        lines.append(f'    "{name}": {{')
        for key, value in fields.items():
            if key == "percentiles":
                lines.append(f'        "{key}": (')
                lines.extend(f"            {pair!r}," for pair in value)
                lines.append("        ),")
            else:
                lines.append(f'        "{key}": {value!r},')
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines).replace("'", '"')


if __name__ == "__main__":
    print(_render({name: digest(name) for name in sorted(CONFIGS)}))
