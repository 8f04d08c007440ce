"""The serving campaign end to end: determinism, invariants, faults.

These run a scaled-down campaign (fewer requests than the CLI default)
so the whole file stays in unit-test budget; the full 500-request
campaign runs in CI's serve smoke job against the committed baseline.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.interpret import lower
from repro.obs import collector as obs
from repro.reliability.backoff import RETRY_BACKOFF
from repro.serve import ServeConfig
from repro.serve.clock import VirtualClock
from repro.serve.config import (
    DEGRADE_BATCH_DIVISOR,
    EXECUTOR_RESTARTS,
    EXECUTOR_RETRIES,
)
from repro.serve.loadgen import (
    STUBBORN,
    LoadSpec,
    _FaultPlanner,
    run_campaign,
)
from repro.serve.request import COMPLETED
from repro.serve.server import Server
from repro.workloads.serving import serving_program


def small_spec(**kw):
    base = dict(requests=60, qps=120000.0, seed=5)
    base.update(kw)
    return LoadSpec(**base)


@pytest.fixture(scope="module")
def result():
    return run_campaign(small_spec(),
                        ServeConfig(seed=5, verify_responses=True))


def test_campaign_invariants_hold(result):
    # run_campaign() already reconciled (it asserts); spot-check the
    # headline numbers here so a silent reconcile regression is loud.
    assert result.offered == 60
    assert result.offered == result.admitted + result.shed_total
    assert result.admitted == (result.completed + result.expired
                               + result.failed)
    assert result.wrong_answers == 0
    assert result.max_queue_seen <= result.cfg.queue_depth
    assert result.completed > 0


def test_campaign_exercises_faults_and_recovers(result):
    assert result.injected_total > 0
    # Every injected fault either recovered (in-executor or via a
    # serve-level retry) or is accounted as a typed failure.
    assert result.failed == 0 or result.retries > 0
    assert result.faults_recovered + result.retries > 0


def test_campaign_is_bit_reproducible_from_its_seed():
    a = run_campaign(small_spec(), ServeConfig(seed=5,
                                               verify_responses=True))
    b = run_campaign(small_spec(), ServeConfig(seed=5,
                                               verify_responses=True))
    assert a.to_json() == b.to_json()
    assert a.p50_ms == b.p50_ms and a.p99_ms == b.p99_ms


def test_different_seed_changes_the_run():
    a = run_campaign(small_spec(), ServeConfig(seed=5,
                                               verify_responses=True))
    b = run_campaign(small_spec(seed=6), ServeConfig(seed=6,
                                                     verify_responses=True))
    assert a.to_json() != b.to_json()


def test_no_wrong_answers_without_the_clean_replay():
    """The CI campaign's spec with ``verify_responses`` off: every op
    checks the operands it reseals, so no fault slips past the executor
    into an answer and the replay has nothing left to catch.
    (run_campaign's reconcile asserts 0 wrong answers too.)"""
    res = run_campaign(LoadSpec(seed=2022),
                       ServeConfig(seed=2022, verify_responses=False))
    assert res.injected_total > 0
    assert res.wrong_answers == 0


def test_counters_match_tallies_exactly(result):
    for key in ("offered", "admitted", "completed", "retries"):
        assert result.counters.get(f"serve.{key}", 0.0) \
            == getattr(result, key)


def test_stubborn_faults_defeat_executor_but_not_serve():
    """A STUBBORN fault exhausts in-executor recovery; the serve-level
    retry (fresh executor, clean steps) then completes the batch."""
    spec = small_spec(requests=24, fault_rate=1.0, stubborn_fraction=1.0,
                      poison_tenant=None, qps=1000.0)
    res = run_campaign(spec, ServeConfig(seed=5, verify_responses=True))
    assert res.retries > 0              # executor was defeated
    assert res.failed == 0              # serve retries absorbed it all
    assert res.wrong_answers == 0
    assert STUBBORN > EXECUTOR_RETRIES + EXECUTOR_RESTARTS


def test_fault_planner_is_deterministic():
    from repro.reliability.faults import FaultInjector
    spec = small_spec(fault_rate=0.5)
    a = _FaultPlanner(spec, FaultInjector(seed=1))
    b = _FaultPlanner(spec, FaultInjector(seed=1))
    steps = lower(serving_program("lstm", 256, 5, 16, 1)).steps
    for batch_id in range(20):
        a(batch_id, 0, steps)
        b(batch_id, 0, steps)
    assert a.plans == b.plans


def test_campaign_with_external_collector_keeps_it_open():
    collector = obs.enable()
    try:
        run_campaign(small_spec(requests=10, fault_rate=0.0,
                                poison_tenant=None),
                     ServeConfig(seed=5))
        assert obs.is_enabled()
        assert collector.counters.get("serve.offered") == 10.0
    finally:
        obs.disable()


def test_serve_eviction_sweep_is_spanned():
    """Serve's register-file eviction sweep records its integrity span,
    so serve traces count the sweep's time like the campaigns do."""
    with obs.collecting() as collector:
        run_campaign(small_spec(requests=10, fault_rate=0.0,
                                poison_tenant=None),
                     ServeConfig(seed=5))
    calls, _ = collector.span_totals().get("reliability.rf.evict_verify",
                                           (0, 0.0))
    assert calls > 0


def test_virtual_clock_only_no_wallclock_in_serve():
    """The whole serve package must run on the injectable clock: any
    time.time()/perf_counter/sleep import would break determinism."""
    import ast

    import repro.serve as pkg
    forbidden = {"time", "sleep", "perf_counter", "monotonic",
                 "now", "utcnow"}
    clock_owners = {"time", "datetime", "date"}
    root = Path(pkg.__file__).parent
    for path in root.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if (isinstance(fn, ast.Attribute)
                    and fn.attr in forbidden
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id in clock_owners):
                raise AssertionError(
                    f"{path.name}:{node.lineno} calls "
                    f"{fn.value.id}.{fn.attr}() - serve code must use "
                    "the injectable VirtualClock")


def test_backoff_is_exponential_with_bounded_jitter():
    srv = Server(ServeConfig(seed=5), clock=VirtualClock())
    b = RETRY_BACKOFF
    pauses = [b.pause(k, srv._rng) for k in range(1, 4)]
    for k, pause in enumerate(pauses, start=1):
        nominal = b.base_s * b.factor ** (k - 1)
        assert nominal * (1 - b.jitter) <= pause <= nominal * (1 + b.jitter)
    # Exponential growth dominates the jitter band.
    assert pauses[2] > pauses[0]


def test_degradation_halves_batches_under_backlog():
    cfg = ServeConfig(seed=5, queue_depth=8, degrade_watermark=0.5)
    srv = Server(cfg)
    for i in range(8):                   # at the watermark: degraded
        srv.submit(f"t{i}", "logreg", np.zeros(16))
    assert srv.pump()
    assert srv.batches[0].degraded
    assert srv.batches[0].requests
    assert len(srv.batches[0].requests) \
        == cfg.max_batch // DEGRADE_BATCH_DIVISOR
    assert srv.tally["degraded_dispatches"] == 1


def test_campaign_writes_nothing_under_home(tmp_path, monkeypatch):
    """Serving compiles through an in-memory cache: a campaign leaves no
    files under $HOME or $XDG_CACHE_HOME."""
    import repro.compiler.cache as cache_mod

    home, xdg = tmp_path / "home", tmp_path / "xdg"
    home.mkdir()
    xdg.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    # A fresh default cache, so every (kind, occupancy) compile misses.
    monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
    res = run_campaign(small_spec(requests=30), ServeConfig(seed=5))
    assert res.completed > 0
    assert cache_mod.default_cache().stats["store"] > 0
    assert list(home.rglob("*")) == []
    assert list(xdg.rglob("*")) == []
