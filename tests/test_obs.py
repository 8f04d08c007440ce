"""The observability layer (repro.obs): ISSUE acceptance assertions.

(a) disabled tracing records nothing and the no-op helpers are safe;
(b) a simulated run emits one event per IR op whose critical-path
    cycles telescope exactly to ``SimResult.cycles``;
(c) the Chrome-trace export round-trips through json and carries the
    ``ph``/``ts``/``dur`` keys Perfetto requires.
"""

import json

import pytest

from repro import ChipConfig, benchmark, f1plus_config, obs, simulate
from repro.obs import export
from repro.obs.collector import OpEvent


@pytest.fixture
def program():
    return benchmark("lola_mnist_uw")


# -- (a) disabled tracing ---------------------------------------------------

def test_disabled_tracing_records_nothing(program):
    assert not obs.is_enabled()
    assert obs.active() is None

    # All helpers must be safe no-ops with tracing off.
    obs.count("nope", 7)
    with obs.span("nope"):
        pass
    obs.emit_op(OpEvent(index=0, kind="add", result="x", level=1))

    with obs.collecting() as c:
        pass  # nothing instrumented ran inside
    assert c.counters == {}
    assert c.spans == []
    assert c.op_events == []

    # The events above went nowhere: a fresh collector after a disabled
    # simulate sees only what runs inside its scope.
    simulate(program, ChipConfig())  # traced? no - no collector active
    with obs.collecting() as c:
        pass
    assert c.op_events == []


def test_collecting_restores_previous_state(program):
    with obs.collecting() as outer:
        simulate(program, ChipConfig())
        with obs.collecting() as inner:
            pass
        assert inner.op_events == []
        assert obs.active() is outer
    assert obs.active() is None
    assert len(outer.op_events) == len(program.ops)


def test_tracing_does_not_change_results(program):
    baseline = simulate(program, ChipConfig())
    with obs.collecting():
        traced = simulate(program, ChipConfig())
    assert traced.cycles == baseline.cycles
    assert traced.traffic_words == baseline.traffic_words


# -- (b) one event per op; cycles reconcile ---------------------------------

@pytest.mark.parametrize("cfg_factory", [ChipConfig, f1plus_config],
                         ids=["craterlake", "f1plus"])
def test_one_event_per_op_and_cycles_telescope(program, cfg_factory):
    cfg = cfg_factory()
    with obs.collecting() as c:
        result = simulate(program, cfg)

    assert len(c.op_events) == len(program.ops)
    assert [e.index for e in c.op_events] == list(range(len(program.ops)))
    assert [e.kind for e in c.op_events] == [op.kind for op in program.ops]

    total = c.total_op_cycles()
    assert total == pytest.approx(result.cycles, rel=1e-9)
    # Per-op pieces are internally consistent.
    for e in c.op_events:
        assert e.cycles >= 0
        assert e.compute_cycles >= 0
        assert e.mem_cycles >= 0
        assert e.stall_cycles >= 0
    assert c.counters["sim.ops"] == len(program.ops)


def test_simulator_counters(program):
    with obs.collecting() as c:
        simulate(program, ChipConfig())
    by_kind = {
        kind: sum(1 for op in program.ops if op.kind == kind)
        for kind in {op.kind for op in program.ops}
    }
    for kind, n in by_kind.items():
        assert c.counters[f"sim.ops.{kind}"] == n


# -- (c) Chrome-trace JSON --------------------------------------------------

def test_chrome_trace_round_trips(program, tmp_path):
    cfg = ChipConfig()
    with obs.collecting() as c:
        simulate(program, cfg)

    path = tmp_path / "trace.json"
    export.write_chrome_trace(c, str(path), clock_hz=cfg.clock_hz)
    loaded = json.loads(path.read_text())

    events = loaded["traceEvents"]
    assert events, "trace must not be empty"
    slices = [e for e in events if e["ph"] == "X"]
    assert slices, "expected complete ('X') events"
    for e in slices:
        assert {"ph", "ts", "dur", "pid", "tid", "name"} <= set(e)
        assert e["ts"] >= 0
        assert e["dur"] > 0
    # The HBM stream lane plus per-FU-class compute lanes are present
    # (every simulated compute slice lands on a class lane; FU_TID is the
    # fallback for events without per-class data).
    tids = {e["tid"] for e in slices if e["pid"] == export.SIM_PID}
    assert export.HBM_TID in tids
    class_tids = tids - {export.FU_TID, export.HBM_TID}
    assert class_tids, "expected per-FU-class compute lanes"
    assert class_tids <= set(export.FU_CLASS_TIDS.values())
    # Keyswitching exercises NTT and mul units, so both lanes must split out.
    assert export.FU_CLASS_TIDS["ntt"] in class_tids
    assert export.FU_CLASS_TIDS["mul"] in class_tids
    # Thread-name metadata is what makes Perfetto label the lanes.
    metas = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "thread_name" for e in metas)


def test_wall_clock_spans_and_report():
    from repro import CkksContext, CkksParams

    with obs.collecting() as c:
        ctx = CkksContext(CkksParams(degree=64, max_level=3, seed=7))
        sk = ctx.keygen()
        ct = ctx.encrypt_values(sk, [0.5])
        ctx.decrypt(sk, ctx.add(ct, ct))

    assert c.counters["fhe.ntt.forward"] >= 1
    calls, secs = c.span_totals()["ntt.forward"]
    assert calls == c.counters["fhe.ntt.forward"]
    assert secs > 0

    report = export.top_report(c)
    assert "ntt.forward" in report
    csv = export.counters_csv(c)
    assert csv.splitlines()[0] == "counter,value"
    assert any(line.startswith("fhe.ntt.forward,") for line in csv.splitlines())


def test_compiler_counters_via_compile_program():
    from repro.compiler import CompileCache, compile_program

    with obs.collecting() as c:
        compile_program(benchmark("packed_bootstrap"), cache=CompileCache())
    assert c.counters["compiler.cache.miss"] == 1
    assert c.counters["compiler.cache.store"] == 1
    assert c.counters["compiler.hoist.hoisted_groups"] == 7
    spans = c.span_totals()
    for name in ("compiler.compile", "compiler.hoist_rotations"):
        assert spans[name][0] == 1, name


def test_gauges_last_write_wins_and_export():
    from repro.obs import export

    with obs.collecting() as c:
        obs.gauge("serve.queue_depth", 3.0)
        obs.gauge("serve.queue_depth", 7.0)   # overwrites, not accumulates
        obs.gauge("serve.qps", 1234.5)
    assert c.gauges == {"serve.queue_depth": 7.0, "serve.qps": 1234.5}
    report = export.top_report(c)
    assert "Gauges" in report and "serve.qps" in report
    csv = export.gauges_csv(c)
    assert "serve.queue_depth,7" in csv
    # Disabled: gauge() is a no-op, like count().
    obs.gauge("ignored", 1.0)
