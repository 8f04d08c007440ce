"""``python -m repro.bench selftest``: checks of the benchmark itself.

* the self-time arithmetic (union of children, clipping, telescoping);
* a wrapped function that no longer exists is reported absent, and its
  metrics read 0 instead of crashing the run;
* wrappers rebind every ``from m import f`` reference and restore it;
* ``compare`` verdicts (host times of single runs, headline numbers),
  drift listing and the failed-share rule on synthetic records, and the
  pooling of several runs per side;
* a smoke-size run of every workload, untraced and traced, whose record
  carries exactly the metric names and units of BENCHMARK.json; every
  per-layer name is produced by some workload and every headline number
  ``compare`` judges is in its workload's record.
"""

from __future__ import annotations

import math
import traceback


def _span(name, start, end, parent=-1):
    from repro.bench.spans import Span

    return Span(name, name.split(".")[0], start, end, parent, 0)


def check_self_times() -> None:
    from repro.bench.spans import self_times, union_length

    # Sequential children telescope: self times sum to the root.
    spans = [_span("bench.pass", 0.0, 10.0), _span("core.a", 1.0, 4.0, 0),
             _span("core.b", 5.0, 9.0, 0), _span("fhe.c", 2.0, 3.0, 1)]
    assert self_times(spans) == [3.0, 2.0, 4.0, 1.0]
    assert sum(self_times(spans)) == 10.0
    # Overlapping children count once; a child past its parent is clipped.
    assert union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)],
                        0.0, 10.0) == 7.0
    spans = [_span("bench.pass", 0.0, 10.0), _span("core.a", 1.0, 4.0, 0),
             _span("core.b", 3.0, 12.0, 0)]
    assert self_times(spans)[0] == 1.0


def check_absent_targets() -> None:
    from repro.bench.layers import derive
    from repro.bench.spans import Recorder, Target, install

    gone = [Target("core.gone", "repro.core.simulator", "no_such_function"),
            Target("core.gone_class", "repro.core.simulator", "Nope.method"),
            Target("x.module", "repro.no_such_module", "f")]
    patches, absent = install(Recorder(), gone)
    assert patches == [] and absent == [t.name for t in gone]
    names = ["core.simulate.calls", "core.gone.self_s"]
    metrics, unproduced = derive(names, [], {}, {}, {}, traced_s=1.0,
                                 untraced_s=1.0)
    assert metrics == {"core.simulate.calls": 0.0, "core.gone.self_s": 0.0}
    assert unproduced == ["core.gone.self_s"]


def check_install_restore() -> None:
    import repro.core.simulator as simulator
    import repro.pod.simulator as pod_simulator
    from repro.bench.spans import Recorder, Target, install, restore
    from repro.core import ChipConfig
    from repro.workloads import benchmark

    original = simulator.simulate
    rec = Recorder()
    patches, absent = install(rec, [Target("core.simulate",
                                           "repro.core.simulator",
                                           "simulate")])
    try:
        assert absent == []
        assert pod_simulator.simulate is simulator.simulate is not original
        pod_simulator.simulate(benchmark("unpacked_bootstrap"), ChipConfig())
    finally:
        restore(patches)
    assert [s.name for s in rec.spans] == ["core.simulate"]
    assert simulator.simulate is original is pod_simulator.simulate


def _metric(samples, unit="s"):
    samples = sorted(samples)
    n = len(samples)
    return {"value": samples[n // 2], "unit": unit, "n": n,
            "q1": samples[0], "q3": samples[-1], "samples": samples}


def _record(wall, speedup=2.0, failed=0, modeled=None, runs=3):
    return {"runs": runs, "workloads": {"w": {
        "attempted": 10, "failed": failed, "correct": True, "problems": [],
        "end_to_end": {"wall_s": _metric(wall),
                       "sim_speedup_gmean": _metric([speedup], "x")},
        "modeled": modeled or {"w.cycles": 1.0},
    }}}


def check_compare() -> None:
    from repro.bench.compare import compare, verdict

    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "sim_speedup_gmean", "unit": "x", "better": "higher",
         "bound": 0.005}]}
    old = _metric([9.9, 10.0, 10.1])
    assert verdict(old, _metric([11.9, 12.0, 12.1]), 0.1, "lower") \
        == "regressed"
    assert verdict(old, _metric([10.1, 10.2, 10.3]), 0.1, "lower") \
        == "unchanged"
    assert verdict(old, _metric([7.9, 8.0, 8.1]), 0.1, "lower") \
        == "improved"
    assert verdict(old, _metric([8.0, 12.0, 16.0]), 0.1, "lower") \
        == "unresolved"
    # Too noisy for the bound, but every new run beats every old run.
    assert verdict(_metric([10.0, 10.5, 11.0]), _metric([8.0, 8.5, 9.0]),
                   0.01, "lower") == "improved"
    assert verdict(_metric([2.0], "x"), _metric([1.9], "x"), 0.005,
                   "higher") == "regressed"

    base = _record([9.9, 10.0, 10.1])
    rows, drifts, problems = compare(base, base, spec)
    assert [r[4] for r in rows] == ["unchanged", "unchanged"]
    assert drifts == [] and problems == []
    rows, drifts, problems = compare(
        base, _record([9.9, 10.0, 10.1], modeled={"w.cycles": 2.0}), spec)
    assert drifts == ["drift: declare w w.cycles: 1.0 -> 2.0"]
    assert problems == []           # drift is declared, not failed
    _, _, problems = compare(base, _record([9.9, 10.0, 10.1], failed=1),
                             spec)
    assert any("failed-operations share" in p for p in problems)
    _, _, problems = compare(base, _record([11.9, 12.0, 12.1]), spec)
    assert problems == ["w: wall_s regressed"]
    _, _, problems = compare(base, {"workloads": {}}, spec)
    assert problems == ["w: missing from NEW"]
    # One run a side: its passes agree, but a host time past the bound
    # may be noise between runs, either way.
    single = _record([9.9, 10.0, 10.1], runs=1)
    rows, _, problems = compare(single, _record([11.9, 12.0, 12.1], runs=1),
                                spec)
    assert rows[0][4] == "unresolved" and problems == []
    rows, _, _ = compare(single, _record([7.9, 8.0, 8.1], runs=1), spec)
    assert rows[0][4] == "unresolved"
    rows, _, _ = compare(single, _record([10.1, 10.2, 10.3], runs=1), spec)
    assert rows[0][4] == "unchanged"
    rows, _, problems = compare(single, _record([10.0], speedup=1.9, runs=1),
                                spec)
    assert rows[1][4] == "regressed" and problems \
        == ["w: sim_speedup_gmean regressed"]


def check_headlines() -> None:
    from repro.bench.compare import HEADLINES, compare, headline_verdict

    assert headline_verdict(0.20, 0.215, "lower", 0.01, "absolute") \
        == "regressed"
    assert headline_verdict(0.20, 0.205, "lower", 0.01, "absolute") \
        == "unchanged"
    assert headline_verdict(0.90, 0.88, "higher", 0.01, "absolute") \
        == "regressed"
    assert headline_verdict(10.0, 10.4, "lower", 0.05, "share") \
        == "unchanged"
    assert headline_verdict(10.0, 20.0, "lower", 0.05, "share") \
        == "regressed"
    assert headline_verdict(10.0, 9.0, "lower", 0.05, "share") \
        == "improved"

    spec = {"end_to_end": []}
    keys = [h[0] for h in HEADLINES["serve"]]

    def serve(p99, goodput):
        modeled = dict.fromkeys(keys, 1.0)
        modeled.update({"serve.p99_ms.300k": p99,
                        "serve.goodput.300k": goodput})
        return {"workloads": {"serve": {
            "attempted": 10, "failed": 0, "correct": True, "problems": [],
            "end_to_end": {}, "modeled": modeled}}}

    rows, drifts, problems = compare(serve(4.0, 0.9), serve(8.0, 0.45),
                                     spec)
    assert problems == ["serve: serve.p99_ms.300k regressed",
                        "serve: serve.goodput.300k regressed"]
    assert len(drifts) == 2 and len(rows) == len(keys)
    _, _, problems = compare(serve(4.0, 0.9), serve(4.1, 0.895), spec)
    assert problems == []


def check_pool() -> None:
    from repro.bench.compare import pool

    # Three runs whose passes agree closely but whose run values do not:
    # the pooled spread is the run-to-run one.
    runs = [_record([w - 0.01, w, w + 0.01]) for w in (9.0, 10.0, 12.0)]
    pooled = pool(runs)["workloads"]["w"]
    wall = pooled["end_to_end"]["wall_s"]
    assert wall["value"] == 10.0 and wall["samples"] == [9.0, 10.0, 12.0]
    assert wall["q3"] - wall["q1"] > 1.0
    assert pooled["attempted"] == 30 and pooled["correct"]
    assert pool(runs)["runs"] == 3
    assert pool(runs[:1]) is runs[0]
    drifted = pool([runs[0], _record([10.0], modeled={"w.cycles": 2.0})])
    assert drifted["workloads"]["w"]["problems"] \
        == ["modeled numbers differ between runs"]


def check_smoke_runs(spec: dict) -> None:
    from repro.bench.compare import HEADLINES
    from repro.bench.harness import run_workload

    groups = {False: ("end_to_end", spec["end_to_end"]),
              True: ("per_layer", spec["per_layer"])}
    unproduced = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, (key, metrics) in groups.items():
            rec = run_workload(w["name"], 2022, 0.5, trace, smoke=True,
                               spec=spec)
            assert rec["correct"], (w["name"], trace, rec["problems"])
            assert rec["attempted"] >= 1 and rec["failed"] == 0
            assert {n: m["unit"] for n, m in rec[key].items()} \
                == {m["name"]: m["unit"] for m in metrics}
            for name, m in rec[key].items():
                assert math.isfinite(m["value"]), (w["name"], name)
                if not trace:
                    assert m["value"] != 0.0, (w["name"], name)
            if trace:
                assert rec["absent"] == [], rec["absent"]
                unproduced &= set(rec["unproduced"])
            else:
                for headline in HEADLINES.get(w["name"], ()):
                    assert headline[0] in rec["modeled"], headline
    # A per-layer name no workload produces is a typo or a lost metric.
    assert not unproduced, sorted(unproduced)


def main(spec: dict) -> int:
    checks = [check_self_times, check_absent_targets, check_install_restore,
              check_compare, check_headlines, check_pool,
              lambda: check_smoke_runs(spec)]
    names = ["self_times", "absent_targets", "install_restore", "compare",
             "headlines", "pool", "smoke_runs"]
    failures = 0
    for name, check in zip(names, checks):
        try:
            check()
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    return 1 if failures else 0
