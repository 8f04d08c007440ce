"""Per-layer metrics: which entry points are wrapped, and what the
traced pass reports for each layer.

The metric names and units are BENCHMARK.json's ``per_layer`` list.
Every one is reported on every workload; a layer a workload never
enters reads 0 (no calls, no time), which is the prediction for that
workload.  Names are ``<module>.<thing>``.
"""

from __future__ import annotations

from repro.bench.spans import Span, Target, has_ancestor, self_times

FHE_OPS = ("rotate", "pmult", "square", "rescale", "add", "keygen",
           "rotation_hint", "encrypt_values", "decrypt")
FHE_CACHES = ("conversion", "hint", "plaintext", "kshgen")
LAYERS = ("workloads", "compiler", "core", "baselines", "pod", "serve",
          "fhe", "reliability")


def _program_ops(args, result):
    return {"ops": len(args[0].ops)}


def _result_ops(args, result):
    return {"ops": len(result.ops)} if result is not None else None


def _batch(args, result):
    server = args[0]
    return {"batch": server.batches[-1].batch_id} if result else None


def _advance_to(args, result):
    return {"target": args[1]}


def _submit(args, result):
    return {"now": args[0].clock.now()}


TARGETS = (
    Target("workloads.benchmark", "repro.workloads", "benchmark",
           _result_ops),
    Target("compiler.compile_program", "repro.compiler.cache",
           "compile_program"),
    Target("compiler.hoist_rotations", "repro.compiler.hoisting",
           "hoist_rotations"),
    Target("compiler.order_for_pressure", "repro.compiler.ordering",
           "order_for_pressure"),
    Target("core.simulate", "repro.core.simulator", "simulate",
           _program_ops),
    Target("baselines.cpu.seconds", "repro.baselines.cpu",
           "CpuModel.seconds"),
    Target("pod.simulate_pod", "repro.pod.simulator", "simulate_pod"),
    Target("pod.partition", "repro.pod.partition", "partition"),
    Target("serve.run_campaign", "repro.serve.loadgen", "run_campaign"),
    Target("serve.init", "repro.serve.server", "Server.__init__"),
    Target("serve.submit", "repro.serve.server", "Server.submit", _submit),
    Target("serve.pump", "repro.serve.server", "Server.pump", _batch),
    Target("serve.clock.advance_to", "repro.serve.clock",
           "VirtualClock.advance_to", _advance_to),
    *(Target(f"fhe.{op}", "repro.fhe.ckks", f"CkksContext.{op}")
      for op in FHE_OPS),
    Target("reliability.executor", "repro.reliability.recovery",
           "RecoveringExecutor.run"),
)

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, round(q * (len(values) - 1)))]


def derive(names, spans: list[Span], counters: dict[str, float],
           cache_stats: dict[str, int], workload_layer: dict[str, float],
           traced_s: float, untraced_s: float
           ) -> tuple[dict[str, float], list[str]]:
    """The metrics ``names`` from one traced pass: its spans, the
    ``repro.obs`` counters it harvested, the compile cache's stat deltas,
    and the modeled per-layer values the workload returned.

    Returns ``(metrics, unproduced)``: a name nothing here or in the
    workload produced reads 0 and is listed in ``unproduced``."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for s, t in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        own[s.name] = own.get(s.name, 0.0) + t
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + t
        durations.setdefault(s.name, []).append(s.duration)
    sims = [i for i, s in enumerate(spans) if s.name == "core.simulate"]
    sim_ops = sum(spans[i].attrs["ops"] for i in sims)
    pumps = [s.duration for s in spans
             if s.name == "serve.pump" and s.attrs]
    target = None
    lateness = 0.0
    for s in spans:
        if s.name == "serve.clock.advance_to":
            target = s.attrs["target"]
        elif s.name == "serve.submit" and target is not None:
            lateness = max(lateness, s.attrs["now"] - target)
    c = counters
    out = {f"{layer}.self_s": by_layer.get(layer, 0.0)
           for layer in (*LAYERS, "bench")}
    out.update(workload_layer)
    out.update({
        "obs.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        "workloads.benchmark.calls": calls.get("workloads.benchmark", 0),
        "workloads.benchmark.self_s": own.get("workloads.benchmark", 0.0),
        "workloads.ops": sum(s.attrs["ops"] for s in spans
                             if s.name == "workloads.benchmark" and s.attrs),
        "compiler.compile_program.calls":
            calls.get("compiler.compile_program", 0),
        "compiler.compile_program.self_s":
            own.get("compiler.compile_program", 0.0),
        "compiler.hoist_rotations.self_s":
            own.get("compiler.hoist_rotations", 0.0),
        "compiler.order_for_pressure.self_s":
            own.get("compiler.order_for_pressure", 0.0),
        "compiler.order_for_pressure.sim_calls": sum(
            has_ancestor(spans, i, "compiler.order_for_pressure")
            for i in sims),
        "compiler.reorder.accept_ratio": _ratio(
            c.get("compiler.reorder.gate_accepted", 0.0),
            c.get("compiler.reorder.gate_accepted", 0.0)
            + c.get("compiler.reorder.gate_rejected", 0.0)),
        "compiler.hoist.groups": c.get("compiler.hoist.hoisted_groups", 0.0),
        "compiler.cache.hit_ratio": _ratio(
            cache_stats.get("hit", 0),
            cache_stats.get("hit", 0) + cache_stats.get("miss", 0)),
        "core.simulate.calls": len(sims),
        "core.simulate.self_s": own.get("core.simulate", 0.0),
        "core.simulate.us_per_op": _ratio(
            1e6 * own.get("core.simulate", 0.0), sim_ops),
        "baselines.cpu.seconds.self_s": own.get("baselines.cpu.seconds", 0.0),
        "pod.simulate_pod.calls": calls.get("pod.simulate_pod", 0),
        "pod.partition.self_s": own.get("pod.partition", 0.0),
        "pod.sim_calls_per_pod": _ratio(
            sum(has_ancestor(spans, i, "pod.simulate_pod") for i in sims),
            calls.get("pod.simulate_pod", 0)),
        "pod.mincut.applied_ratio": _ratio(
            c.get("compiler.mincut.applied", 0.0),
            c.get("compiler.mincut.considered", 0.0)),
        "serve.init.self_s": own.get("serve.init", 0.0),
        "serve.submit.p50_us": 1e6 * _pct(durations.get("serve.submit", []),
                                          0.50),
        "serve.submit.p99_us": 1e6 * _pct(durations.get("serve.submit", []),
                                          0.99),
        "serve.pump.p50_ms": 1e3 * _pct(pumps, 0.50),
        "serve.pump.p99_ms": 1e3 * _pct(pumps, 0.99),
        "serve.gen_lateness_max_us": 1e6 * lateness,
        "reliability.executor.self_s": own.get("reliability.executor", 0.0),
        "reliability.executor.runs_per_dispatch": _ratio(
            calls.get("reliability.executor", 0),
            workload_layer.get("serve.dispatches", 0.0)),
    })
    for op in FHE_OPS:
        out[f"fhe.{op}.calls"] = calls.get(f"fhe.{op}", 0)
        out[f"fhe.{op}.self_s"] = own.get(f"fhe.{op}", 0.0)
    for cache in FHE_CACHES:
        hit = c.get(f"fhe.cache.{cache}.hit", 0.0)
        out[f"fhe.cache.{cache}.hit_ratio"] = _ratio(
            hit, hit + c.get(f"fhe.cache.{cache}.miss", 0.0))
    return ({name: float(out.get(name, 0.0)) for name in names},
            [name for name in names if name not in out])
