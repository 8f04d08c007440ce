"""One benchmark child: set up one workload in a fresh interpreter, then
measure it.

Started by :mod:`repro.bench.harness` (``python -m repro.bench.child``)
with a hermetic environment; writes one JSON document to ``--out``.
Phases:

* ``setup`` - imports, workload set-up and the smoke-size warm-up pass
  (which fills every lazy cache the code paths have), then exit.  The
  set-up time runs from the parent's spawn (``--t0``, a
  ``time.monotonic`` reading - the clock is system-wide) to the end of
  the warm-up.
* ``measure`` - set-up, then untraced passes until ``--seconds`` are
  used (at least :data:`MIN_PASSES`); every modeled number must repeat
  bit-for-bit across the passes.
* ``trace`` - set-up, one untraced pass, one pass with every layer's
  entry points wrapped in spans, then one untimed pass with the
  ``repro.obs`` counters on.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

MIN_PASSES = 2
# Layer spans must account for all but this share of the traced pass.
MAX_UNATTRIBUTED = 0.05


def _check_source() -> None:
    """The children must run the checkout's code, not an installed copy."""
    import repro

    src = Path(__file__).resolve().parents[2]
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def _finish(workload, first):
    """Untimed checks a workload runs once on its first pass's result."""
    finish = getattr(workload, "finish", None)
    return finish(first) if finish is not None else None


def _measure(workload, seconds: float, smoke: bool) -> dict:
    times: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    first = None
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = workload.run(smoke)
        times.append(time.perf_counter() - t)
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        if first is None:
            first = result
        elif result.modeled != first.modeled:
            drifted = sorted(k for k in first.modeled
                             if result.modeled.get(k) != first.modeled[k])
            problems.append(f"modeled numbers differ between passes: "
                            f"{drifted[:5]}")
        elapsed = time.perf_counter() - start
        if (len(times) >= MIN_PASSES
                and elapsed + statistics.median(times) > seconds):
            break
    end_to_end = dict(first.end_to_end)
    extra = _finish(workload, first)
    if extra is not None:
        end_to_end.update(extra.end_to_end)
        failed += extra.failed
        problems += extra.problems
    return {"pass_s": times, "attempted": attempted, "failed": failed,
            "problems": problems, "end_to_end": end_to_end,
            "modeled": first.modeled}


def _trace(workload, smoke: bool, trace_file: str | None) -> dict:
    from repro import obs
    from repro.bench.harness import load_spec
    from repro.bench.layers import TARGETS, derive
    from repro.bench.spans import (Recorder, chrome_trace,
                                   format_layer_table, install, restore)
    from repro.compiler.cache import default_cache

    t = time.perf_counter()
    base = workload.run(smoke)
    untraced_s = time.perf_counter() - t

    # Spans only.  repro.obs stays off here: its per-op bookkeeping in the
    # simulator would inflate the self times (it more than doubles a pod
    # pass).
    rec = Recorder()
    rec.pass_id = 1
    patches, absent = install(rec, TARGETS)
    try:
        with rec.span("bench.pass", "bench") as root:
            traced = workload.run(smoke)
    finally:
        restore(patches)
    traced_s = rec.spans[root.index].duration

    # Counters only: one more, untimed pass with repro.obs on.
    stats_before = dict(default_cache().stats)
    collector = obs.enable(bench="counted pass")
    # Per-op simulator events would hold every op of every simulated
    # program in memory.
    collector.emit_op = lambda event: None
    try:
        counted = workload.run(smoke)
    finally:
        obs.disable()
    cache_stats = {k: v - stats_before.get(k, 0)
                   for k, v in default_cache().stats.items()}
    counters = dict(collector.counters)
    for name, value in counted.counters.items():
        counters[name] = counters.get(name, 0.0) + value
    names = [m["name"] for m in load_spec()["per_layer"]]
    per_layer, unproduced = derive(names, rec.spans, counters, cache_stats,
                                   traced.layer, traced_s, untraced_s)

    passes = (base, traced, counted)
    problems = [p for r in passes for p in r.problems]
    if not base.modeled == traced.modeled == counted.modeled:
        problems.append("tracing changed modeled numbers")
    if per_layer["bench.self_s"] > MAX_UNATTRIBUTED * traced_s:
        problems.append(f"layer spans miss {per_layer['bench.self_s']:.3f}"
                        f" s of the {traced_s:.3f} s traced pass")
    if per_layer["serve.gen_lateness_max_us"] != 0.0:
        problems.append("the load generator submitted late")
    if trace_file:
        Path(trace_file).write_text(json.dumps(chrome_trace(rec.spans)))
    return {"attempted": sum(r.attempted for r in passes),
            "failed": sum(r.failed for r in passes), "problems": problems,
            "per_layer": per_layer, "absent": absent,
            "unproduced": unproduced,
            "traced_s": traced_s, "untraced_s": untraced_s,
            "layer_table": format_layer_table(rec.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    _check_source()
    from repro.bench.suite import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    warm = workload.run(smoke=True)
    extra = _finish(workload, warm)
    setup_s = time.monotonic() - args.t0
    problems = warm.problems + (extra.problems if extra else [])
    doc = {"setup_s": setup_s, "attempted": 0, "failed": 0}
    if args.phase == "measure":
        doc.update(_measure(workload, args.seconds, args.smoke))
    elif args.phase == "trace":
        doc.update(_trace(workload, args.smoke, args.trace_file))
    doc["problems"] = problems + doc.get("problems", [])
    doc["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
