"""``python -m repro.bench compare OLD NEW``: two BENCH records, judged
by the bounds in BENCHMARK.json.

OLD and NEW are each a record or a directory of records (``BENCH_*.json``),
one per ``run`` of the same commit.  Several runs are pooled
(:func:`pool`): a metric's value is the median over the runs and its
quartiles are those of the runs' values, i.e. the run-to-run spread.  A
single record's quartiles only cover the passes within one run, which
on a shared host understates the noise between runs.

Every end-to-end metric of every workload gets one verdict:

* ``unresolved`` - either side's quartile spread, as a share of its
  median, is wider than the bound, so the two cannot be told apart
  (unless every NEW sample beats every OLD sample: ``improved``);
* ``regressed`` / ``improved`` - NEW's median is worse / better than
  OLD's by more than the bound;
* ``unchanged`` - otherwise.

When either side is a single run, a host time (:data:`HOST_TIMES`) is
``unchanged`` or ``unresolved``: only pooled runs measure its
run-to-run noise.

The workload-specific headline numbers in :data:`HEADLINES` (exact
modeled values) get ``regressed``/``improved``/``unchanged`` by their
own bounds.  Every modeled number (simulated cycles, virtual-clock
latencies, exact layer counts) that differs at all is also listed as
``drift: declare`` - a change that moves one must say why.  The exit
status is nonzero on a regression, a missing workload or metric, a
failed correctness check in NEW, or a higher failed-operations share
than OLD.  Compare records of the same ``--seed``: the serve numbers
depend on it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from repro.bench.harness import summary

# End-to-end metrics read off the host clock.  Within one run their
# samples are that run's passes or set-up children, which agree more
# closely than whole runs do on a shared machine.
HOST_TIMES = ("setup_s", "wall_s")

# The headline numbers that are not end-to-end metrics (an end-to-end
# metric must exist on every workload): entries of a workload's
# ``modeled`` map, each with its better direction and bound, an absolute
# difference or a share of OLD.  The simulated-time gmeans and the pod
# speedup and fill latency are the ``sim_cycles_gmean`` and
# ``sim_speedup_gmean`` end-to-end metrics.
HEADLINES = {
    "table3": (("baselines.paper_err", "lower", 0.01, "absolute"),),
    "serve": (("serve.p50_ms.300k", "lower", 0.05, "share"),
              ("serve.p99_ms.50k", "lower", 0.05, "share"),
              ("serve.p99_ms.300k", "lower", 0.05, "share"),
              ("serve.goodput.50k", "higher", 0.01, "absolute"),
              ("serve.goodput.300k", "higher", 0.01, "absolute")),
}


def load(path: str) -> list[dict]:
    """The record at ``path``, or every ``BENCH_*.json`` in a directory."""
    p = Path(path)
    files = sorted(p.glob("BENCH_*.json")) if p.is_dir() else [p]
    if not files:
        raise FileNotFoundError(f"no BENCH_*.json records in {p}")
    return [json.loads(f.read_text()) for f in files]


def pool(records: list[dict]) -> dict:
    """Runs of one commit as one record (see the module docstring).  A
    workload's modeled numbers must agree across the runs."""
    if len(records) == 1:
        return records[0]
    names = dict.fromkeys(n for r in records for n in r["workloads"])
    workloads = {}
    for name in names:
        runs = [r["workloads"][name] for r in records
                if name in r["workloads"]]
        problems = [p for run in runs for p in run["problems"]]
        if len(runs) < len(records):
            problems.append(f"missing from {len(records) - len(runs)} runs")
        if any(run["modeled"] != runs[0]["modeled"] for run in runs):
            problems.append("modeled numbers differ between runs")
        end_to_end = {}
        for metric, m in runs[0]["end_to_end"].items():
            values = [run["end_to_end"][metric]["value"] for run in runs
                      if metric in run["end_to_end"]]
            end_to_end[metric] = summary(statistics.median(values),
                                         m["unit"], values)
        workloads[name] = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "correct": not problems, "problems": problems,
            "end_to_end": end_to_end, "modeled": runs[0]["modeled"]}
    return {"runs": len(records), "workloads": workloads}


def _spread(metric: dict) -> float:
    value = metric["value"]
    return (metric["q3"] - metric["q1"]) / abs(value) if value else 0.0


def _judge(worse: float, bound: float) -> str:
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def verdict(old: dict, new: dict, bound: float, better: str, *,
            single_run: bool = False) -> str:
    """One end-to-end metric: ``old``/``new`` carry value, q1, q3 and
    samples (see :func:`repro.bench.harness.run_workload`).
    ``single_run``: a side holds one run of a host time, whose run-to-run
    noise is unknown, so a change past the bound cannot be told from
    noise."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(old["value"]) or 1.0
    worse = sign * (new["value"] - old["value"]) / base
    if max(_spread(old), _spread(new)) > bound:
        if better == "lower":
            separated = max(new["samples"]) < min(old["samples"])
        else:
            separated = min(new["samples"]) > max(old["samples"])
        result = "improved" if separated else "unresolved"
    else:
        result = _judge(worse, bound)
    if single_run and result != "unchanged":
        return "unresolved"
    return result


def headline_verdict(old: float, new: float, better: str, bound: float,
                     kind: str) -> str:
    """One exact modeled headline number (see :data:`HEADLINES`)."""
    sign = 1.0 if better == "lower" else -1.0
    change = new - old
    if kind == "share":
        change /= abs(old) or 1.0
    return _judge(sign * change, bound)


def _failed_share(rec: dict) -> float:
    return rec["failed"] / rec["attempted"] if rec["attempted"] else 0.0


def compare(old: dict, new: dict, spec: dict):
    """Returns ``(rows, drifts, problems)``: one row per (workload,
    metric), one line per drifted modeled number, and every reason to
    fail."""
    rows, drifts, problems = [], [], []
    single_run = min(old.get("runs", 1), new.get("runs", 1)) < 2
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            problems.append(f"{workload}: missing from NEW")
            continue
        if not after["correct"]:
            problems.append(f"{workload}: NEW failed its checks: "
                            f"{after['problems']}")
        if _failed_share(after) > _failed_share(before):
            problems.append(f"{workload}: failed-operations share rose to "
                            f"{after['failed']}/{after['attempted']}")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = before["end_to_end"].get(name)
            b = after["end_to_end"].get(name)
            if a is None or b is None:
                rows.append((workload, name, a, b, "absent"))
                problems.append(f"{workload}: {name} absent")
                continue
            v = verdict(a, b, m["bound"], m["better"],
                        single_run=single_run and name in HOST_TIMES)
            rows.append((workload, name, a, b, v))
            if v == "regressed":
                problems.append(f"{workload}: {name} regressed")
        modeled_a, modeled_b = before["modeled"], after["modeled"]
        for key, better, bound, kind in HEADLINES.get(workload, ()):
            a, b = modeled_a.get(key), modeled_b.get(key)
            if a is None or b is None:
                rows.append((workload, key, None, None, "absent"))
                problems.append(f"{workload}: {key} absent")
                continue
            v = headline_verdict(a, b, better, bound, kind)
            rows.append((workload, key, {"value": a}, {"value": b}, v))
            if v == "regressed":
                problems.append(f"{workload}: {key} regressed")
        for key in sorted(set(modeled_a) | set(modeled_b)):
            if modeled_a.get(key) != modeled_b.get(key):
                drifts.append(f"drift: declare {workload} {key}: "
                              f"{modeled_a.get(key)!r} -> "
                              f"{modeled_b.get(key)!r}")
    return rows, drifts, problems


def format_rows(rows) -> str:
    lines = [f"{'workload':13s} {'metric':20s} {'old':>14s} {'new':>14s} "
             f"{'change':>8s}  verdict"]
    for workload, name, a, b, v in rows:
        if a is None or b is None:
            lines.append(f"{workload:13s} {name:20s} {'':>14s} {'':>14s} "
                         f"{'':>8s}  {v}")
            continue
        change = ((b["value"] - a["value"]) / abs(a["value"])
                  if a["value"] else 0.0)
        lines.append(f"{workload:13s} {name:20s} {a['value']:14.6g} "
                     f"{b['value']:14.6g} {change:+8.2%}  {v}")
    return "\n".join(lines)


def main(old_path: str, new_path: str, spec: dict) -> int:
    old, new = load(old_path), load(new_path)
    print(f"OLD: {len(old)} run(s), NEW: {len(new)} run(s)")
    rows, drifts, problems = compare(pool(old), pool(new), spec)
    print(format_rows(rows))
    for line in drifts:
        print(line)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0
