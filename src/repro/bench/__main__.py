"""``python -m repro.bench run|compare|selftest`` (with ``PYTHONPATH=src``).

* ``run`` measures every workload (each in fresh child processes, one
  at a time), prints every metric by name with its unit, and writes
  ``<out>/BENCH_<label>.json``.  ``--trace`` adds a separate traced run
  of each workload: per-layer metrics in the record, a Chrome trace in
  ``<out>/TRACE_<label>.<workload>.json``, and the per-layer table
  on stdout.
* ``compare OLD NEW`` judges two records, or two directories of runs,
  by the bounds in BENCHMARK.json (see :mod:`repro.bench.compare`).
* ``selftest`` checks the benchmark itself (:mod:`repro.bench.selftest`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import compare, harness


def print_record(rec: dict) -> None:
    status = "correct" if rec["correct"] else "FAILED"
    print(f"{rec['workload']}: {status}, {rec['attempted']} attempted, "
          f"{rec['failed']} failed")
    for name, m in rec.get("end_to_end", {}).items():
        print(f"  {name:20s} {m['value']:16.6f} {m['unit']:8s} "
              f"(n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})")
    for name, m in rec.get("per_layer", {}).items():
        print(f"  {name:40s} {m['value']:16.6f} {m['unit']}")
    for problem in rec["problems"]:
        print(f"  check failed: {problem}")
    for name in rec.get("absent", []):
        print(f"  wrapped function gone, its metrics read 0: {name}")


def run(args, spec: dict) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = {"schema": 1, "label": args.label,
              "environment": harness.environment(args.seed, args.seconds),
              "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        rec = harness.run_workload(name, args.seed, args.seconds, False,
                                   spec=spec)
        print_record(rec)
        if args.trace:
            traced = harness.run_workload(
                name, args.seed, args.seconds, True, spec=spec,
                trace_file=out / f"TRACE_{args.label}.{name}.json")
            print_record(traced)
            print(traced["layer_table"])
            rec["trace"] = traced
        record["workloads"][name] = rec
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    ok = all(r["correct"] and r.get("trace", r)["correct"]
             for r in record["workloads"].values())
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="measure every workload")
    p_run.add_argument("--label", default="local")
    p_run.add_argument("--seed", type=int, default=2022)
    p_run.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p_run.add_argument("--trace", action="store_true",
                       help="add a separate traced run per workload")
    p_run.add_argument("--out", default="bench_out")
    p_cmp = sub.add_parser("compare", help="judge NEW against OLD")
    p_cmp.add_argument("old", help="a record, or a directory of runs")
    p_cmp.add_argument("new", help="a record, or a directory of runs")
    sub.add_parser("selftest", help="check the benchmark itself")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(args, spec)
        if args.command == "compare":
            return compare.main(args.old, args.new, spec)
        from repro.bench import selftest
        return selftest.main(spec)
    except (harness.BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
