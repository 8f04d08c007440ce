"""Parent side of the benchmark: hermetic children, one workload at a time.

:func:`run_workload` measures one workload the way every entry point
does - the one-workload script (``run.py``) and ``python -m repro.bench
run`` both call it.  Untraced, it starts :data:`SETUP_SAMPLES` fresh
child interpreters one after another: all of them time their set-up, the
middle one also runs the timed passes, so the set-up samples are spread
over the whole run rather than bunched into one moment of the host's
load.  Traced, it starts one child that
runs an untraced, a span-traced and a counted pass.  This module imports
only the standard library, so the parent's own imports never touch the
layers it measures.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
SPEC_PATH = ROOT / "BENCHMARK.json"
TMP_ROOT = ROOT / ".bench_tmp"
SETUP_SAMPLES = 7
# Wall-clock budget for one workload run, children included.
RUN_BUDGET_S = 170.0
# Environment variables that would change what a child measures: the
# first routes every simulate() through the compiler (changing Table 3),
# the second turns on session-wide tracing.
_UNSET = ("REPRO_COMPILE_CACHE", "REPRO_OBS_CSV")


class BenchError(RuntimeError):
    """A child failed to produce a result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def check_checkout() -> None:
    """Refuse to run outside a full checkout (nothing to measure)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}")


def hermetic_env(tmp: Path) -> dict[str, str]:
    """Child environment: this checkout's code, a fresh compile-cache and
    temp directory inside the checkout, single-threaded numerics."""
    env = {k: v for k, v in os.environ.items() if k not in _UNSET}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_CACHE_DIR": str(tmp / "compile-cache"),
        "XDG_CACHE_HOME": str(tmp / "xdg"),
        "TMPDIR": str(tmp),
    })
    return env


def _child(workload: str, seed: int, seconds: float, phase: str, *,
           smoke: bool, deadline: float, trace_file: Path | None = None
           ) -> dict:
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{phase}-",
                                dir=TMP_ROOT))
    out = tmp / "result.json"
    cmd = [sys.executable, "-m", "repro.bench.child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--phase", phase, "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=hermetic_env(tmp), cwd=ROOT,
            stdout=sys.stderr, timeout=max(1.0, deadline - t0))
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"{workload} {phase} child exited "
                             f"{proc.returncode}")
        return json.loads(out.read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {phase} child ran out of the "
                         f"{RUN_BUDGET_S:.0f} s budget") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def _quartiles(samples: list[float]) -> tuple[float, float]:
    """Quartiles that stay inside the samples (the default "exclusive"
    method extrapolates past them when there are few)."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q3


def summary(value: float, unit: str, samples: list[float]) -> dict:
    """One metric in a record: its value, unit, samples, quartiles and n."""
    q1, q3 = _quartiles(samples)
    return {"value": value, "unit": unit, "n": len(samples),
            "q1": q1, "q3": q3, "samples": samples}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 smoke: bool = False, trace_file: Path | None = None,
                 spec: dict | None = None) -> dict:
    """Measure one workload; returns its record (see README.md)."""
    spec = spec or load_spec()
    check_checkout()
    deadline = time.monotonic() + RUN_BUDGET_S
    kw = {"smoke": smoke, "deadline": deadline}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "smoke": smoke}
    if trace:
        doc = _child(workload, seed, seconds, "trace", trace_file=trace_file,
                     **kw)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        got = doc["per_layer"]
        record["per_layer"] = {name: {"value": got[name], "unit": unit}
                               for name, unit in units.items()
                               if name in got}
        for key in ("absent", "unproduced", "traced_s", "untraced_s",
                    "layer_table"):
            record[key] = doc[key]
    else:
        def setup() -> float:
            return _child(workload, seed, seconds, "setup", **kw)["setup_s"]

        before = SETUP_SAMPLES // 2
        setups = [setup() for _ in range(before)]
        doc = _child(workload, seed, seconds, "measure", **kw)
        setups.append(doc["setup_s"])
        setups += [setup() for _ in range(SETUP_SAMPLES - 1 - before)]
        values = {
            "setup_s": (statistics.median(setups), setups),
            "wall_s": (statistics.median(doc["pass_s"]), doc["pass_s"]),
            "peak_rss_mb": (doc["peak_rss_mb"], [doc["peak_rss_mb"]]),
            **{k: (v, [v]) for k, v in doc["end_to_end"].items()},
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        record["end_to_end"] = {
            name: summary(values[name][0], unit, values[name][1])
            for name, unit in units.items() if name in values}
        record["modeled"] = doc["modeled"]
        got = set(values)
    missing = sorted(set(units) - set(got))
    problems = list(doc["problems"])
    if missing:
        problems.append(f"metrics not produced: {missing}")
    record.update({"attempted": doc["attempted"], "failed": doc["failed"],
                   "correct": not problems, "problems": problems})
    return record


def environment(seed: int, seconds: float) -> dict:
    """Provenance stored in every record."""
    import importlib.metadata

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy, "nproc": os.cpu_count(), "seed": seed,
            "seconds": seconds, "setup_samples": SETUP_SAMPLES,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def script_main(argv=None) -> int:
    """``run.py``: one workload, one JSON result line on stdout."""
    import argparse

    spec = load_spec()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), spec=spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in record.get("absent", []):
        print(f"wrapped function gone, its metrics read 0: {name}",
              file=sys.stderr)
    metrics = record["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if record["correct"] else 1
