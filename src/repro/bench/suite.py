"""The four benchmark workloads, driven only through public entry points.

Each workload is built once per process (its set-up: configs, seeds)
and then run pass after pass.  A pass returns a :class:`PassResult`:
how many operations it attempted and how many failed their correctness
checks, every modeled number it produced (simulated cycles, virtual-clock
latencies - these must repeat bit-for-bit across passes), its two
end-to-end modeled metrics, and the per-layer values only the workload
can see.  ``smoke=True`` runs the same code paths on the smallest inputs
(packed_bootstrap only; 30 serve requests per load point): it is the
warm-up inside every set-up and the size the self-test runs at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import obs
from repro.analysis import gmean
from repro.baselines import CpuModel, f1plus_config
from repro.compiler import compile_program
from repro.core import ChipConfig, simulate
from repro.pod import PodConfig, simulate_pod
from repro.reliability import ReproError
from repro.reliability.validate import validate_program
from repro.serve import LoadSpec, ServeConfig, run_campaign
from repro.workloads import (ALL_BENCHMARKS, DEEP_BENCHMARKS,
                             SHALLOW_BENCHMARKS, benchmark)
from repro.workloads.serving import SERVE_KINDS, serving_program

# The paper's Table 3 (execution time in ms; speedups over F1+ and the
# CPU), the reference column of benchmarks/results/table3_performance.txt.
PAPER_TABLE3 = {
    "resnet20": {"cl_ms": 249.45, "f1plus_x": 10.8, "cpu_x": 5519},
    "logreg": {"cl_ms": 119.52, "f1plus_x": 5.34, "cpu_x": 2978},
    "lstm": {"cl_ms": 138.00, "f1plus_x": 18.6, "cpu_x": 6225},
    "packed_bootstrap": {"cl_ms": 3.91, "f1plus_x": 14.9, "cpu_x": 4398},
    "unpacked_bootstrap": {"cl_ms": 0.10, "f1plus_x": 2.04, "cpu_x": 8612},
    "lola_cifar": {"cl_ms": 50.50, "f1plus_x": 1.86, "cpu_x": 3695},
    "lola_mnist_uw": {"cl_ms": 0.14, "f1plus_x": 0.97, "cpu_x": 4152},
    "lola_mnist_ew": {"cl_ms": 0.24, "f1plus_x": 0.88, "cpu_x": 5621},
}

SMOKE_BENCHMARKS = ("packed_bootstrap",)
POD_BENCHMARKS = ("resnet20", "logreg", "packed_bootstrap")
POD_CHIPS = 8
POD_FLOOR = 3.0          # 8-chip model-parallel packed_bootstrap (CI gate)
# (label, qps, requests): each p99 keeps >= 10 completions beyond it.
SERVE_LOADS = (("50k", 50_000.0, 1500), ("300k", 300_000.0, 2400))
SMOKE_REQUESTS = 30
MIN_TAIL = 10
SHED_REASONS = ("overload", "deadline", "breaker", "invalid")
SERVE_PHASES = ("pack", "score", "reduce", "mask", "score2", "reduce2",
                "emit")


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    modeled: dict[str, float] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)  # repro.obs
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Record ``problem`` unless ``ok``; counts one failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


def core_stats(results) -> dict[str, float]:
    """Modeled per-layer totals over a workload's CraterLake runs."""
    cycles = sum(r.cycles for r in results)
    return {
        "core.cycles": cycles,
        "core.stall_cycles": sum(r.stall_cycles for r in results),
        "core.rf_evictions": float(sum(r.rf_evictions for r in results)),
        "core.traffic_words": sum(sum(r.traffic_words.values())
                                  for r in results),
        "core.fu_util": (sum(r.fu_utilization() * r.cycles for r in results)
                         / cycles if cycles else 0.0),
    }


class Table3:
    """All 8 Table 3 benchmarks as plain programs on CraterLake and F1+,
    plus the CPU model.  Simulate-bound, compiler-free."""

    name = "table3"

    def __init__(self, seed: int):
        self.cl = ChipConfig()
        self.f1 = f1plus_config()
        self.cpu = CpuModel()

    def run(self, smoke: bool = False) -> PassResult:
        out = PassResult()
        rows = {}
        cl_runs = []
        for name in SMOKE_BENCHMARKS if smoke else ALL_BENCHMARKS:
            program = benchmark(name)
            cl = simulate(program, self.cl)
            f1 = simulate(program, self.f1)
            cpu_s = self.cpu.seconds(program)
            out.attempted += 1
            cl_runs.append(cl)
            row = rows[name] = {"cl_ms": cl.milliseconds,
                                "f1plus_x": f1.milliseconds / cl.milliseconds,
                                "cpu_x": cpu_s / cl.seconds}
            out.modeled[f"{name}.cl_cycles"] = cl.cycles
            out.modeled[f"{name}.f1plus_cycles"] = f1.cycles
            out.modeled[f"{name}.cpu_s"] = cpu_s
            ratio = row["cl_ms"] / PAPER_TABLE3[name]["cl_ms"]
            out.check(0.4 < ratio < 2.5,
                      f"{name}: CL ms {ratio:.2f}x the paper's, outside "
                      "the 0.4-2.5x band")
        deep = [n for n in DEEP_BENCHMARKS if n in rows]
        deep_f1 = gmean(rows[n]["f1plus_x"] for n in deep)
        deep_cpu = gmean(rows[n]["cpu_x"] for n in deep)
        if not smoke:
            # The headline shape bands of benchmarks/test_table3_performance.
            shallow_f1 = gmean(rows[n]["f1plus_x"] for n in SHALLOW_BENCHMARKS)
            out.check(5.6 < deep_f1 < 22.4, f"deep gmean vs F1+ {deep_f1:.2f}")
            out.check(2300 < deep_cpu < 9300,
                      f"deep gmean vs CPU {deep_cpu:.0f}")
            out.check(shallow_f1 < 3.0 and deep_f1 > 3 * shallow_f1,
                      f"shallow gmean vs F1+ {shallow_f1:.2f}")
            out.check(min(rows[n]["f1plus_x"] for n in DEEP_BENCHMARKS)
                      > max(rows[n]["f1plus_x"] for n in SHALLOW_BENCHMARKS),
                      "a shallow benchmark beats F1+ by more than a deep one")
            out.check(rows["resnet20"]["cl_ms"] < 400
                      and rows["resnet20"]["cpu_x"] > 1000,
                      "resnet20 is not real-time")
        cells = [abs(math.log(rows[n][k] / PAPER_TABLE3[n][k]))
                 for n in rows for k in ("cl_ms", "f1plus_x", "cpu_x")]
        out.end_to_end = {
            "sim_cycles_gmean": gmean(r.cycles for r in cl_runs),
            "sim_speedup_gmean": deep_f1,
        }
        out.layer = {
            **core_stats(cl_runs),
            "baselines.f1plus.deep_gmean_x": deep_f1,
            "baselines.cpu.deep_gmean_x": deep_cpu,
            "baselines.paper_err": sum(cells) / len(cells),
        }
        out.modeled.update(out.layer)
        return out


class DeepCompile:
    """The deep benchmarks lowered by ``compile_program(cache=None)`` and
    simulated.  Compile-bound: where compiler changes show."""

    name = "deep_compile"

    def __init__(self, seed: int):
        self.cl = ChipConfig()

    def run(self, smoke: bool = False) -> PassResult:
        out = PassResult()
        runs = []
        for name in SMOKE_BENCHMARKS if smoke else DEEP_BENCHMARKS:
            compiled = compile_program(benchmark(name), self.cl, cache=None)
            out.attempted += 1
            try:
                validate_program(compiled, self.cl)
            except ReproError as exc:
                out.check(False, f"{name}: compiled program invalid: {exc}")
                continue
            result = simulate(compiled, self.cl)
            runs.append(result)
            out.modeled[f"{name}.compiled_cycles"] = result.cycles
        out.end_to_end["sim_cycles_gmean"] = gmean(r.cycles for r in runs)
        out.layer = core_stats(runs)
        out.modeled.update(out.layer)
        return out

    def finish(self, first: PassResult) -> PassResult:
        """Compare a pass against the plain programs (simulated once per
        process, outside the timed passes): compiling may never cost
        cycles."""
        out = PassResult()
        gains = []
        for key, compiled in first.modeled.items():
            if not key.endswith(".compiled_cycles"):
                continue
            name = key.split(".")[0]
            plain = simulate(benchmark(name), self.cl).cycles
            out.check(compiled <= plain,
                      f"{name}: compiled {compiled:.0f} > plain {plain:.0f} "
                      "cycles")
            gains.append(plain / compiled)
        out.end_to_end["sim_speedup_gmean"] = gmean(gains)
        return out


class Pod8:
    """Three deep benchmarks on 8-chip pods, model- and data-parallel,
    against the 1-chip reference.  Many small shard simulations inside
    the min-cut race."""

    name = "pod8"

    def __init__(self, seed: int):
        self.cl = ChipConfig()
        self.pods = {s: PodConfig(chips=POD_CHIPS, strategy=s)
                     for s in ("model", "data")}

    def run(self, smoke: bool = False) -> PassResult:
        out = PassResult()
        singles, fills, model_x, data_x = [], [], [], []
        link_words = hidden = 0.0
        for name in SMOKE_BENCHMARKS if smoke else POD_BENCHMARKS:
            program = benchmark(name)
            single = simulate(program, self.cl)
            model = simulate_pod(program, self.cl, self.pods["model"])
            data = simulate_pod(program, self.cl, self.pods["data"])
            out.attempted += 2
            singles.append(single)
            fills.append(model.batch_cycles)
            model_x.append(model.speedup(single))
            data_x.append(data.speedup(single))
            link_words += model.link_words
            hidden += model.overlap_hidden_cycles
            covered = sorted(i for shard in model.partition.shards
                             for i in shard.op_indices)
            out.check(covered == list(range(len(program.ops))),
                      f"{name}: model shards are not a disjoint op cover")
            if name == "packed_bootstrap":
                out.check(model_x[-1] >= POD_FLOOR,
                          f"{name}: 8-chip model speedup {model_x[-1]:.2f}x "
                          f"< {POD_FLOOR}x")
            out.modeled.update({
                f"{name}.single_cycles": single.cycles,
                f"{name}.model_batch_cycles": model.batch_cycles,
                f"{name}.model_cycles_per_batch": model.cycles_per_batch,
                f"{name}.data_cycles_per_batch": data.cycles_per_batch,
            })
        out.end_to_end = {"sim_cycles_gmean": gmean(fills),
                          "sim_speedup_gmean": gmean(model_x)}
        out.layer = {
            **core_stats(singles),
            "pod.link_words": link_words,
            "pod.overlap_hidden_cycles": hidden,
            "pod.data_speedup_gmean": gmean(data_x),
        }
        out.modeled.update(out.layer)
        return out


class Serve:
    """The seeded serving fault campaign at a light and a saturating
    open-loop Poisson load.  The only workload whose host time is the
    functional CKKS layer and the recovery executor."""

    name = "serve"

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = ServeConfig(seed=seed, verify_responses=True)
        self.chip = ChipConfig()

    def _service_cycles(self, kind: str, occupancy: int) -> float:
        """Cycles of one batch as the server prices it (compiled,
        simulated); a fresh compile keeps the server's cache stats
        clean."""
        c = self.cfg
        program = serving_program(kind, c.degree, c.max_level,
                                  c.block_slots, occupancy)
        return simulate(compile_program(program, self.chip), self.chip).cycles

    def run(self, smoke: bool = False) -> PassResult:
        out = PassResult()
        layer = dict.fromkeys(
            [f"serve.shed.{r}" for r in SHED_REASONS]
            + [f"serve.phase_s.{p}" for p in SERVE_PHASES]
            + ["serve.dispatches", "serve.degraded_dispatches",
               "serve.retries", "serve.max_queue",
               "reliability.faults_injected",
               "reliability.faults_recovered"], 0.0)
        for label, qps, requests in SERVE_LOADS:
            spec = LoadSpec(requests=SMOKE_REQUESTS if smoke else requests,
                            qps=qps, seed=self.seed)
            try:
                # A collector of its own per campaign: reconcile() checks
                # the serve.* counters against this campaign's tallies.
                with obs.collecting() as collector:
                    r = run_campaign(spec, self.cfg)
            except AssertionError as exc:   # reconcile() failed
                out.attempted += spec.requests
                out.check(False, f"serve@{label}: books do not balance: {exc}")
                continue
            for name, value in collector.counters.items():
                out.counters[name] = out.counters.get(name, 0.0) + value
            out.attempted += r.offered
            out.failed += r.failed
            out.check(r.wrong_answers == 0,
                      f"serve@{label}: {r.wrong_answers} wrong answers")
            # Completions ranked beyond the p99 sample (_percentile's index).
            tail = (r.completed - 1) - round(0.99 * (r.completed - 1))
            if not smoke:
                out.check(tail >= MIN_TAIL,
                          f"serve@{label}: p99 has {tail} samples beyond it")
            out.modeled[f"serve.completed.{label}"] = float(r.completed)
            layer[f"serve.p50_ms.{label}"] = r.p50_ms
            layer[f"serve.p99_ms.{label}"] = r.p99_ms
            layer[f"serve.goodput.{label}"] = r.completed / r.offered
            for reason in SHED_REASONS:
                layer[f"serve.shed.{reason}"] += r.shed.get(reason, 0)
            for phase, seconds in r.phase_seconds.items():
                key = f"serve.phase_s.{phase}"
                if key in layer:
                    layer[key] += seconds
            layer["serve.dispatches"] += r.dispatches
            layer["serve.degraded_dispatches"] += r.degraded_dispatches
            layer["serve.retries"] += r.retries
            layer["serve.max_queue"] = max(layer["serve.max_queue"],
                                           r.max_queue_seen)
            layer["serve.utilization"] = r.utilization
            layer["reliability.faults_injected"] += r.injected_total
            layer["reliability.faults_recovered"] += r.faults_recovered
        full = {k: self._service_cycles(k, self.cfg.max_batch)
                for k in SERVE_KINDS}
        single = {k: self._service_cycles(k, 1) for k in SERVE_KINDS}
        out.end_to_end = {
            "sim_cycles_gmean": gmean(full.values()),
            # Slot packing: chip time of max_batch one-query batches over
            # one full batch.
            "sim_speedup_gmean": gmean(self.cfg.max_batch * single[k] / full[k]
                                       for k in SERVE_KINDS),
        }
        out.modeled.update({f"serve.{k}.batch_cycles": v
                            for k, v in full.items()})
        out.layer = layer
        out.modeled.update(layer)
        return out


WORKLOADS = {w.name: w for w in (Table3, DeepCompile, Pod8, Serve)}
