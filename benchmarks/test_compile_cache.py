"""Repeated-inference compile amortization on the deep benchmarks.

Not a paper table: this is the regression artifact for the compile
cache (`repro.compiler.cache`, docs/COMPILER.md).  The serving pattern
it models is compile-once/run-many: the first request pays the lowering
pipeline (rotation hoisting), every later request for the same
(program, config) should pay only a cache-key lookup.

For each deep benchmark the table reports the first (cold) compile and
a memory-cache hit, and pins the acceptance criteria:

* the repeated-inference (memory-hit) path is >= 20x faster than the
  cold compile on every deep benchmark;
* a hit returns the bit-identical lowered schedule, and simulating hit
  vs cold yields bit-identical ``SimResult.cycles``.
"""

from __future__ import annotations

import time

from conftest import emit

from repro.analysis import format_table
from repro.compiler.cache import CompileCache, compile_program
from repro.core import ChipConfig, simulate
from repro.workloads import DEEP_BENCHMARKS
from repro.workloads import benchmark as build_benchmark


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _measure():
    cfg = ChipConfig()
    table = {}
    for name in DEEP_BENCHMARKS:
        program = build_benchmark(name)
        cache = CompileCache()
        cold, t_cold = _timed(
            lambda: compile_program(program, cfg, cache=cache))
        mem, t_mem = _timed(
            lambda: compile_program(program, cfg, cache=cache))
        table[name] = {
            "ops": len(program.ops),
            "t_cold": t_cold, "t_mem": t_mem,
            "identical": cold == mem,
            "cold_cycles": simulate(cold, cfg).cycles,
            "mem_cycles": simulate(mem, cfg).cycles,
            "stats": dict(cache.stats),
        }
    return table


def test_compile_cache_amortization(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [
        [name, r["ops"], f"{r['t_cold']:.3f}", f"{r['t_mem'] * 1e3:.2f}",
         f"{r['t_cold'] / r['t_mem']:,.0f}x",
         "yes" if r["identical"] else "NO"]
        for name, r in results.items()
    ]
    emit("compile_cache", format_table(
        ["benchmark", "ops", "cold compile (s)", "memory hit (ms)",
         "speedup", "bit-identical"],
        rows, title="Compile cache: cold vs cached lowering (CraterLake)",
    ))

    for name, r in results.items():
        # The repeated-inference path: >= 20x on every deep benchmark.
        assert r["t_cold"] / r["t_mem"] >= 20, (name, r["t_cold"], r["t_mem"])
        # Hits are bit-identical substitutes for the cold compile.
        assert r["identical"], name
        assert r["mem_cycles"] == r["cold_cycles"], name
        assert r["stats"]["miss"] == 1 and r["stats"]["hit"] == 1, name
