"""Throughput-scaling study: where does the interconnect kill scaling?

Sweeps pod size (1/2/4/8 chips), sharding strategy (data- vs
model-parallel), and health (clean vs one chip fail-stopped) over the
four deep benchmarks, reporting steady-state throughput speedup against
a single unsharded chip.  This is the pod's answer to F1+'s all-to-all
finding: data-parallel scales near-linearly (the all-reduce tax is one
output object per batch), while model-parallel saturates as soon as a
cut ciphertext's link time rivals a stage's compute time.

``scaling_rows`` is the machine-readable form (the nightly benchmark
pins and archives it); ``scaling_table`` renders the committed text
table in ``benchmarks/results/pod_scaling.txt``; ``scaling_gate``
applies the absolute CI acceptance checks (model-parallel speedup
floor, data rows bit-identical to the pre-overlap serialized model).
"""

from __future__ import annotations

from repro.core.config import ChipConfig
from repro.core.simulator import simulate
from repro.pod.config import (DATA_PARALLEL, MODEL_PARALLEL, PodConfig,
                              STRATEGIES)
from repro.pod.simulator import simulate_pod
from repro.workloads import DEEP_BENCHMARKS, benchmark

CHIP_SWEEP = (1, 2, 4, 8)


def scaling_rows(benchmarks=DEEP_BENCHMARKS, chip_counts=CHIP_SWEEP,
                 strategies=STRATEGIES,
                 cfg: ChipConfig | None = None) -> list[dict]:
    """One dict per (benchmark, chips, strategy): clean and degraded
    (one chip down; skipped at K=1) per-batch cycles and speedups."""
    cfg = cfg or ChipConfig()
    rows = []
    for name in benchmarks:
        program = benchmark(name)
        single = simulate(program, cfg)
        for chips in chip_counts:
            for strategy in strategies:
                pod = PodConfig(chips=chips, strategy=strategy)
                clean = simulate_pod(program, cfg, pod)
                row = {
                    "benchmark": name,
                    "chips": chips,
                    "strategy": strategy,
                    "single_chip_cycles": single.cycles,
                    "clean_cycles_per_batch": clean.cycles_per_batch,
                    "clean_speedup": clean.speedup(single),
                    "clean_batch_cycles": clean.batch_cycles,
                    "overlap_hidden_cycles": clean.overlap_hidden_cycles,
                    "link_words": clean.link_words,
                    "degraded_cycles_per_batch": None,
                    "degraded_speedup": None,
                }
                if chips > 1:
                    degraded = simulate_pod(program, cfg, pod,
                                            failed_chips=(chips - 1,))
                    row["degraded_cycles_per_batch"] = \
                        degraded.cycles_per_batch
                    row["degraded_speedup"] = degraded.speedup(single)
                rows.append(row)
    return rows


def scaling_table(rows: list[dict] | None = None) -> str:
    """The committed throughput-scaling table (text)."""
    from repro.analysis.report import format_table

    rows = rows if rows is not None else scaling_rows()
    body = []
    for r in rows:
        degraded = ("-" if r["degraded_speedup"] is None
                    else f"{r['degraded_speedup']:.2f}x")
        hidden = r.get("overlap_hidden_cycles", 0.0) or 0.0
        body.append([
            r["benchmark"], r["chips"], r["strategy"],
            f"{r['clean_cycles_per_batch']:.3e}",
            f"{r['clean_speedup']:.2f}x",
            degraded,
            f"{r['clean_batch_cycles']:.3e}",
            f"{hidden:.3e}" if hidden else "-",
            f"{r['link_words']:.3e}",
        ])
    return format_table(
        ["benchmark", "chips", "strategy", "cycles/batch", "speedup",
         "N-1 speedup", "latency", "hidden", "link words"],
        body,
        title="Pod throughput scaling (steady state, vs 1 chip)",
    )


def scaling_gate(rows: list[dict] | None = None,
                 cfg: ChipConfig | None = None,
                 benchmarks=("packed_bootstrap",),
                 chips: int = 8, min_speedup: float = 3.0) -> list[str]:
    """Absolute acceptance checks for the pod-smoke CI gate.

    Returns a list of problem strings (empty means the gate passes):

    * the ``chips``-chip model-parallel row of each gated benchmark must
      hit at least ``min_speedup`` steady-state speedup - the overlap +
      min-cut machinery has to actually pay off, not just not regress;
    * every data-parallel row in ``rows`` must be bit-identical to the
      serialized all-reduce model, recomputed here from a stream-free
      run as ``max(compute, memory + words / rate)`` - the overlap path
      must never perturb data-parallel numbers, even in the last ulp.
    """
    from repro.pod.interconnect import LinkModel
    from repro.pod.simulator import _output_words

    cfg = cfg or ChipConfig()
    if rows is None:
        rows = scaling_rows(benchmarks=benchmarks, cfg=cfg)
    problems = []
    for name in benchmarks:
        row = next((r for r in rows
                    if r["benchmark"] == name and r["chips"] == chips
                    and r["strategy"] == MODEL_PARALLEL), None)
        if row is None:
            problems.append(
                f"{name}: no {chips}-chip model-parallel row to gate")
        elif row["clean_speedup"] < min_speedup:
            problems.append(
                f"{name}: {chips}-chip model-parallel speedup "
                f"{row['clean_speedup']:.2f}x < {min_speedup:.1f}x floor")
    programs: dict[str, object] = {}
    for r in rows:
        if r["strategy"] != DATA_PARALLEL:
            continue
        name, k = r["benchmark"], r["chips"]
        if name not in programs:
            programs[name] = benchmark(name)
        program = programs[name]
        link = LinkModel(cfg, PodConfig(chips=k, strategy=DATA_PARALLEL))
        out_words = _output_words(program)
        ar_words = link.all_reduce_words(out_words, k)
        ref = simulate(program, cfg)
        mem = ref.mem_cycles
        if ar_words:
            ar_cycles = link.all_reduce_cycles(out_words, k)
            mem += ar_words / (ar_words / ar_cycles)
        expect = max(ref.compute_cycles, mem) / k
        if expect != r["clean_cycles_per_batch"]:
            problems.append(
                f"{name}: {k}-chip data-parallel cycles/batch "
                f"{r['clean_cycles_per_batch']!r} != serialized "
                f"reference {expect!r} (must be bit-identical)")
    return problems
