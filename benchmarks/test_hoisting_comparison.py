"""Hoisted vs unhoisted schedules on the rotation-heavy benchmarks.

Not a paper table: this is the regression artifact for the compiler's
rotation-hoisting pass (`repro.compiler.hoisting`).  For each deep
benchmark it simulates the fused stream and the hoisted stream on
CraterLake and reports cycles, the savings, and how many ModUps the
pass eliminated.  The
nightly run archives the table next to the Table 3 results so pass
regressions show up as a shrinking savings column.
"""

from conftest import emit

from repro.analysis import format_table
from repro.compiler import hoist_rotations
from repro.core import simulate
from repro.obs import collector as obs
from repro.workloads import DEEP_BENCHMARKS


def _compare(runs):
    table = {}
    for name in DEEP_BENCHMARKS:
        program = runs.program(name)
        with obs.collecting() as c:
            hoisted = hoist_rotations(program, runs.craterlake)
        base = runs.run(name)
        fast = simulate(hoisted, runs.craterlake)
        table[name] = {
            "base_cycles": base.cycles,
            "hoisted_cycles": fast.cycles,
            "savings": (base.cycles - fast.cycles) / base.cycles,
            "groups": c.counters.get("compiler.hoist.hoisted_groups", 0),
            "modups_saved": c.counters.get("compiler.hoist.modups_saved", 0),
        }
    return table


def test_hoisting_comparison(benchmark, runs):
    results = benchmark.pedantic(_compare, args=(runs,), rounds=1,
                                 iterations=1)
    rows = [
        [name, f"{r['base_cycles']:,.0f}", f"{r['hoisted_cycles']:,.0f}",
         f"{r['savings']:+.1%}",
         int(r["groups"]), int(r["modups_saved"])]
        for name, r in results.items()
    ]
    emit("hoisting_comparison", format_table(
        ["benchmark", "fused cycles", "hoisted cycles", "savings",
         "groups", "modups saved"],
        rows, title="Rotation hoisting: fused vs hoisted schedules",
    ))

    # The pass pessimizes no benchmark (profitability gate) ...
    for name, r in results.items():
        assert r["hoisted_cycles"] <= r["base_cycles"], name
    # ... and on the hoisting-heavy bootstrapping workload it must keep
    # delivering the acceptance-level win.
    assert results["packed_bootstrap"]["savings"] >= 0.10
    assert results["packed_bootstrap"]["groups"] == 7
