"""The synthetic programs behind Fig. 3 (Sec. 2.3).

Two extremes of deep FHE programs, parameterized by the maximum ciphertext
level L_max (i.e. maximum ciphertext size):

* a serial **multiplication chain** - minimal work between bootstrappings,
  the worst case for bootstrapping amortization;
* a **wide multiply-add graph** with 100 multiplies per level converging to
  one output - the best case, amortizing each bootstrap over ~100 ops.

Both start at the plan's usable level and bootstrap lazily, when the
value reaches level 1 (``emit_bootstrap`` returns it at the usable level
again), so every refresh region holds usable - 1 multiply steps.  For a
serial chain that emission-time rule is the optimal placement: an earlier
refresh wastes usable levels, a later one is infeasible.
:func:`repro.analysis.tradeoff.ciphertext_size_sweep` prices one such
region of each program with the cost table to draw Fig. 3.
"""

from __future__ import annotations

from dataclasses import replace

from repro.compiler.digits import digit_schedule
from repro.compiler.dsl import FheBuilder
from repro.ir import Program
from repro.workloads.bootstrap import BootstrapPlan, emit_bootstrap, plan_for
from repro.reliability.errors import ScheduleError


def _plan_for_max_level(security: int, degree: int,
                        top_level: int) -> BootstrapPlan:
    """A bootstrap plan scaled to an arbitrary maximum level.

    Smaller chains need shallower (cheaper) EvalMod/transform stages but
    leave fewer usable levels - exactly the tradeoff Fig. 3 sweeps.
    """
    base = plan_for(security, degree)
    if top_level >= base.top_level:
        return replace(base, top_level=top_level)
    # Bootstrapping consumption has a hard floor: EvalMod's precision needs
    # its Taylor depth and double angles regardless of chain length, and
    # the transforms need at least two stages each.  Only ~1 level of
    # consumption can be shaved per 3 levels of chain shrink, which is why
    # small chains leave almost no usable budget (the left cliff of
    # Fig. 3).
    target = base.levels_consumed - (base.top_level - top_level + 2) // 3
    plan = replace(base, top_level=top_level)
    # Shave fields largest-first down to the target, respecting floors.
    floors = {"scaling_corrections": 4, "evalmod_depth": 5,
              "evalmod_squarings": 4, "cts_stages": 2, "stc_stages": 2}
    while plan.levels_consumed > target:
        candidates = [
            (getattr(plan, f) - floor, f) for f, floor in floors.items()
            if getattr(plan, f) > floor
        ]
        if not candidates:
            break
        _, field = max(candidates)
        plan = replace(plan, **{field: getattr(plan, field) - 1})
    if plan.levels_consumed >= top_level:
        raise ScheduleError(
            f"L_max={top_level} cannot host packed bootstrapping"
        )
    return plan


def multiplication_chain(total_mults: int = 200, max_level: int = 57,
                         security: int = 80, degree: int = 65536) -> Program:
    """Serial chain of ciphertext multiplies with bootstrapping as needed."""
    plan = _plan_for_max_level(security, degree, max_level)
    schedule = digit_schedule(degree, security, plan.top_level)
    b = FheBuilder(
        f"mult_chain_L{max_level}", degree=degree, max_level=plan.top_level,
        digit_schedule=schedule,
        description="Fig. 3 (left): serial multiplication chain",
    )
    x = b.input("x", plan.usable_levels)
    for _ in range(total_mults):
        if x.level <= 1:
            x = emit_bootstrap(b, x, plan)
        x = b.square(x)
    b.output(x)
    return b.build()


def wide_multiply_graph(levels: int = 20, width: int = 100,
                        max_level: int = 57, security: int = 80,
                        degree: int = 65536) -> Program:
    """Width-100 multiply layers converging to one output per level."""
    plan = _plan_for_max_level(security, degree, max_level)
    schedule = digit_schedule(degree, security, plan.top_level)
    b = FheBuilder(
        f"wide_graph_L{max_level}", degree=degree, max_level=plan.top_level,
        digit_schedule=schedule,
        description="Fig. 3 (right): wide multiply-add graph",
    )
    x = b.input("x", plan.usable_levels)
    for _ in range(levels):
        if x.level <= 1:
            x = emit_bootstrap(b, x, plan)
        acc = None
        for _ in range(width):
            prod = b.square(x, rescale=False)
            acc = prod if acc is None else b.add(acc, prod)
        x = b.rescale(acc)
    b.output(x)
    return b.build()
