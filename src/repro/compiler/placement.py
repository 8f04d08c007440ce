"""Bootstrap placement: deciding where to refresh (Sec. 2.3).

Optimal bootstrap placement in a general dataflow graph is NP-hard [9];
like production compilers, we use the greedy level-tracking policy: walk
the (topologically ordered) op sequence tracking each value's remaining
budget and insert a bootstrap exactly when the next operation would not
fit.  For chain-structured programs - which all of the paper's benchmarks
are, between their wide layers - greedy is optimal: any earlier refresh
wastes usable levels, any later one is infeasible.

`plan_refreshes` works on abstract depth requirements so workloads and
tests can reason about placement without building full programs;
`amortized_cost_per_op` exposes the Fig. 3 objective for a placement.

Placement is an *emission-time* decision: workloads consult it while
the DSL builds the op stream, so its outcome is fully captured in the
emitted IR.  The compile cache's key therefore covers it for
free (docs/COMPILER.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import collector as obs
from repro.reliability.errors import ScheduleError


@dataclass(frozen=True)
class Placement:
    """Where refreshes land in a sequence of depth-consuming steps."""

    refresh_before: tuple[int, ...]  # step indices preceded by a bootstrap
    usable_levels: int

    @property
    def count(self) -> int:
        return len(self.refresh_before)


def plan_refreshes(step_depths, usable_levels: int,
                   start_budget: int | None = None) -> Placement:
    """Greedy placement for a serial program.

    ``step_depths[i]`` is the multiplicative depth step i consumes;
    ``usable_levels`` is what one bootstrap restores (top level minus the
    bootstrap's own consumption).  Raises if any single step exceeds what a
    refresh can provide - the signal to grow the chain or split the step.
    """
    if usable_levels < 1:
        raise ScheduleError("a refresh must restore at least one level")
    budget = usable_levels if start_budget is None else start_budget
    refreshes = []
    for i, depth in enumerate(step_depths):
        if depth > usable_levels:
            raise ScheduleError(
                f"step {i} needs depth {depth} > usable {usable_levels}; "
                "increase L_max or decompose the step"
            )
        if depth > budget:
            refreshes.append(i)
            budget = usable_levels
        budget -= depth
    obs.count("compiler.bootstraps_placed", len(refreshes))
    return Placement(tuple(refreshes), usable_levels)


def greedy_is_lazy(placement: Placement, step_depths,
                   start_budget: int | None = None) -> bool:
    """Check the optimality invariant for serial chains: before every
    refresh the remaining budget is too small for the next step (no
    refresh happens while work would still fit)."""
    budget = (placement.usable_levels if start_budget is None
              else start_budget)
    refreshes = set(placement.refresh_before)
    for i, depth in enumerate(step_depths):
        if i in refreshes:
            if budget >= depth:
                return False  # refreshed although the step still fit
            budget = placement.usable_levels
        budget -= depth
    return True


def amortized_cost_per_op(placement: Placement, step_costs,
                          bootstrap_cost: float) -> float:
    """Average cost per step including refreshes: Fig. 3's y-axis."""
    steps = len(step_costs)
    if steps == 0:
        raise ScheduleError("no steps")
    total = sum(step_costs) + placement.count * bootstrap_cost
    return total / steps
