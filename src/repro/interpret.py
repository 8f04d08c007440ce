"""The functional interpreter: run a :class:`~repro.ir.Program` on CKKS.

The cycle model (:func:`repro.core.simulator.simulate`) prices a Program
op by op; this module executes the same Program on real ciphertexts
(`repro.fhe.ckks`).  Serving, the recovery campaign and the pod campaign
write their work once, as IR, and take both the chip time and the
answer from it - so a workload cannot be priced as one program and run
as another.

Op semantics (``state`` maps value names to ciphertexts):

* ``input`` binds a value the caller already put in the state (a
  program input, a pod receipt under its producer's name); it computes
  nothing.
* ``pmult`` multiplies by ``plaintexts[op.plaintext_id]`` and must be
  followed by the ``rescale`` that is its result's only use - the pair
  the DSL's ``pmult(rescale=True)`` emits - which runs as one
  :meth:`~repro.fhe.ckks.CkksContext.pmult` (targeted-scale encode,
  multiply, rescale) - the pairs :func:`fused_pmults` marks.  The plan
  memoizes each encoded plaintext per context, so repeated runs skip
  the encoder and its NTT.
* ``add`` and ``rotate`` are their CkksContext calls.  The rotation
  amount is ``op.steps`` and its key is ``hints[op.steps]``: hint ids
  are reuse handles shared across amounts, never parsed.
* ``hoist_modup`` / ``rotate_hoisted`` run through
  :class:`~repro.fhe.hoisting.HoistedRotator`.  The raised digits live
  in a side table of the plan, not in the state, so checkpoints stay
  ciphertext-only.
* ``output`` names a value the caller reads back after the run.
* ``repeat`` is a cycle-model annotation (k independent copies of the
  op, e.g. one weight block per packed tenant); the functional layer
  runs the op once over the packed ciphertext.

Every executed op counts ``fhe.ops.<kind>``, the functional mirror of
the simulator's ``sim.ops.<kind>``: on a clean run the two agree kind
for kind.

:func:`lower` cuts a Program into the ``(name, fn)`` steps a
:class:`~repro.reliability.recovery.RecoveringExecutor` or, per shard,
a :class:`~repro.pod.coordinator.PodExecutor` runs.  A step begins at
each keyswitch, plaintext multiply or ModUp - the ops whose internals
host the fault detectors (operand seals, hint checks, NTT checksums) -
and the bindings, additions and rescales after it ride along.  When a
step ends, program values with no later use leave the state
(free-on-last-use, as in the simulator), so a checkpoint holds only live
values; state keys the program does not name are left alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from typing import Callable, NamedTuple

from repro.core.simulator import SimResult, simulate_ops
from repro.ir import (
    ADD,
    HOIST_MODUP,
    INPUT,
    KEYSWITCH_KINDS,
    OUTPUT,
    PMULT,
    RESCALE,
    ROTATE,
    ROTATE_HOISTED,
    HomOp,
    Program,
)
from repro.obs import collector as obs
from repro.reliability.errors import ParameterError, ScheduleError

#: Op kinds that begin a new executor step.
LEAD_KINDS = KEYSWITCH_KINDS + (PMULT, HOIST_MODUP)


class Step(NamedTuple):
    """One executor step: ``fn(ctx, state)`` runs ``ops`` on the state."""

    name: str
    fn: Callable
    ops: tuple[HomOp, ...] = ()

    @property
    def source(self) -> str | None:
        """The value the step's leading op reads: its working ciphertext."""
        for op in self.ops:
            if op.kind in LEAD_KINDS:
                # rotate_hoisted reads (raised, source).
                return op.operands[-1]
        return None

    @property
    def keyswitches(self) -> bool:
        """Whether the step runs a keyswitch (where NTT/HBM faults fire)."""
        return any(op.kind in KEYSWITCH_KINDS for op in self.ops)


@dataclass
class Plan:
    """A Program lowered for functional execution."""

    program: Program
    steps: list[Step]
    inputs: list[str]    # state keys the caller binds, in program order
    outputs: list[str]   # state keys the caller reads back, in order
    hints: dict = field(default_factory=dict)       # amount -> hint
    plaintexts: dict = field(default_factory=dict)  # plaintext_id -> values
    _raised: dict = field(default_factory=dict, repr=False)
    # Encoded weights, per context: every run multiplies by the same
    # plaintexts, so each is encoded once per (id, level, scale).
    _encoded: dict = field(default_factory=dict, repr=False)

    def run(self, ctx, state: dict) -> dict:
        """Execute every step in order on ``state`` (mutated, returned)."""
        for step in self.steps:
            step.fn(ctx, state)
        return state

    def price(self, cfg) -> tuple[SimResult, list[float]]:
        """One simulation of the program on ``cfg``: its result and each
        step's price, the sum of its ops' critical-path advances (what a
        replay of the step pays again).  Steps are contiguous op ranges,
        so the prices add up to ``program_cycles``."""
        with obs.paused():  # a price, not an executed run
            result, advances = simulate_ops(self.program, cfg)
        ends = list(accumulate((len(s.ops) for s in self.steps), initial=0))
        return result, [math.fsum(advances[a:b]) for a, b in pairwise(ends)]

    def step_cycles(self, cfg) -> list[float]:
        """Each step's price on ``cfg`` (see :meth:`price`)."""
        return self.price(cfg)[1]

    def _hint(self, op: HomOp):
        if op.steps is None or op.steps not in self.hints:
            raise ParameterError("no rotation hint for this amount",
                                 op=op.result, steps=op.steps)
        return self.hints[op.steps]

    def _execute(self, ctx, ops: tuple[HomOp, ...], state: dict) -> None:
        """One CKKS call: a single op, or a pmult fused with its rescale."""
        op = ops[0]
        kind = op.kind
        if kind in (INPUT, OUTPUT):
            name = op.result if kind == INPUT else op.operands[0]
            if name not in state:
                raise ScheduleError(f"{kind} value is not in the state",
                                    value=name)
        elif kind == PMULT and len(ops) == 2:
            state[ops[1].result] = ctx.pmult(
                state[op.operands[0]], self.plaintexts[op.plaintext_id],
                cache=self._encoded.setdefault(ctx, {}),
                cache_key=op.plaintext_id)
        elif kind == ADD:
            state[op.result] = ctx.add(state[op.operands[0]],
                                       state[op.operands[1]])
        elif kind == ROTATE:
            state[op.result] = ctx.rotate(state[op.operands[0]], op.steps,
                                          self._hint(op))
        elif kind == HOIST_MODUP:
            from repro.fhe.hoisting import HoistedRotator

            self._raised[op.result] = HoistedRotator(
                ctx, state[op.operands[0]], alpha=ctx.params.alpha)
        elif kind == ROTATE_HOISTED:
            state[op.result] = self._raised[op.operands[0]].rotate(
                op.steps, self._hint(op))
        else:
            raise ScheduleError(
                f"the functional interpreter does not execute this {kind} "
                "(pmult runs only with the rescale that consumes it)",
                op=op.result)
        for done in ops:
            obs.count(f"fhe.ops.{done.kind}")


def fused_pmults(ops: list[HomOp]) -> list[bool]:
    """``fused[i]``: op ``i`` is a pmult whose only use is the next op's
    rescale; the pair runs as one call, never split by a step or shard."""
    uses: dict[str, int] = {}
    for op in ops:
        for name in op.operands:
            uses[name] = uses.get(name, 0) + 1
    return [op.kind == PMULT and i + 1 < len(ops)
            and ops[i + 1].kind == RESCALE
            and ops[i + 1].operands == (op.result,) and uses[op.result] == 1
            for i, op in enumerate(ops)]


def _step_name(lead: HomOp | None) -> str:
    if lead is None:
        return "linear"
    if lead.kind in (ROTATE, ROTATE_HOISTED):
        what = f"rot{lead.steps}"
    elif lead.kind == PMULT:
        what = lead.plaintext_id
    else:
        what = lead.kind
    return f"{lead.tag}/{what}" if lead.tag else what


def lower(program: Program, hints=None, plaintexts=None) -> Plan:
    """Cut ``program`` into executor steps (see the module docstring).

    ``hints`` maps rotation amount (``HomOp.steps``) -> keyswitch hint;
    ``plaintexts`` maps plaintext id -> slot values.
    """
    ops = program.ops
    plan = Plan(program=program, steps=[],
                inputs=[op.result for op in ops if op.kind == INPUT],
                outputs=[op.operands[0] for op in ops if op.kind == OUTPUT],
                hints=dict(hints or {}), plaintexts=dict(plaintexts or {}))

    # Op indices grouped into CKKS calls: a fused pmult takes its rescale.
    fused = fused_pmults(ops)
    calls = [(i, i + 1) if fused[i] else (i,)
             for i in range(len(ops)) if not (i and fused[i - 1])]
    groups: list[list[tuple[int, ...]]] = []
    led = False  # whether the open group already has its leading op
    for call in calls:
        is_lead = ops[call[0]].kind in LEAD_KINDS
        if not groups or (is_lead and led):
            groups.append([call])
            led = is_lead
        else:
            groups[-1].append(call)
            led = led or is_lead

    # Last op index touching each program value (its producer, if never
    # read); outputs stay in the state for the caller.
    last_use: dict[str, int] = {}
    for i, op in enumerate(ops):
        if op.kind != OUTPUT:
            last_use.setdefault(op.result, i)
        for name in op.operands:
            last_use[name] = i
    for name in plan.outputs:
        last_use.pop(name, None)
    for group in groups:
        start, end = group[0][0], group[-1][-1]
        members = tuple(ops[i] for call in group for i in call)
        calls = tuple(tuple(ops[i] for i in call) for call in group)
        drops = tuple(name for name, at in last_use.items()
                      if start <= at <= end)
        lead = next((op for op in members if op.kind in LEAD_KINDS), None)
        plan.steps.append(Step(_step_name(lead),
                               _step_fn(plan, calls, drops), members))
    return plan


def _step_fn(plan: Plan, calls, drops):
    def fn(ctx, state):
        for call in calls:
            plan._execute(ctx, call, state)
        for name in drops:
            state.pop(name, None)
    return fn
