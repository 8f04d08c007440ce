"""Rotation-hoisting pass: share one ModUp across same-source rotations.

The dominant cost of a rotation keyswitch is raising the input's c1 into
the extended basis (INTT + changeRNSBase + NTT).  When one ciphertext is
rotated by many different amounts - every BSGS baby step emitted by
`repro.compiler.kernels.matvec`, every bootstrapping transform stage in
`repro.workloads.bootstrap` - that ModUp is identical across the group
and can be hoisted (Halevi-Shoup; the paper's compiler applies it inside
its keyswitch pipelines, Sec. 6).

This pass detects groups of :data:`~repro.ir.ROTATE` ops that consume the
same SSA value at the same (level, digits), and rewrites each profitable
group into one :data:`~repro.ir.HOIST_MODUP` (inserted where the first
group member sat, so the stream stays in dataflow order) plus
:data:`~repro.ir.ROTATE_HOISTED` ops for the members.  The raised digits
become an ordinary named intermediate, so the Belady register file keeps
them resident across the whole group and sizes them correctly
(:func:`repro.core.cost.raised_words`).

Group members rotating by the *same amount* (bootstrapping's per-tile
rotations, which sit inside the rotation loop exactly so hints are
reused) are additionally *batched* into a single ROTATE_HOISTED with
``repeat = m``: once the ModUp is hoisted out, the m hint products are
structurally identical passes over the same raised digits, so the KSH
generator emits each pseudorandom a-half row once and broadcasts it to
all m members' multipliers (see :func:`repro.core.cost.op_cost`).  This
is what makes multi-digit groups - whose per-rotation bound is the KSH
generator, leaving plain ModUp hoisting break-even - profitable to
hoist.  Batching is a value merge, so its key is the *semantic* rotation
amount ``HomOp.steps`` (plus hint and tag): ``hint_id`` alone is only a
reuse handle and real workloads share one hint id across different
amounts (e.g. `repro.workloads.neural`'s ``rot{j % 8}`` pool), which
must never be merged.  Members whose ``steps`` is unknown (``None``)
still share the hoisted ModUp but are never batched with anything.
Batch members compute identical values (same source, same rotation
amount), so dropped members' results are renamed to the
representative's; downstream per-tile consumers are untouched and still
charge their full per-tile work.

Profitability is decided against the cost model, not assumed: a group is
rewritten only when the hoist plus its batched rotations are strictly
cheaper in compute cycles than the fused originals on the target config.
The hoisted split is the boosted keyswitch cut in two, so a singleton
group costs exactly the fused rotate where that rotate runs boosted
keyswitching, and more where a machine without a CRB fuses standard
keyswitching instead (low levels).  It never costs less, so a singleton
is never rewritten (the pass cannot pessimize).

Input rotations that are already batched (``repeat > 1``) stand for
rotations of *different* ciphertexts sharing a hint - there is no common
ModUp to hoist - and :data:`~repro.ir.CONJUGATE` ops are single
automorphisms with nothing to share, so both are skipped.

The pass is deterministic (groups follow stream order; the gate is a
pure cost-model comparison), which the compile cache
(`repro.compiler.cache`) relies on to substitute a stored schedule for
a recompile.
"""

from __future__ import annotations

from repro.core.config import ChipConfig
from repro.core.cost import CostTable
from repro.ir import HOIST_MODUP, ROTATE, ROTATE_HOISTED, HomOp, Program
from repro.obs import collector as obs


def hoist_rotations(program: Program,
                    cfg: ChipConfig | None = None) -> Program:
    """Return a new Program with profitable rotation groups hoisted.

    ``cfg`` is the machine the profitability test targets (default: the
    CraterLake configuration).  Only groups of two or more rotations are
    considered (the cost test rejects singletons anyway).
    """
    with obs.span("compiler.hoist_rotations", "compiler"):
        return _hoist_rotations(program, cfg or ChipConfig())


def _hoist_rotations(program: Program, cfg: ChipConfig) -> Program:
    costs = CostTable(cfg, program.degree)
    ops = program.ops

    # Decide profitability per group against the cost model.  A rewritten
    # index maps to its rotate_hoisted, or to the batch representative's
    # result when batched away; a group's first index also gets its hoist.
    rewrites: dict[int, HomOp | str] = {}
    hoists: dict[int, HomOp] = {}
    hoisted_rotations = 0
    # The group list is referenced only by the loop, so it is freed
    # before the rebuild below.
    for gidx, (src, level, digits, members) in enumerate(
            _rotation_groups(ops)):
        k = len(members)
        if k < 2:
            continue
        first = ops[members[0]]
        raised = f"{src}@up{gidx}"
        hoist_op = HomOp(HOIST_MODUP, level, raised, first.operands,
                         digits=digits, tag=first.tag)
        hoisted_operands = (raised, src)
        rotate_cycles = costs[first].cycles
        hoist_cycles = costs[hoist_op].cycles
        # Members rotating by the same amount compute the same value, so
        # they batch into one ROTATE_HOISTED with repeat = m and the KSH
        # generator runs once per batch instead of once per member.  The
        # key is the explicit op.steps - hint ids are reuse handles that
        # workloads share across different amounts, so hint equality is
        # NOT a semantic equivalence; an op without a known amount
        # (steps=None) is its own singleton batch.
        batches: dict[tuple, list[int]] = {}
        for idx in members:
            member = ops[idx]
            key = ((member.steps, member.hint_id, member.tag)
                   if member.steps is not None else ("unbatchable", idx))
            batches.setdefault(key, []).append(idx)
        hoisted_total = 0.0
        probes: list[HomOp] = []
        for batch in batches.values():
            rep = ops[batch[0]]
            probe = HomOp(ROTATE_HOISTED, level, rep.result,
                          hoisted_operands, rep.hint_id, None, rep.steps,
                          digits, rep.tag, False, len(batch))
            probes.append(probe)
            hoisted_total += costs[probe].cycles
        # The rewrite introduces a hoist -> rotation dependence chain the
        # fused ops did not have; on serial machines that exposes two
        # pipeline fills.  Charge them (and give the fused side none, a
        # conservative comparison) so tiny groups on small rings are not
        # pessimized for a few hundred cycles of compute savings.
        latency = costs[hoist_op].latency + costs[probes[0]].latency
        if hoist_cycles + hoisted_total + latency >= k * rotate_cycles:
            obs.count("compiler.hoist.unprofitable_groups")
            continue
        hoists[members[0]] = hoist_op
        for batch, probe in zip(batches.values(), probes):
            rewrites[batch[0]] = probe
            for idx in batch[1:]:
                rewrites[idx] = probe.result
        obs.count("compiler.hoist.hoisted_groups")
        obs.count("compiler.hoist.modups_saved", k - 1)
        hoisted_rotations += k

    if hoisted_rotations:
        obs.count("compiler.hoist.rotations_hoisted", hoisted_rotations)

    out = Program(name=program.name, degree=program.degree,
                  max_level=program.max_level,
                  description=program.description)
    lowered: list[HomOp] = []
    append = lowered.append
    rename: dict[str, str] = {}
    renamed: dict[tuple[str, ...], tuple[str, ...]] = {}  # interned
    for i, op in enumerate(ops):
        new = rewrites.get(i)
        if new is not None:
            hoist_op = hoists.get(i)
            if hoist_op is not None:
                # The group's source name was captured at analysis time;
                # it may itself be a dropped batch member of an earlier
                # group, so emit with the live rename applied or the
                # hoist would reference a name with no producer.
                if hoist_op.operands[0] in rename:
                    hoist_op = _renamed(hoist_op, rename, renamed)
                append(hoist_op)
            if isinstance(new, str):
                # Batched away: later uses of this member's result read
                # the batch representative's (identical) value instead.
                rename[op.result] = new
                continue
            op = new  # before renaming: the probe reads the source
        if rename:
            if not rename.keys().isdisjoint(op.operands):
                op = _renamed(op, rename, renamed)
            if op.result in rename:
                del rename[op.result]  # non-SSA redefinition shadows it
        append(op)
    out.ops = lowered
    return out


def _rotation_groups(ops: list[HomOp]) -> list[tuple]:
    """Plain rotations as (source, level, digits, member indices) groups,
    in order of first member.

    A source's groups stay open until the source is redefined (non-SSA
    streams): a later rotate of the new value must not share the old
    value's ModUp.
    """
    groups: list[tuple[str, int, int, list[int]]] = []
    open_groups: dict[str, dict[tuple[int, int], list[int]]] = {}
    for i, op in enumerate(ops):
        if op.kind == ROTATE and op.repeat == 1 and len(op.operands) == 1:
            src = op.operands[0]
            shapes = open_groups.get(src)
            if shapes is None:
                shapes = open_groups[src] = {}
            members = shapes.get((op.level, op.digits))
            if members is None:
                members = shapes[op.level, op.digits] = []
                groups.append((src, op.level, op.digits, members))
            members.append(i)
        if op.result in open_groups:
            del open_groups[op.result]
    return groups


def _renamed(op: HomOp, rename: dict[str, str],
             shared: dict[tuple[str, ...], tuple[str, ...]]) -> HomOp:
    """Copy ``op`` with operand names substituted per ``rename``.

    ``shared`` interns the new operand tuples: copies whose operands
    rename to the same names (a batch's consumers) share one tuple.
    """
    operands = tuple([rename.get(o, o) for o in op.operands])
    operands = shared.setdefault(operands, operands)
    return HomOp(op.kind, op.level, op.result, operands, op.hint_id,
                 op.plaintext_id, op.steps, op.digits, op.tag, op.compact_pt,
                 op.repeat)
