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
Because the hoisted split is an exact complement of the fused keyswitch,
a singleton group is exactly break-even and is therefore never rewritten
(the pass cannot pessimize).

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

    # Group plain rotations by the SSA version of their source operand at
    # the same (level, digits).  Redefinition of a name (non-SSA streams)
    # closes its open groups: a later rotate of the new value must not
    # share the old value's ModUp.
    version: dict[str, int] = {}
    groups: dict[tuple, list[int]] = {}
    for i, op in enumerate(program.ops):
        if op.kind == ROTATE and op.repeat == 1 and len(op.operands) == 1:
            src = op.operands[0]
            key = (src, version.get(src, 0), op.level, op.digits)
            groups.setdefault(key, []).append(i)
        version[op.result] = version.get(op.result, 0) + 1

    # Decide profitability per group against the cost model.
    replacements: dict[int, HomOp] = {}   # batch-rep index -> rotate_hoisted
    hoists: dict[int, HomOp] = {}         # first-member index -> hoist_modup
    dropped: dict[int, str] = {}          # merged member index -> rep result
    hoisted_rotations = 0
    for gidx, ((src, ver, level, digits), members) in enumerate(
            sorted(groups.items(), key=lambda kv: kv[1][0])):
        k = len(members)
        if k < 2:
            continue
        first = program.ops[members[0]]
        raised = f"{src}@up{gidx}"
        hoist_op = HomOp(kind=HOIST_MODUP, level=level, result=raised,
                         operands=(src,), digits=digits, tag=first.tag)
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
            member = program.ops[idx]
            key = ((member.steps, member.hint_id, member.tag)
                   if member.steps is not None else ("unbatchable", idx))
            batches.setdefault(key, []).append(idx)
        hoisted_total = 0.0
        probes: dict[int, HomOp] = {}
        for batch in batches.values():
            rep = program.ops[batch[0]]
            probe = HomOp(kind=ROTATE_HOISTED, level=level,
                          result=rep.result, operands=(raised, src),
                          hint_id=rep.hint_id, digits=digits, tag=rep.tag,
                          steps=rep.steps, repeat=len(batch))
            probes[batch[0]] = probe
            hoisted_total += costs[probe].cycles
        # The rewrite introduces a hoist -> rotation dependence chain the
        # fused ops did not have; on serial machines that exposes two
        # pipeline fills.  Charge them (and give the fused side none, a
        # conservative comparison) so tiny groups on small rings are not
        # pessimized for a few hundred cycles of compute savings.
        latency = (costs[hoist_op].latency
                   + costs[next(iter(probes.values()))].latency)
        if hoist_cycles + hoisted_total + latency >= k * rotate_cycles:
            obs.count("compiler.hoist.unprofitable_groups")
            continue
        hoists[members[0]] = hoist_op
        replacements.update(probes)
        for batch in batches.values():
            rep_result = program.ops[batch[0]].result
            for idx in batch[1:]:
                dropped[idx] = rep_result
        obs.count("compiler.hoist.hoisted_groups")
        obs.count("compiler.hoist.modups_saved", k - 1)
        hoisted_rotations += k

    if hoisted_rotations:
        obs.count("compiler.hoist.rotations_hoisted", hoisted_rotations)

    out = Program(name=program.name, degree=program.degree,
                  max_level=program.max_level,
                  description=program.description)
    ops: list[HomOp] = []
    rename: dict[str, str] = {}
    for i, op in enumerate(program.ops):
        if i in hoists:
            # The group's source name was captured at analysis time; it
            # may itself be a dropped batch member of an earlier group,
            # so emit with the live rename applied or the hoist would
            # reference a name with no producer.
            ops.append(replace_operands(hoists[i], rename)
                       if rename else hoists[i])
        if i in dropped:
            # Batched away: later uses of this member's result read the
            # batch representative's (identical) value instead.
            rename[op.result] = dropped[i]
            continue
        op = replacements.get(i, op)  # before renaming: probes' source
        if rename and any(o in rename for o in op.operands):
            op = replace_operands(op, rename)
        if op.result in rename:
            del rename[op.result]  # non-SSA redefinition shadows the merge
        ops.append(op)
    out.ops = ops
    return out


def replace_operands(op: HomOp, rename: dict[str, str]) -> HomOp:
    """Copy ``op`` with operand names substituted per ``rename``."""
    return HomOp(
        kind=op.kind, level=op.level, result=op.result,
        operands=tuple(rename.get(o, o) for o in op.operands),
        hint_id=op.hint_id, plaintext_id=op.plaintext_id,
        digits=op.digits, tag=op.tag, compact_pt=op.compact_pt,
        steps=op.steps, repeat=op.repeat,
    )
