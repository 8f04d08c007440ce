"""Reference oracle for the bootstrap emitter.

:func:`emit_bootstrap` is the emitter that
:func:`repro.workloads.bootstrap.emit_bootstrap` replaced, kept here as
written: every call emits the whole body op by op through the builder's
public operations, with fresh hint-id and plaintext-id strings and one
operand tuple per op.  The emitter now records the first body a builder
emits per (plan, namespace) and splices it on later calls; it must emit
the same op stream, op for op (``test_bootstrap_splice.py``).
"""

from __future__ import annotations

from repro.compiler.dsl import FheBuilder, Value
from repro.workloads.bootstrap import BootstrapPlan


def emit_bootstrap(b: FheBuilder, x: Value, plan: BootstrapPlan,
                   namespace: str = "boot") -> Value:
    """Append one full bootstrap to the program; returns the refreshed value.

    Hint naming encodes the reuse structure: baby-step hints are shared
    across all stages of a transform (and across repeated bootstraps),
    giant-step hints are per stage, and EvalMod shares the single
    relinearization hint - which is why KSH traffic, not compute, dominates
    this workload (Fig. 10a).
    """
    b.phase("bootstrap")
    level = plan.top_level
    x = b.raise_level(x, level)

    def transform(x: Value, stages: int, label: str) -> Value:
        if plan.sparse_slots:
            tiles = 1
        else:
            # Partially packed ciphertexts need proportionally fewer tiles
            # (less data to transform), never fewer than one.
            tiles = max(1, round(plan.tile_partitions * plan.packed_fraction))
        rotations = plan.rotations_per_stage
        if plan.packed_fraction < 1.0:
            # Sparse transforms: rotation count shrinks with packing.
            rotations = max(4, round(rotations * plan.packed_fraction))
        for s in range(stages):
            acc: Value | None = None
            # The tile decomposition of Sec. 6: each stage is applied
            # per on-chip tile, and - crucially - the tile loop sits
            # *inside* the rotation loop so each keyswitch hint is fetched
            # once per stage and reused across every tile.  That reuse is
            # why the decomposition pays off.
            for j in range(rotations):
                if plan.sparse_slots and j >= 2:
                    break  # single-slot transforms collapse
                if j < plan.baby_rotations:
                    hint = f"{namespace}/{label}/baby{j}"
                else:
                    # FFT-factor strides repeat across stage pairs, so
                    # giant-step hints are shared between them.
                    hint = f"{namespace}/{label}/s{s % 2}g{j}"
                for tile in range(tiles):
                    r = b.rotate(x, 1 + j + s, hint_id=hint)
                    t = b.pmult(r, f"{namespace}/{label}/w{s}_{j}_{tile}",
                                rescale=False, compact=True,
                                repeat=plan.diagonals_per_rotation)
                    acc = t if acc is None else b.add(acc, t)
            assert acc is not None
            x = b.rescale(acc)
        return x

    # CoeffToSlot, then the conjugation split into two coefficient lanes.
    x = transform(x, plan.cts_stages, "cts")
    split = b.conjugate(x, hint_id=f"{namespace}/conj")
    lanes = [b.add(x, split), b.add(x, split)]

    # EvalMod on both lanes: sine polynomial (PS), double angles, and the
    # scaling corrections of [11].
    refreshed = []
    for lane in lanes:
        val = lane
        mults_left = plan.evalmod_mults
        for d in range(plan.evalmod_depth):
            per_level = max(1, round(plan.evalmod_mults / plan.evalmod_depth))
            take = min(per_level, mults_left) if d < plan.evalmod_depth - 1 \
                else mults_left
            acc = None
            for _ in range(max(1, take)):
                term = b.mult(val, val, rescale=False)
                acc = term if acc is None else b.add(acc, term)
            mults_left -= max(1, take)
            val = b.rescale(acc)
            if mults_left <= 0 and d >= plan.evalmod_depth - 1:
                break
        for _ in range(plan.evalmod_squarings):
            val = b.square(val)
        val = b.add(val, b.conjugate(val, hint_id=f"{namespace}/conj"))
        refreshed.append(val)

    merged = b.add(refreshed[0], refreshed[1])
    for _ in range(plan.scaling_corrections):
        merged = b.pmult(merged, f"{namespace}/scale_corr", compact=True)

    merged = transform(merged, plan.stc_stages, "stc")
    b.phase("")
    return merged
