"""Bootstrapping workloads and the embeddable bootstrap op sequence.

The op structure follows the state-of-the-art fully packed algorithm the
paper uses ([11, 53], Sec. 6 "Optimized bootstrapping"): CoeffToSlot and
SlotToCoeff are decomposed into FFT-like sparse stages (the paper's 4x4
tiling) so each stage's rotations and diagonal plaintexts fit on chip;
EvalMod evaluates a high-degree sine/arcsine approximation with repeated
double-angle squarings on both the real and imaginary coefficient lanes.

The stage/rotation/multiply counts below are calibrated against Lattigo's
fully packed bootstrapping at N=64K (the paper's software baseline) and
against the paper's own aggregate measurements for the P-Bootstrap row:
~3.9 ms on CraterLake with ~2 GB of off-chip traffic, KSH-dominated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.digits import digit_schedule, max_usable_level
from repro.compiler.dsl import FheBuilder, Value
from repro.ir import Program
from repro.reliability.errors import ParameterError, ScheduleError


@dataclass(frozen=True)
class BootstrapPlan:
    """Structural parameters of one bootstrap at a security point.

    ``top_level`` is the level right after ModRaise; the stages then spend
    levels downward.  ``usable_levels`` is what remains for application
    compute (the blue region of Fig. 2): top - consumed.
    """

    top_level: int = 57
    input_level: int = 3
    cts_stages: int = 4          # CoeffToSlot FFT-like factors
    stc_stages: int = 3          # SlotToCoeff factors
    baby_rotations: int = 4      # hints shared across stages of a transform
    giant_rotations_per_stage: int = 8   # stage-pair-specific hints
    tile_partitions: int = 5     # the on-chip tiling of Sec. 6: each
                                 # stage runs per-tile, reusing its hints
    diagonals_per_rotation: int = 2  # plaintext diagonals per rotated copy
    evalmod_mults: int = 35      # sine-poly PS multiplies per lane
    evalmod_depth: int = 9       # levels the sine evaluation spends
    evalmod_squarings: int = 8   # double-angle iterations
    scaling_corrections: int = 11  # extra pmult+rescale levels [11]
    sparse_slots: bool = False   # unpacked: transforms collapse
    packed_fraction: float = 1.0  # fraction of slots in use; partial
                                  # packing shrinks the transforms (LSTM)

    @property
    def rotations_per_stage(self) -> int:
        return self.baby_rotations + self.giant_rotations_per_stage

    @property
    def levels_consumed(self) -> int:
        return (self.cts_stages + self.evalmod_depth
                + self.evalmod_squarings + self.scaling_corrections
                + self.stc_stages)

    @property
    def usable_levels(self) -> int:
        usable = self.top_level - self.levels_consumed
        if usable < 1:
            raise ScheduleError("bootstrap plan consumes the whole chain")
        return usable


def plan_for(security: int, degree: int = 65536) -> BootstrapPlan:
    """The paper's operating points (Sec. 8, Sec. 9.4).

    80-bit @ 64K refreshes to L=57; 128-bit bootstraps twice as often
    (half the usable levels, capped at L=51); 200-bit needs N=128K.
    """
    if security > 128 and degree < 131072:
        raise ParameterError("beyond-128-bit security requires N=128K (Sec. 9.4)")
    # Larger rings transform twice the slots: the tiled CoeffToSlot /
    # SlotToCoeff stages process proportionally more partitions.
    tiles = 5 * max(1, degree // 65536)
    if security <= 80:
        return BootstrapPlan(top_level=57, tile_partitions=tiles)
    if security <= 128:
        # Bootstrap twice as often: shallower chain, fewer corrections.
        top = min(51, max_usable_level(degree, security))
        return BootstrapPlan(top_level=top, scaling_corrections=8,
                             evalmod_squarings=7, tile_partitions=tiles)
    # Conservative (e.g. 200-bit) on the large ring keeps the same chain;
    # the cost shows up through higher-digit keyswitching and doubled N.
    return BootstrapPlan(
        top_level=min(57, max_usable_level(degree, security)),
        tile_partitions=tiles,
    )


def emit_bootstrap(b: FheBuilder, x: Value, plan: BootstrapPlan,
                   namespace: str = "boot") -> Value:
    """Append one full bootstrap to the program; returns the refreshed value.

    Hint naming encodes the reuse structure: baby-step hints are shared
    across all stages of a transform (and across repeated bootstraps),
    giant-step hints are per stage, and EvalMod shares the single
    relinearization hint - which is why KSH traffic, not compute, dominates
    this workload (Fig. 10a).

    The body depends only on ``plan``, ``namespace`` and the builder, so
    the builder records the first one per (plan, namespace) and splices
    it on every later call (:meth:`FheBuilder.replay`): a deep workload
    emits each distinct bootstrap once.
    """
    b.phase("bootstrap")
    x = b.raise_level(x, plan.top_level)
    out = b.replay((plan, namespace), x,
                   lambda x: _bootstrap_body(b, x, plan, namespace))
    b.phase("")
    return out


def _bootstrap_body(b: FheBuilder, x: Value, plan: BootstrapPlan,
                    namespace: str) -> Value:
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

    return transform(merged, plan.stc_stages, "stc")


def packed_bootstrapping(security: int = 80, degree: int = 65536,
                         hoist: bool = False) -> Program:
    """Table 3's 'Packed Bootstrapping': refresh one fully packed N=64K
    ciphertext from L=3 exhausted to a usable budget.

    ``hoist=True`` runs the compiler's rotation-hoisting pass over the
    emitted stream (one shared ModUp per transform-stage rotation group).
    Off by default: the Table 3 comparisons are defined on the fused
    schedule; the nightly hoisted-vs-unhoisted benchmark opts in.
    """
    plan = plan_for(security, degree)
    schedule = digit_schedule(degree, security, plan.top_level)
    b = FheBuilder(
        "packed_bootstrap", degree=degree, max_level=plan.top_level,
        digit_schedule=schedule,
        description="fully packed CKKS bootstrapping (Sec. 8)",
    )
    x = b.input("ct", plan.input_level)
    # The benchmark refreshes a fixed multiplicative budget (the 80-bit
    # configuration's refresh); stricter security leaves fewer usable
    # levels per refresh, so it must bootstrap more often (Sec. 9.4).
    reference_usable = BootstrapPlan(top_level=57).usable_levels
    refreshes = max(1, -(-reference_usable // plan.usable_levels))
    out = x
    for _ in range(refreshes):
        out = emit_bootstrap(b, out, plan)
        out = Value(out.name, plan.input_level)
    b.output(out)
    program = b.build()
    if hoist:
        # Deferred: the hoisting pass imports the cost model, and keeping
        # workloads importable without the compiler's passes matters for
        # layering (workloads only need the DSL).
        from repro.compiler.hoisting import hoist_rotations

        return hoist_rotations(program)
    return program


def unpacked_bootstrapping(security: int = 80, degree: int = 65536) -> Program:
    """F1's bootstrapping benchmark: a single-slot ciphertext, L <= 23.

    Sparse packing collapses CoeffToSlot/SlotToCoeff to a handful of
    rotations and needs far fewer levels, but serves only one element -
    ~1000x worse per slot (Sec. 2.3)."""
    plan = BootstrapPlan(
        top_level=23, input_level=3, cts_stages=2, stc_stages=2,
        baby_rotations=2, giant_rotations_per_stage=2,
        evalmod_mults=14, evalmod_depth=6, evalmod_squarings=5,
        scaling_corrections=4, sparse_slots=True,
    )
    schedule = digit_schedule(degree, security, plan.top_level)
    b = FheBuilder(
        "unpacked_bootstrap", degree=degree, max_level=plan.top_level,
        digit_schedule=schedule,
        description="single-slot bootstrapping (F1's benchmark)",
    )
    x = b.input("ct", plan.input_level)
    out = emit_bootstrap(b, x, plan)
    b.output(out)
    return b.build()
