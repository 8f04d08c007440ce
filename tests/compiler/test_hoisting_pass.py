"""Differential + property tests for the rotation-hoisting pass.

The pass rewrites groups of same-source rotations into shared-ModUp form
(`repro.compiler.hoisting`).  Correctness is checked *differentially*:
the hoisted program, executed op by op against the real CKKS layer, must
decrypt to bit-exactly the same outputs as the unhoisted program, for
randomized rotation sets.  Performance is checked against the simulator:
the hoisted schedule is never worse, and on the hoisting-heavy
``packed_bootstrap`` workload it is >= 10% better.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import FheBuilder, hoist_rotations
from repro.core.config import ChipConfig
from repro.core.simulator import simulate
from repro.interpret import lower
from repro.ir import (
    ADD,
    HOIST_MODUP,
    INPUT,
    OUTPUT,
    ROTATE,
    ROTATE_HOISTED,
    Program,
)
from repro.obs import collector as obs
from repro.obs.export import top_report
from repro.reliability.validate import validate_program
from repro.workloads import benchmark

_CFG = ChipConfig()

# Rotation hints are expensive to generate; cache per step count for the
# session-scoped fhe context.
_HINTS: dict[int, object] = {}


def _hint(fhe, steps: int):
    if steps not in _HINTS:
        _HINTS[steps] = fhe.ctx.rotation_hint(fhe.sk, steps)
    return _HINTS[steps]


def _build_program(groups: list[list[int]], hint_pool: int = 0) -> Program:
    """A program rotating one (or a derived second) source by each step.

    ``groups`` is a list of step lists; group 0 rotates the input, group
    i > 0 rotates a fresh value derived by i doublings, so the pass sees
    several distinct hoisting groups.  All rotation results fold into one
    output through an add chain.  ``hint_pool`` > 0 draws hint ids from a
    shared pool of that many names (``pool{steps % hint_pool}``) - the
    real-workload pattern where one hint id is reused across *different*
    rotation amounts (`repro.workloads.neural`'s ``rot{j % 8}``) - so the
    differential suite exercises programs where hint equality does NOT
    imply value equality; 0 keeps the DSL's per-amount default names.

    Cost metadata (degree 65536, level 57) is paper-scale so the
    profitability gate operates in its real regime - on tiny rings the
    pipeline-fill latency of the hoist -> rotate chain exceeds the
    compute savings and the pass correctly leaves everything fused.  The
    differential executor ignores cost metadata, so the same program
    runs bit-exactly on the small test ring.
    """
    b = FheBuilder("hoist-diff", degree=65536, max_level=60)
    x = b.input("x", 57)
    acc = None
    for gi, steps_list in enumerate(groups):
        src = x
        for _ in range(gi):
            src = b.add(src, src)
        for steps in steps_list:
            hint = f"pool{steps % hint_pool}" if hint_pool else None
            r = b.rotate(src, steps, hint_id=hint)
            acc = r if acc is None else b.add(acc, r)
    b.output(acc if acc is not None else x)
    return b.build()


def _execute(program: Program, fhe, ct) -> list[np.ndarray]:
    """Run a Program on the CKKS layer through `repro.interpret`, every
    input bound to ``ct``; returns the decrypted outputs.  The
    interpreter takes rotation amounts from ``op.steps``, never from
    hint names, so a batch merged on a shared hint id would decrypt
    differently here."""
    plan = lower(program, {op.steps: _hint(fhe, op.steps)
                           for op in program.ops if op.steps is not None})
    state = plan.run(fhe.ctx, dict.fromkeys(plan.inputs, ct))
    return [fhe.ctx.decrypt(fhe.sk, state[name]) for name in plan.outputs]


@settings(max_examples=20, deadline=None)
@given(groups=st.lists(
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
    min_size=1, max_size=2,
), hint_pool=st.integers(0, 2))
def test_hoisted_program_is_bit_exact_and_never_slower(fhe, groups,
                                                       hint_pool):
    program = _build_program(groups, hint_pool=hint_pool)
    hoisted = hoist_rotations(program, _CFG)
    validate_program(hoisted, _CFG)
    if sum(len(g) >= 2 for g in groups):
        assert any(op.kind == HOIST_MODUP for op in hoisted.ops)

    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(77))
    want = _execute(program, fhe, ct)
    got = _execute(hoisted, fhe, ct)
    assert len(got) == len(want)
    for w, g in zip(want, got):
        # Bit-exact, not approximately equal: phi_k commutes with the
        # coefficient-wise digit split, so the hoisted keyswitch computes
        # the identical residue arithmetic in a different order of
        # identical steps.
        assert np.array_equal(w, g)

    base = simulate(program, _CFG).cycles
    assert simulate(hoisted, _CFG).cycles <= base


def test_singleton_groups_are_never_rewritten():
    # A hoisted lone rotation never costs less than the fused one, so
    # singletons are never candidates and the program is untouched.
    program = _build_program([[2]])
    hoisted = hoist_rotations(program, _CFG)
    assert [op.kind for op in hoisted.ops] == [op.kind for op in program.ops]
    assert not any(op.kind == HOIST_MODUP for op in hoisted.ops)


def test_non_rotation_programs_pass_through():
    b = FheBuilder("no-rotations", degree=512, max_level=6)
    x = b.input("x", 6)
    b.output(b.add(x, x))
    program = b.build()
    hoisted = hoist_rotations(program, _CFG)
    assert [op.kind for op in hoisted.ops] == [op.kind for op in program.ops]


def test_same_hint_members_batch_into_one_op():
    # Three rotations by the same amount share an evaluation key; hoisting
    # batches them (repeat=3) so the KSH generator runs once, and rewires
    # the dropped members' consumers to the representative result.
    program = _build_program([[1, 1, 1, 2]])
    hoisted = hoist_rotations(program, _CFG)
    batched = [op for op in hoisted.ops if op.kind == ROTATE_HOISTED]
    assert sorted(op.repeat for op in batched) == [1, 3]
    produced = {op.result for op in hoisted.ops}
    for op in hoisted.ops:
        for operand in op.operands:
            assert operand in produced, f"dangling operand {operand}"


def test_shared_hint_across_amounts_is_not_merged(fhe):
    # Real workloads cycle a small pool of hint slots across *different*
    # rotation amounts: `repro.workloads.neural`'s lola_mnist_ew dense1
    # layer rotates one source by j+1 under 8 shared "rot{j % 8}" hints.
    # A hint id is a reuse handle, not a semantic equivalence - batching
    # on it alone would rewire consumers to the wrong rotation and book
    # the deleted rotations as "savings".  The pass must hoist the group
    # while keeping every distinct amount a separate rotate_hoisted.
    b = FheBuilder("shared-hints", degree=65536, max_level=60)
    x = b.input("x", 57)
    acc = None
    for j in range(12):
        r = b.rotate(x, j + 1, hint_id=f"rot{j % 4}")
        acc = r if acc is None else b.add(acc, r)
    b.output(acc)
    program = b.build()

    hoisted = hoist_rotations(program, _CFG)
    validate_program(hoisted, _CFG)
    assert any(op.kind == HOIST_MODUP for op in hoisted.ops)
    probes = [op for op in hoisted.ops if op.kind == ROTATE_HOISTED]
    # Twelve distinct amounts -> twelve probes, none batched away, with
    # the multiset of amounts preserved exactly.
    assert sorted(p.steps for p in probes) == list(range(1, 13))
    assert all(p.repeat == 1 for p in probes)

    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(31))
    want = _execute(program, fhe, ct)
    got = _execute(hoisted, fhe, ct)
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


def test_unknown_amounts_never_batch():
    # Hand-built streams may omit HomOp.steps; without a known amount
    # there is no basis for a value merge, even under one shared hint.
    # The ModUp is still shared (that part is amount-independent).
    from repro.ir import HomOp

    program = Program(name="nosteps", degree=65536, max_level=60)
    program.append(HomOp(kind=INPUT, level=57, result="x"))
    for i in range(6):
        program.append(HomOp(kind=ROTATE, level=57, result=f"r{i}",
                             operands=("x",), hint_id="shared"))
    program.append(HomOp(kind=OUTPUT, level=57, result="out",
                         operands=("r5",)))
    hoisted = hoist_rotations(program, _CFG)
    validate_program(hoisted, _CFG)
    probes = [op for op in hoisted.ops if op.kind == ROTATE_HOISTED]
    assert len(probes) == 6
    assert all(p.repeat == 1 for p in probes)
    produced = {op.result for op in hoisted.ops}
    assert {f"r{i}" for i in range(6)} <= produced


def test_dropped_member_as_later_group_source_is_renamed(fhe):
    # A batch-dropped rotation's result can itself be the source of a
    # later hoisting group.  The later group's hoist_modup and probes
    # capture operand names at analysis time, so they must be emitted
    # through the live rename map - otherwise the output program
    # references a name nothing produces and the scheduler silently
    # treats it as an external input.
    b = FheBuilder("chained", degree=65536, max_level=60)
    x = b.input("x", 57)
    r0 = b.rotate(x, 1)
    r1 = b.rotate(x, 1)  # same amount: batches with r0, r1 is dropped
    acc = b.add(r0, r1)
    for steps in (1, 2, 3):
        acc = b.add(acc, b.rotate(r1, steps))
    b.output(acc)
    program = b.build()

    hoisted = hoist_rotations(program, _CFG)
    validate_program(hoisted, _CFG)  # rejects operands with no producer
    assert sum(op.kind == HOIST_MODUP for op in hoisted.ops) == 2
    produced = {op.result for op in hoisted.ops}
    for op in hoisted.ops:
        if op.kind != INPUT:
            for operand in op.operands:
                assert operand in produced, f"dangling operand {operand}"

    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(13))
    want = _execute(program, fhe, ct)
    got = _execute(hoisted, fhe, ct)
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


def test_version_tracking_separates_redefined_sources():
    # Rotations of *different* values that happen to share an operand name
    # must not share a ModUp: redefining x closes its open groups.  The
    # DSL emits SSA names, so craft the stream by hand.
    from repro.ir import HomOp

    program = Program(name="versioned", degree=65536, max_level=60)
    program.append(HomOp(kind=INPUT, level=57, result="x"))
    for i in range(3):
        program.append(HomOp(kind=ROTATE, level=57, result=f"r{i}",
                             operands=("x",), hint_id=f"rot{i + 1}"))
    # Redefine x, then rotate the new value by the same amounts.
    program.append(HomOp(kind=ADD, level=57, result="x",
                         operands=("r0", "r1")))
    for i in range(3):
        program.append(HomOp(kind=ROTATE, level=57, result=f"s{i}",
                             operands=("x",), hint_id=f"rot{i + 1}"))
    program.append(HomOp(kind=OUTPUT, level=57, result="out",
                         operands=("s1",)))
    hoisted = hoist_rotations(program, _CFG)
    hoists = [op for op in hoisted.ops if op.kind == HOIST_MODUP]
    assert len(hoists) == 2  # one ModUp per version of x, never shared
    validate_program(hoisted, _CFG)


def test_redefined_batch_member_shadows_its_rename():
    """A batched-away member's result reads the representative's only
    until the name is redefined (non-SSA streams, crafted by hand)."""
    from repro.ir import HomOp

    program = Program(name="shadowed", degree=65536, max_level=60)
    program.append(HomOp(kind=INPUT, level=57, result="x"))
    for result, steps in (("r0", 1), ("r1", 1), ("r2", 2)):
        program.append(HomOp(kind=ROTATE, level=57, result=result,
                             operands=("x",), hint_id=f"rot{steps}",
                             steps=steps))
    program.append(HomOp(kind=ADD, level=57, result="t",
                         operands=("r1", "r2")))
    program.append(HomOp(kind=ADD, level=57, result="r1",
                         operands=("t", "r0")))
    program.append(HomOp(kind=OUTPUT, level=57, result="out",
                         operands=("r1",)))
    hoisted = hoist_rotations(program, _CFG)
    assert [op.kind for op in hoisted.ops].count(HOIST_MODUP) == 1
    uses = {op.result: op.operands for op in hoisted.ops
            if op.kind in (ADD, OUTPUT)}
    assert uses["t"] == ("r0", "r2")   # r1 was batched into r0
    assert uses["r1"] == ("t", "r0")
    assert uses["out"] == ("r1",)      # the redefined r1, not r0
    validate_program(hoisted, _CFG)


def test_packed_bootstrap_drops_at_least_ten_percent():
    program = benchmark("packed_bootstrap")
    hoisted = hoist_rotations(program, _CFG)
    base = simulate(program, _CFG).cycles
    fast = simulate(hoisted, _CFG).cycles
    assert (base - fast) / base >= 0.10


def test_pass_counters_surface_in_top_report():
    program = benchmark("packed_bootstrap")
    with obs.collecting() as c:
        hoist_rotations(program, _CFG)
    assert c.counters["compiler.hoist.hoisted_groups"] == 7
    assert c.counters["compiler.hoist.modups_saved"] == 7 * 59
    assert c.counters["compiler.hoist.rotations_hoisted"] == 7 * 60
    report = top_report(c)
    assert "compiler.hoist.hoisted_groups" in report
    assert "compiler.hoist.modups_saved" in report


def test_hoisting_holds_at_most_40_bytes_per_op_beside_its_output():
    """The pass's peak over its input and output: group lists for
    rotations only, and one rewrite per hoisted rotation.  A version
    counter per result name took 63 bytes an op on lstm."""
    program = benchmark("lstm")
    tracemalloc.start()
    try:
        lowered = hoist_rotations(program, _CFG)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lowered.ops
    assert peak - size <= 40 * len(program.ops), \
        (peak - size) / len(program.ops)
