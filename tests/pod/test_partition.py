"""Partitioner invariants: conservation, stitching, balance.

The load-bearing property is *conservation*: the shards' ``op_indices``
are a disjoint cover of the source program - no op dropped, no op
duplicated (except the deliberate stitched INPUT/OUTPUT legs, which are
recorded separately and tagged ``pod-cut``).  Checked exhaustively on
the deep benchmarks and property-based on random DAGs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cache import compile_program
from repro.compiler.dsl import FheBuilder
from repro.compiler.hoisting import hoist_rotations
from repro.core.config import ChipConfig
from repro.ir import (HOIST_MODUP, INPUT, OUTPUT, ROTATE_HOISTED, HomOp,
                      Program)
from repro.obs import collector as obs
from repro.pod import (DATA_PARALLEL, LinkModel, MODEL_PARALLEL, PodConfig,
                       partition)
from repro.reliability.validate import validate_program
from repro.workloads import benchmark

CFG = ChipConfig()


def random_program(draw_ops: list[tuple[str, int, int]],
                   inputs: int) -> "Program":
    """A valid random DAG from a hypothesis-drawn op script."""
    b = FheBuilder("hyp", degree=256, max_level=6)
    values = [b.input(f"x{i}", level=4) for i in range(inputs)]
    for kind, a, c in draw_ops:
        va = values[a % len(values)]
        if kind == "add":
            values.append(b.add(va, values[c % len(values)]))
        elif kind == "rotate":
            values.append(b.rotate(va, steps=1 + c % 7))
        else:  # square keeps the DAG single-operand but drops a level
            if va.level >= 2:
                values.append(b.square(va))
    b.output(values[-1])
    return b.build()


def assert_conservation(program, part):
    """Shards' op_indices are a disjoint, complete, ordered cover."""
    seen = []
    for shard in part.shards:
        assert list(shard.op_indices) == sorted(shard.op_indices)
        seen.extend(shard.op_indices)
    assert sorted(seen) == list(range(len(program.ops)))
    assert len(seen) == len(set(seen)), "an op landed on two shards"


def assert_stitching(program, part):
    """Every non-original op is a tagged pod-cut INPUT/OUTPUT that the
    shard records; everything else is the original op, verbatim."""
    for shard in part.shards:
        extra = [op for op in shard.program.ops if op.tag == "pod-cut"]
        kept = [op for op in shard.program.ops if op.tag != "pod-cut"]
        assert kept == [program.ops[i] for i in shard.op_indices]
        for op in extra:
            assert op.kind in (INPUT, OUTPUT)
            if op.kind == INPUT:
                assert op.result in shard.stitched_inputs
            else:
                assert op.operands[0] in shard.stitched_outputs


@pytest.mark.parametrize("name", ["logreg", "resnet20"])
@pytest.mark.parametrize("chips", [1, 2, 3, 4, 8])
def test_model_parallel_benchmarks_conserve_and_validate(name, chips):
    program = benchmark(name)
    pod = PodConfig(chips=chips, strategy=MODEL_PARALLEL)
    part = partition(program, CFG, pod)
    assert part.chips == chips
    assert_conservation(program, part)
    assert_stitching(program, part)
    for shard in part.shards:
        if shard.program.ops:
            validate_program(shard.program, CFG)
    # Every cut edge crosses shards forward (contiguous cut => the
    # producer's chunk precedes the consumer's) at its true ring
    # distance.
    for e in part.edges:
        assert e.src < e.dst
        assert e.words > 0
        assert e.hops == LinkModel.ring_hops(e.src, e.dst, chips)
        assert e.hops >= 1


def test_data_parallel_is_mirrored():
    program = benchmark("logreg")
    part = partition(program, CFG, PodConfig(chips=4))
    assert part.strategy == DATA_PARALLEL
    assert not part.edges
    for shard in part.shards:
        assert shard.program is program
        assert len(shard.op_indices) == len(program.ops)
        assert shard.batch_share == pytest.approx(0.25)
    assert sum(s.batch_share for s in part.shards) == pytest.approx(1.0)


def test_boundary_never_splits_hoist_group():
    """A cut directly after a hoist_modup would put the raised digit
    object on the wire; the partitioner must shift past it."""
    program = compile_program(benchmark("packed_bootstrap"), CFG)
    assert any(op.kind == HOIST_MODUP for op in program.ops)
    # At 5 chips an unguarded min-cut does land right after a hoist_modup.
    for chips in (2, 3, 4, 5, 8):
        part = partition(program, CFG,
                         PodConfig(chips=chips, strategy=MODEL_PARALLEL))
        for shard in part.shards[:-1]:
            if shard.op_indices:
                last = program.ops[shard.op_indices[-1]]
                assert last.kind != HOIST_MODUP
    # The greedy cutter on its own: one hoist group whose ModUp is where
    # its 3- and 5-chip balance points fall.
    from repro.pod.partition import _cut_points, _op_weights, _uncuttable

    group = Program("hoist-group", degree=4096, max_level=12)
    group.append(HomOp(INPUT, 10, "x"))
    group.append(HomOp(HOIST_MODUP, 10, "raised", ("x",)))
    for j in range(8):
        group.append(HomOp(ROTATE_HOISTED, 10, f"r{j}", ("raised", "x"),
                           hint_id=f"h{j}", steps=j + 1))
    group.append(HomOp(OUTPUT, 10, "out", ("r0",)))
    for chips in (3, 5):
        for b in _cut_points(group, _op_weights(group, CFG),
                             _uncuttable(group.ops), chips):
            assert group.ops[b - 1].kind != HOIST_MODUP


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "rotate", "square"]),
                  st.integers(0, 63), st.integers(0, 63)),
        min_size=1, max_size=40),
    inputs=st.integers(1, 4),
    chips=st.integers(1, 6),
    strategy=st.sampled_from([DATA_PARALLEL, MODEL_PARALLEL]),
    hoist=st.booleans(),
)
def test_partition_conservation_property(ops, inputs, chips, strategy,
                                         hoist):
    """Union of shards == program; no op duplicated except the
    deliberate stitched legs; no boundary splits a hoist group - for
    whichever cutter (greedy or min-cut) wins the simulator gate
    (satellite property test)."""
    program = random_program(ops, inputs)
    if hoist:
        # Hoisted programs carry HOIST_MODUP groups the cutter must
        # never split (the raised digit object cannot cross the wire).
        program = hoist_rotations(program, CFG)
    pod = PodConfig(chips=chips, strategy=strategy)
    part = partition(program, CFG, pod)
    if strategy == DATA_PARALLEL:
        for shard in part.shards:
            assert list(shard.op_indices) == list(range(len(program.ops)))
        assert sum(s.batch_share for s in part.shards) == pytest.approx(1.0)
        return
    assert_conservation(program, part)
    assert_stitching(program, part)
    for shard in part.shards:
        if shard.program.ops:
            validate_program(shard.program, CFG)
    # Edge accounting: shard cut words reconcile with the edge list,
    # and every edge carries its real ring distance.
    for c, shard in enumerate(part.shards):
        in_w = sum(e.words for e in part.edges if e.dst == c)
        out_w = sum(e.words for e in part.edges if e.src == c)
        assert shard.cut_in_words == pytest.approx(in_w)
        assert shard.cut_out_words == pytest.approx(out_w)
    for e in part.edges:
        assert e.hops == LinkModel.ring_hops(e.src, e.dst, chips)
    # No cut directly after a hoist_modup, whichever cutter won.
    for shard in part.shards[:-1]:
        if shard.op_indices:
            assert program.ops[shard.op_indices[-1]].kind != HOIST_MODUP


def test_mincut_gate_counters_and_never_pessimizes():
    """The min-cut candidate is adopted only when the simulator says it
    wins; either way the gate leaves an audit trail in the
    ``compiler.mincut.*`` counters.  Each cutter wins some races, which
    is why both stay: packed_bootstrap at 4 chips is where min-cut pays
    off (the greedy balance point pushes a fat ciphertext onto the
    wire), and unpacked_bootstrap at 2 chips is where greedy does."""
    from repro.pod.partition import (_cut_points, _mincut_points,
                                     _op_weights, _partition_model,
                                     _uncuttable)
    from repro.pod.simulator import stage_results

    def bottleneck(part, pod):
        return max(r.cycles for r in stage_results(part, CFG, pod))

    for name, chips, verdict in (("packed_bootstrap", 4, "applied"),
                                 ("unpacked_bootstrap", 2, "rejected")):
        program = benchmark(name)
        pod = PodConfig(chips=chips, strategy=MODEL_PARALLEL)
        with obs.collecting() as c:
            part = partition(program, CFG, pod)
        considered = c.counters.get("compiler.mincut.considered", 0)
        applied = c.counters.get("compiler.mincut.applied", 0)
        rejected = c.counters.get("compiler.mincut.rejected", 0)
        assert considered == 1, name
        assert applied + rejected == considered, name
        assert c.counters.get(f"compiler.mincut.{verdict}", 0) == 1, name
        # Never-pessimize: the adopted partition prices no worse than
        # either cutter's bounds under the exact cost model the pod
        # simulator uses.
        weights = _op_weights(program, CFG)
        uncuttable = _uncuttable(program.ops)
        greedy = _partition_model(
            program, CFG, pod, chips,
            bounds=_cut_points(program, weights, uncuttable, chips))
        mincut = _partition_model(
            program, CFG, pod, chips,
            bounds=_mincut_points(program, weights, uncuttable, CFG, pod,
                                  chips))
        win = bottleneck(part, pod)
        assert win <= bottleneck(greedy, pod), name
        assert win <= bottleneck(mincut, pod), name
        if verdict == "applied":
            assert c.counters.get("compiler.mincut.cycles_saved", 0) > 0
        else:
            assert win < bottleneck(mincut, pod), name
