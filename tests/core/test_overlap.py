"""Overlap-stream invariants of the core simulator.

The pod layer's double-buffered transfers lean on three algebraic
guarantees of ``simulate(..., overlap_streams=...)``:

* *never worse than serialized*: the overlapped run's ``cycles`` is
  bounded by what the same streams cost serialized, and its
  ``serialized_cycles`` field reproduces that charge bit-for-bit as
  recomputed here from a stream-free run (same float ops, same order);
* *never better than physics*: overlap can hide a transfer behind
  compute and idle bandwidth, but not shrink the op stream's own
  critical path or outrun the busiest per-direction port;
* *telescoping accounting*: the per-op critical-path advances sum
  exactly to ``program_cycles`` whatever the streams, and grouped by
  tag they are ``tag_cycles``, so the serving layer's per-phase
  charging and its replay prices never invent or lose a cycle.

Checked property-based on random DAGs x random stream sets, plus spot
checks on a deep benchmark.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.dsl import FheBuilder
from repro.core.config import ChipConfig
from repro.core.simulator import simulate, simulate_ops

from tests.core import oracles

CFG = ChipConfig()


def random_program(draw_ops, inputs):
    """A valid random DAG from a hypothesis-drawn op script."""
    b = FheBuilder("hyp-overlap", degree=256, max_level=6)
    values = [b.input(f"x{i}", level=4) for i in range(inputs)]
    for kind, a, c in draw_ops:
        va = values[a % len(values)]
        if kind == "add":
            values.append(b.add(va, values[c % len(values)]))
        elif kind == "rotate":
            values.append(b.rotate(va, steps=1 + c % 7))
        else:
            if va.level >= 2:
                values.append(b.square(va))
    b.output(values[-1])
    return b.build()


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["add", "rotate", "square"]),
              st.integers(0, 63), st.integers(0, 63)),
    min_size=1, max_size=30)

def serialized_reference(plain, streams):
    """The serialized charge of ``streams`` on top of a stream-free
    run: ``max(compute, memory + sum(words / rate))`` in dict order,
    computed outside the simulator."""
    mem = plain.mem_cycles
    for words, rate in streams.values():
        if words > 0:
            mem += words / (rate or CFG.hbm_words_per_cycle)
    return max(plain.compute_cycles, mem)


streams_strategy = st.dictionaries(
    st.sampled_from(["link_in", "link_out"]),
    st.tuples(st.floats(1.0, 1e7), st.floats(0.01, 1e4)),
    min_size=1, max_size=2)


@settings(max_examples=30, deadline=None)
@given(ops=ops_strategy, inputs=st.integers(1, 4),
       streams=streams_strategy)
def test_overlap_bounded_by_serialized_and_physics(ops, inputs, streams):
    program = random_program(ops, inputs)
    plain = simulate(program, CFG)
    overlapped = simulate(program, CFG, overlap_streams=streams)
    # Bit-identical serialized reference: the overlap run carries the
    # would-have-been cost in the same float ops as the reference.
    serialized = serialized_reference(plain, streams)
    assert overlapped.serialized_cycles == serialized
    assert overlapped.cycles <= serialized
    # Physics floor: the op stream's own critical path and the busiest
    # per-direction port are irreducible.
    assert overlapped.cycles >= overlapped.program_cycles
    assert overlapped.cycles >= overlapped.link_port_cycles
    # Hidden cycles are exactly the serialized-vs-overlapped gap.
    assert overlapped.overlap_hidden_cycles == pytest.approx(
        overlapped.serialized_cycles - overlapped.cycles)
    # Stream words join the program's own traffic split under their
    # names (words moved are words moved, whoever hides them).
    assert overlapped.traffic_words == {
        **plain.traffic_words,
        **{name: words for name, (words, _) in streams.items()}}


@settings(max_examples=30, deadline=None)
@given(ops=ops_strategy, inputs=st.integers(1, 4))
def test_no_streams_degenerates_to_plain_run(ops, inputs):
    program = random_program(ops, inputs)
    plain = simulate(program, CFG)
    assert plain.serialized_cycles == plain.cycles
    assert plain.overlap_hidden_cycles == 0.0
    assert plain.link_port_cycles == 0.0
    assert plain.program_cycles == plain.cycles


@settings(max_examples=20, deadline=None)
@given(ops=ops_strategy, inputs=st.integers(1, 4),
       streams=st.one_of(st.none(), streams_strategy))
def test_tag_cycles_telescope_to_program_cycles(ops, inputs, streams):
    program = random_program(ops, inputs)
    res, advances = simulate_ops(program, CFG, overlap_streams=streams)
    oracles.check_advances(program, res, advances)


def test_deep_benchmark_overlap_spot_check(benchmark_program):
    """A bandwidth-heavy stream on a real benchmark: some of it hides
    behind compute, and the accounting identities still close."""
    program = benchmark_program("logreg", False)
    plain = simulate(program, CFG)
    words = plain.mem_cycles  # ~1 word/cycle worth of extra transfers
    streams = {"link_in": (words, 0.5), "link_out": (words, 0.5)}
    overlapped = simulate(program, CFG, overlap_streams=streams)
    serialized = serialized_reference(plain, streams)
    assert overlapped.serialized_cycles == serialized
    assert overlapped.cycles < serialized  # something hid
    assert overlapped.overlap_hidden_cycles > 0
    assert overlapped.cycles >= max(plain.cycles, words / 0.5)
