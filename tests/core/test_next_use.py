"""The simulator's flat next-use table against the oracle's dicts.

``_next_use_table`` keeps one next use per touch, op after op, in
``oracles.touched`` order: operands, the hint of a keyswitching op, the
plaintext, the result.  ``oracles.next_use_table`` keeps the per-op
dicts it replaced.  Flattened in touched order, the dicts must give the
same sequence: a name one op touches twice reads its one dict value at
both positions.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import _next_use_table, simulate
from repro.ir import KEYSWITCH_KINDS, KINDS, ROTATE_HOISTED, HomOp, Program
from repro.workloads import ALL_BENCHMARKS

from tests.core import oracles
from tests.core.test_register_file import STEP, _cfg, _random_program


def _flattened(program: Program) -> list[float]:
    return [uses[obj]
            for op, uses in zip(program.ops, oracles.next_use_table(program))
            for obj in oracles.touched(op)]


def _assert_matches(program: Program) -> None:
    assert list(_next_use_table(program)) == _flattened(program)


@pytest.mark.parametrize("compiled", (False, True),
                         ids=("plain", "compiled"))
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_flat_table_matches_oracle_on_benchmarks(benchmark_program, name,
                                                 compiled):
    _assert_matches(benchmark_program(name, compiled))


# Every role draws from one pool, so one op may name the same object as
# an operand twice, as operand and result, or as hint and plaintext;
# "" is an ordinary (empty) id.
POOL = ("a", "b", "c", "")
ANY_OP = st.tuples(
    st.sampled_from(KINDS),
    st.lists(st.sampled_from(POOL), max_size=3),   # operands
    st.sampled_from((None, *POOL)),                # hint (any kind)
    st.sampled_from((None, *POOL)),                # plaintext
    st.sampled_from(POOL),                         # result
)


def _any_program(specs) -> Program:
    program = Program(name="nu", degree=4096, max_level=4)
    for kind, operands, hint, plaintext, result in specs:
        if kind == ROTATE_HOISTED:
            operands = (operands + list(POOL))[:2]
        if kind in KEYSWITCH_KINDS and hint is None:
            hint = "h"
        program.append(HomOp(kind, 4, result, tuple(operands),
                             hint_id=hint, plaintext_id=plaintext))
    return program


@settings(max_examples=300, deadline=None)
@given(specs=st.lists(ANY_OP, max_size=30))
def test_flat_table_matches_oracle_on_any_stream(specs):
    """Duplicated operands, a name in two roles, redefinitions, empty
    ids and hints on ops that never keyswitch (which touch no hint)."""
    _assert_matches(_any_program(specs))


# Hints and plaintexts renamed onto ciphertext names: a fetched hint or
# plaintext shares its next uses with a live ciphertext of that name.
_TWO_ROLES = {"h0": "a", "h1": "b", "p0": "c", "p1": "a"}


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(STEP, max_size=40),
       slots=st.sampled_from((1.4, 2.5, 3.7)))
def test_names_in_two_roles_match_oracle(steps, slots):
    program = _random_program(steps)
    program.ops = [
        replace(op, hint_id=_TWO_ROLES.get(op.hint_id, op.hint_id),
                plaintext_id=_TWO_ROLES.get(op.plaintext_id,
                                            op.plaintext_id))
        for op in program.ops]
    _assert_matches(program)
    cfg = _cfg(slots)
    assert repr(asdict(simulate(program, cfg))) \
        == repr(asdict(oracles.simulate(program, cfg)))


def test_table_costs_at_most_20_bytes_per_touch(benchmark_program):
    """One double per touch: resnet20's dict-per-op table took 74.5
    bytes a touch."""
    program = benchmark_program("resnet20", False)
    touches = sum(len(oracles.touched(op)) for op in program.ops)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = _next_use_table(program)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == touches
    assert size <= 20 * touches
