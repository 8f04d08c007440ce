"""DSL front end: level tracking, digit schedules, op emission."""

import pytest

from repro.compiler.dsl import FheBuilder, Value
from repro.ir import ADD, INPUT, MULT, OUTPUT, PMULT, RESCALE, ROTATE
from repro.reliability.errors import ScheduleError


def make_builder(**kw):
    defaults = dict(name="t", degree=65536, max_level=20)
    defaults.update(kw)
    return FheBuilder(**defaults)


def test_value_validation():
    with pytest.raises(ValueError):
        Value("x", 0)


def test_input_output_roundtrip():
    b = make_builder()
    x = b.input("x", 10)
    b.output(x)
    prog = b.build()
    assert [op.kind for op in prog.ops] == [INPUT, OUTPUT]
    assert prog.ops[1].operands == (x.name,)


def test_mult_emits_keyswitch_and_rescale():
    b = make_builder()
    x = b.input("x", 10)
    y = b.mult(x, x)
    prog = b.build()
    kinds = [op.kind for op in prog.ops]
    assert kinds == [INPUT, MULT, RESCALE]
    assert y.level == 9
    assert prog.ops[1].hint_id == "relin"


def test_mult_level_mismatch():
    b = make_builder()
    x = b.input("x", 10)
    y = b.input("y", 8)
    with pytest.raises(ValueError, match="different levels"):
        b.mult(x, y)
    b.mult(b.mod_drop(x, 8), y)  # aligned: fine


def test_add_auto_aligns_levels():
    b = make_builder()
    x = b.input("x", 10)
    y = b.input("y", 7)
    z = b.add(x, y)
    assert z.level == 7


def test_rotate_hint_naming():
    b = make_builder()
    x = b.input("x", 10)
    b.rotate(x, 5)
    b.rotate(x, 5, hint_id="custom")
    prog = b.build()
    assert prog.ops[1].hint_id == "rot5"
    assert prog.ops[2].hint_id == "custom"


def test_digit_schedule_applied_per_level():
    b = make_builder(digit_schedule={10: 2, 9: 1})
    x = b.input("x", 10)
    y = b.mult(x, x)          # keyswitch at level 10 -> 2 digits
    b.mult(y, y)              # at level 9 -> 1 digit
    prog = b.build()
    mults = [op for op in prog.ops if op.kind == MULT]
    assert mults[0].digits == 2
    assert mults[1].digits == 1


def test_rescale_floor():
    b = make_builder()
    x = b.input("x", 1)
    with pytest.raises(ValueError):
        b.rescale(x)


def test_mod_drop_and_raise_level():
    b = make_builder()
    x = b.input("x", 10)
    assert b.mod_drop(x, 5).level == 5
    with pytest.raises(ValueError):
        b.mod_drop(x, 12)
    assert b.raise_level(x, 15).level == 15
    with pytest.raises(ValueError):
        b.raise_level(x, 5)


def test_phase_tagging():
    b = make_builder()
    x = b.input("x", 10)
    b.phase("conv0")
    x = b.pmult(x, "w")
    b.phase("act")
    b.mult(x, x)
    prog = b.build()
    assert prog.ops[1].tag == "conv0"
    assert prog.ops[-1].tag == "act"
    assert prog.phase_names() == ["conv0", "act"]


def test_max_level_guard():
    b = make_builder(max_level=5)
    with pytest.raises(ValueError, match="exceeds"):
        b.input("x", 9)


def test_pmult_repeat_and_compact():
    b = make_builder()
    x = b.input("x", 10)
    b.pmult(x, "w", rescale=False, repeat=7, compact=True)
    op = b.build().ops[-1]
    assert op.kind == PMULT and op.repeat == 7 and op.compact_pt


def _square_body(b):
    return lambda x: b.add(b.mult(x, x), b.rotate(x, 1))


@pytest.mark.parametrize("levels", [(10, 10, 10), (10, 8, 10)])
def test_replay_emits_what_the_body_emits(levels):
    """Spliced calls equal direct emission, per source level."""
    b, ref = make_builder(), make_builder()
    b.phase("p")
    ref.phase("p")
    for level in levels:
        x = b.input("x", level)
        out = b.replay("sq", x, _square_body(b))
        rx = ref.input("x", level)
        assert out == _square_body(ref)(rx)
    assert b.build().ops == ref.build().ops


def test_replay_rejects_a_body_reading_another_value():
    b = make_builder()
    other = b.input("y", 10)
    with pytest.raises(ScheduleError):
        b.replay("bad", b.input("x", 10), lambda x: b.add(x, other))
