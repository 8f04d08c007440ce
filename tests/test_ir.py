"""Shared IR: validation and program statistics."""

import copy
import pickle
from dataclasses import asdict, replace

import pytest

from repro.ir import (
    ADD,
    INPUT,
    KEYSWITCH_KINDS,
    MULT,
    PMULT,
    RESCALE,
    ROTATE,
    HomOp,
    Program,
)


def test_homop_validation():
    with pytest.raises(ValueError, match="kind"):
        HomOp(kind="bogus", level=1, result="r")
    with pytest.raises(ValueError, match="level"):
        HomOp(kind=ADD, level=0, result="r")
    with pytest.raises(ValueError, match="hint"):
        HomOp(kind=MULT, level=1, result="r")
    with pytest.raises(ValueError, match="digits"):
        HomOp(kind=MULT, level=1, result="r", hint_id="h", digits=0)
    with pytest.raises(ValueError, match="repeat"):
        HomOp(kind=ADD, level=1, result="r", repeat=0)
    with pytest.raises(ValueError, match="batch"):
        HomOp(kind=RESCALE, level=1, result="r", repeat=2)
    with pytest.raises(ValueError, match="batch"):
        HomOp(kind=INPUT, level=1, result="r", repeat=2)


def test_homop_is_slotted_and_round_trips():
    """No ``__dict__``: an attribute that is not a field is an error, and
    ``replace``, ``asdict``, ``deepcopy`` and ``pickle`` each give back
    an equal op."""
    op = HomOp(kind=ROTATE, level=5, result="r", operands=("x",),
               hint_id="h", steps=3, digits=2, tag="conv", repeat=2)
    assert not hasattr(op, "__dict__")
    with pytest.raises(AttributeError):
        op.color = "red"
    assert replace(op) == op
    assert HomOp(**asdict(op)) == op
    assert copy.deepcopy(op) == op
    assert pickle.loads(pickle.dumps(op)) == op


def test_keyswitch_kinds():
    assert MULT in KEYSWITCH_KINDS and ROTATE in KEYSWITCH_KINDS
    assert PMULT not in KEYSWITCH_KINDS


def test_program_validation():
    with pytest.raises(ValueError):
        Program(name="p", degree=1000, max_level=5)
    prog = Program(name="p", degree=1024, max_level=5)
    with pytest.raises(ValueError, match="exceeds"):
        prog.append(HomOp(kind=ADD, level=6, result="r"))


def test_program_statistics():
    prog = Program(name="p", degree=1024, max_level=10)
    prog.append(HomOp(kind=INPUT, level=10, result="x"))
    prog.append(HomOp(kind=MULT, level=10, result="y", operands=("x", "x"),
                      hint_id="relin", tag="phase1"))
    prog.append(HomOp(kind=ROTATE, level=9, result="z", operands=("y",),
                      hint_id="rot1", tag="phase2"))
    assert len(prog) == 3
    assert prog.count(MULT) == 1
    assert prog.keyswitch_count() == 2
    assert prog.distinct_hints() == {"relin", "rot1"}
    assert prog.max_live_level() == 10
    assert prog.phase_names() == ["phase1", "phase2"]
