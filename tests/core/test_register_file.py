"""The simulator's Belady register file against the reference op loop.

``simulate`` keeps its residents in one flat loop with a lazy-deletion
heap; ``oracles.simulate`` is the helper-per-step loop it replaced, on a
``max``-scan register file.  Every program below runs through both on a
small register file, and every :class:`SimResult` field must agree
(``repr`` of a float round-trips exactly, so string equality is
bit-identity).  The explicit cases pin the victim order - farthest next
use, then fewest words, then oldest insertion, where a next-use update
keeps a resident's seniority and a redefinition renews it - each through
the traffic that the chosen victim leaves behind.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import f1plus_config
from repro.core.config import ChipConfig
from repro.core.simulator import simulate, simulate_ops
from repro.ir import (
    ADD,
    HOIST_MODUP,
    INPUT,
    MULT,
    OUTPUT,
    PMULT,
    RESCALE,
    ROTATE,
    ROTATE_HOISTED,
    HomOp,
    Program,
)

from tests.core import oracles

N = 4096
LEVEL = 4
W = 2 * N * LEVEL   # one level-4 ciphertext; also a level-4 rotation
                    # hint on CraterLake and a repeat-2 level-4 plaintext


def _cfg(slots: float, base=ChipConfig) -> ChipConfig:
    """A register file of ``slots`` level-4 ciphertexts."""
    cfg = base()
    return cfg.with_register_file(slots * W * cfg.bytes_per_word / 2**20)


def _program(*ops: HomOp, max_level: int = 8) -> Program:
    program = Program(name="rf", degree=N, max_level=max_level)
    for op in ops:
        program.append(op)
    return program


def _both(program: Program, cfg: ChipConfig):
    result = simulate(program, cfg)
    assert repr(asdict(result)) == repr(asdict(oracles.simulate(program, cfg)))
    return result


def inp(name: str, level: int = LEVEL) -> HomOp:
    return HomOp(INPUT, level, name)


def add(result: str, a: str, b: str) -> HomOp:
    return HomOp(ADD, LEVEL, result, (a, b))


def rot(result: str, a: str, hint: str) -> HomOp:
    return HomOp(ROTATE, LEVEL, result, (a,), hint_id=hint)


def out(a: str) -> HomOp:
    return HomOp(OUTPUT, LEVEL, "out_" + a, (a,))


def _traffic(result) -> tuple[float, float, float]:
    t = result.traffic_words
    return t["ksh"], t["interm_load"], t["interm_store"]


# -- differential property ----------------------------------------------

NAMES = ("a", "b", "c", "d", "e")
HINTS = ("h0", "h1", "")       # "" is an ordinary name
PLAINTEXTS = ("p0", "p1", "")

STEP = st.tuples(
    st.sampled_from(("input", "add", "mult", "pmult", "rotate", "rescale",
                     "hoist", "output")),
    st.integers(0, 9),               # first operand
    st.integers(0, 9),               # second operand (duplicates common)
    st.sampled_from(NAMES),          # result: redefinitions common
    st.integers(1, LEVEL),           # level
    st.integers(0, 2),               # hint / plaintext / rotation count
    st.sampled_from((1, 2, 3, 8)),   # repeat: 8 plaintexts outgrow the RF
    st.booleans(),                   # compact plaintext / 2 digits / hint
)


def _random_program(steps) -> Program:
    program = _program(inp("a"), max_level=LEVEL)
    defined = ["a"]
    for kind, i, j, result, level, k, repeat, flag in steps:
        x, y = defined[i % len(defined)], defined[j % len(defined)]
        digits = 2 if flag and level >= 2 else 1
        if kind == "input":
            ops = [HomOp(INPUT, level, result)]
        elif kind == "add":
            # A hint on an op that does not keyswitch is touched, never
            # fetched.
            ops = [HomOp(ADD, level, result, (x, y), repeat=repeat,
                         hint_id=HINTS[k] if flag else None)]
        elif kind == "mult":
            ops = [HomOp(MULT, level, result, (x, y), hint_id=HINTS[k],
                         digits=digits)]
        elif kind == "pmult":
            ops = [HomOp(PMULT, level, result, (x,),
                         plaintext_id=PLAINTEXTS[k], compact_pt=flag,
                         repeat=repeat)]
        elif kind == "rotate":
            ops = [HomOp(ROTATE, level, result, (x,), hint_id=HINTS[k],
                         digits=digits, repeat=repeat)]
        elif kind == "rescale":
            ops = [HomOp(RESCALE, level, result, (x,))]
        elif kind == "hoist":
            ops = [HomOp(HOIST_MODUP, level, "raised", (x,), digits=digits)]
            ops += [HomOp(ROTATE_HOISTED, level,
                          result if m == k else f"{result}{m}",
                          ("raised", x), hint_id=HINTS[m], digits=digits,
                          steps=m + 1, repeat=repeat)
                    for m in range(k + 1)]
        else:
            # OUTPUT of a value that may still be live; a result name
            # that shadows a resident is a hand-built non-SSA stream.
            ops = [HomOp(OUTPUT, level, "out" if k == 0 else result, (x,))]
        for op in ops:
            program.append(op)
            if op.kind != OUTPUT and op.result not in defined:
                defined.append(op.result)
    return program


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(STEP, max_size=40),
       slots=st.sampled_from((1.4, 2.5, 3.7)),
       base=st.sampled_from((ChipConfig, f1plus_config)))
def test_heap_matches_scan_oracle(steps, slots, base):
    _both(_random_program(steps), _cfg(slots, base))


# -- the victim order, one case at a time -------------------------------


def test_tie_evicts_oldest_insertion():
    """Hint h and ciphertext a have the same size and next use (op 3 or
    4 reads both); a third object forces one eviction, and the older of
    the two goes.  A hint is refetched as KSH traffic; a dirty ``a`` is
    written back and reloaded."""
    hint_older = _both(_program(
        inp("x"), rot("a", "x", "h"),   # h inserted before a
        inp("p"),                       # pressure: evicts h
        rot("r", "a", "h"), out("r")), _cfg(2.5))
    assert _traffic(hint_older) == (2 * W, 0, W)

    a_older = _both(_program(
        inp("x"), add("a", "x", "x"),
        inp("y"), rot("b", "y", "h"),   # h inserted after a; inserting
                                        # b evicts a
        rot("r", "a", "h"), out("r")), _cfg(2.5))
    assert _traffic(a_older) == (W, W, 2 * W)


def test_reinserted_name_loses_seniority():
    """``a`` predates h, but redefining ``a`` makes it the younger."""
    result = _both(_program(
        inp("x"), add("a", "x", "x"),
        inp("y"), rot("b", "y", "h"),
        add("a", "a", "a"),             # redefinition: a new insertion
        inp("p", 2 * LEVEL),            # pressure: evicts h
        rot("r", "a", "h"), out("r")), _cfg(3.5))
    assert _traffic(result) == (2 * W, 0, W)


def test_next_use_update_keeps_seniority():
    """The same stream with ``a`` read instead of redefined: moving its
    next use keeps its seniority, so ``a`` goes."""
    result = _both(_program(
        inp("x"), add("a", "x", "x"),
        inp("y"), rot("b", "y", "h"),
        add("c", "a", "a"),             # next-use update only
        inp("p", 2 * LEVEL),            # pressure: evicts a
        rot("r", "a", "h"), out("r")), _cfg(3.5))
    assert _traffic(result) == (W, W, 2 * W)


def test_smaller_resident_goes_first_among_equal_next_uses():
    """Input ``a`` (W words, older) and plaintext p (W/2, younger) are
    both next read by op 4: the smaller goes, whatever its age."""
    result = _both(_program(
        inp("a"), inp("y"),
        HomOp(PMULT, LEVEL, "b", ("y",), plaintext_id="p"),
        inp("q", 6),                    # 1.5 W of pressure
        HomOp(PMULT, LEVEL, "r", ("a",), plaintext_id="p"),
        out("r")), _cfg(2.5))
    # a, y, q (1.5 W) and p (W/2) twice: the smaller p was the victim.
    assert result.traffic_words["inputs"] == 4.5 * W
    assert result.traffic_words["interm_load"] == 0  # a never reloaded


def test_redefinition_releases_the_old_value():
    result = _both(_program(inp("x"), *[add("x", "x", "x")] * 5, out("x")),
                   _cfg(2.5))
    assert result.peak_resident_words == W
    assert result.rf_evictions == 0


def test_heap_stays_bounded_under_next_use_churn():
    """Every op moves x's next use and inserts a dead result, two heap
    pushes an op; the once-per-op compaction keeps the heap within
    4x the residents plus 64 entries, plus one op's pushes."""
    churn = 2000
    program = _program(inp("x"), *[add("y", "x", "x")] * churn, out("x"))
    sizes = []

    def watch(frame, event, arg):
        if event == "c_call" and arg is heapq.heappush \
                and frame.f_code is simulate_ops.__code__:
            sizes.append(len(frame.f_locals["heap"]))

    sys.setprofile(watch)
    try:
        simulate(program, _cfg(2.5))
    finally:
        sys.setprofile(None)
    assert len(sizes) >= 2 * churn
    assert max(sizes) <= 4 * 2 + 64 + 4
