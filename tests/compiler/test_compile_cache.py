"""The compiler contract: value keys and the memory compile cache.

Two layers of guarantees, in the order the cache depends on them:

1. Key contract - a program's cache key (its fingerprint) is the
   program by value: sensitive to every op field, the op order, the
   ring parameters and the whole config; blind only to the display
   fields ``Program.name`` / ``description``.
2. Cache behavior - LRU, snapshots, obs counters and spans, and a
   cache hit that is a bit-identical substitute for a fresh compile on
   the deep benchmarks (with their simulated cycles pinned).

docs/COMPILER.md's worked example is validated here too, so the doc
cannot drift from the code.
"""

from __future__ import annotations

from dataclasses import astuple, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cache import (
    CompileCache,
    CompileKey,
    compile_key,
    compile_program,
)
from repro.compiler.dsl import FheBuilder
from repro.compiler.hoisting import hoist_rotations
from repro.core.config import ChipConfig
from repro.core.simulator import simulate
from repro.ir import HomOp, Program
from repro.obs import collector as obs
from repro.workloads import DEEP_BENCHMARKS, benchmark

REPO = Path(__file__).resolve().parents[2]
CFG = ChipConfig()


def fingerprint(program: Program, cfg: ChipConfig = CFG) -> CompileKey:
    """A program's compile-cache key (the default config unless given)."""
    return compile_key(program, cfg)

#: Simulated CraterLake cycles of each deep benchmark after
#: compile_program (rotation hoisting).
COMPILED_CYCLES = {
    "resnet20": 207255562.80000228,
    "logreg": 98101431.20000231,
    "lstm": 120150718.40000702,
    "packed_bootstrap": 2847030.399999988,
}


def docs_example_program() -> Program:
    """The worked example in docs/COMPILER.md (kept tiny on purpose)."""
    b = FheBuilder("docs-example", degree=64, max_level=4)
    x = b.input("x", level=3)
    r1 = b.rotate(x, steps=1)
    r2 = b.rotate(x, steps=2)
    s = b.add(r1, r2)
    b.output(s)
    return b.build()


def renamed(program: Program, value_prefix: str = "",
            hint_prefix: str = "") -> Program:
    """A fresh Program with value and hint names consistently prefixed."""
    out = Program(name=program.name, degree=program.degree,
                  max_level=program.max_level,
                  description=program.description)
    for op in program.ops:
        out.ops.append(replace(
            op,
            result=value_prefix + op.result,
            operands=tuple(value_prefix + o for o in op.operands),
            hint_id=(hint_prefix + op.hint_id
                     if op.hint_id is not None else None),
        ))
    return out


def with_ops(program: Program, ops: list[HomOp]) -> Program:
    """A fresh Program carrying ``ops``."""
    out = Program(name=program.name, degree=program.degree,
                  max_level=program.max_level,
                  description=program.description)
    out.ops = ops
    return out


# -- hypothesis: builder-generated programs ---------------------------------

@st.composite
def programs(draw) -> Program:
    """Valid programs via the DSL: random dags of add/rotate/pmult/mult
    over a shared hint pool, so keys see hint sharing,
    plaintexts, steps (positive and negative), and level drops."""
    b = FheBuilder(draw(st.sampled_from(["p", "prog-x"])),
                   degree=64, max_level=8)
    values = [b.input(f"in{i}", level=draw(st.integers(4, 8)))
              for i in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 12))):
        action = draw(st.sampled_from(["add", "rotate", "pmult", "mult"]))
        a = draw(st.sampled_from(values))
        if action == "add":
            other = draw(st.sampled_from(values))
            if other.level == a.level:
                values.append(b.add(a, other))
        elif action == "rotate":
            steps = draw(st.integers(-31, 31))
            hint = draw(st.sampled_from([None, "hA", "hB"]))
            values.append(b.rotate(a, steps=steps, hint_id=hint))
        elif action == "pmult":
            pt = draw(st.sampled_from(["w0", "w1"]))
            if a.level >= 2:
                values.append(b.pmult(a, pt, compact=draw(st.booleans())))
        elif action == "mult":
            other = draw(st.sampled_from(values))
            if other.level == a.level and a.level >= 2:
                values.append(b.mult(a, other))
    b.output(draw(st.sampled_from(values)))
    return b.build()


@settings(max_examples=50, deadline=None)
@given(programs(), st.data())
def test_any_schedule_relevant_mutation_changes_fingerprint(program, data):
    base = fingerprint(program)
    ops = list(program.ops)
    i = data.draw(st.integers(0, len(ops) - 1), label="op index")
    op = ops[i]
    mutations = ["drop", "tag", "level"]
    if op.kind in ("mult", "pmult", "add", "rotate", "conjugate",
                   "rotate_hoisted"):
        mutations.append("repeat")
    if op.kind in ("rotate", "rotate_hoisted"):
        mutations.append("steps")
    kind = data.draw(st.sampled_from(mutations), label="mutation")
    if kind == "drop":
        del ops[i]
    elif kind == "steps":
        ops[i] = replace(op, steps=(op.steps or 0) + 1)
    elif kind == "repeat":
        ops[i] = replace(op, repeat=op.repeat + 1)
    elif kind == "tag":
        ops[i] = replace(op, tag=op.tag + "x")
    elif kind == "level":
        ops[i] = replace(op, level=max(1, op.level - 1)
                         if op.level > 1 else op.level + 1)
    assert fingerprint(with_ops(program, ops)) != base


def test_fingerprint_sensitive_to_op_order():
    # Op order IS the schedule; reordering ops must miss.
    program = docs_example_program()
    i = next(i for i, op in enumerate(program.ops) if op.kind == "rotate")
    ops = list(program.ops)
    ops[i], ops[i + 1] = ops[i + 1], ops[i]
    assert fingerprint(with_ops(program, ops)) != fingerprint(program)


def test_renamed_program_is_a_different_key():
    # Names are part of the program's value: a consistently renamed
    # program is a different program to the cache (a miss, never a
    # wrong hit).
    program = docs_example_program()
    base = fingerprint(program)
    assert fingerprint(renamed(program, value_prefix="ssa_")) != base
    assert fingerprint(renamed(program, hint_prefix="hint_")) != base
    assert fingerprint(renamed(program)) == base


def test_fingerprint_sensitive_to_hint_sharing_structure():
    # Collapsing two distinct hints into one changes how much hint
    # traffic the schedule pays, so it must change the key.
    b = FheBuilder("two-hints", degree=64, max_level=4)
    x = b.input("x", level=3)
    b.output(b.add(b.rotate(x, steps=1, hint_id="h1"),
                   b.rotate(x, steps=2, hint_id="h2")))
    two = b.build()
    merged = with_ops(two, [
        replace(op, hint_id="h1" if op.hint_id is not None else None)
        for op in two.ops
    ])
    assert fingerprint(merged) != fingerprint(two)


def test_fingerprint_ignores_display_names_only():
    program = docs_example_program()
    base = fingerprint(program)
    relabeled = with_ops(program, list(program.ops))
    relabeled.name = "something-else"
    relabeled.description = "same schedule, new label"
    assert fingerprint(relabeled) == base
    # The config is keyed as one value, its display name included.
    assert fingerprint(program, ChipConfig(register_file_mb=128.0)) != base
    assert fingerprint(program, ChipConfig(name="renamed-chip")) != base


def test_fingerprint_sensitive_to_ring_params():
    program = docs_example_program()
    base = fingerprint(program)
    bigger = with_ops(program, list(program.ops))
    bigger.max_level = program.max_level + 1
    assert fingerprint(bigger) != base


def test_memory_tier_hit_miss_and_lru_eviction():
    cache = CompileCache(memory_entries=2)
    progs = {f"fp{i}": docs_example_program() for i in range(3)}
    assert cache.get("fp0") is None
    for fp, p in progs.items():
        cache.put(fp, p)
    # fp0 was evicted by fp2 (LRU, capacity 2)
    assert cache.get("fp0") is None
    assert cache.get("fp1") is not None
    assert cache.get("fp2") is not None
    assert cache.stats == {"hit": 2, "miss": 2, "store": 3, "evict": 1}


def test_put_snapshots_the_ops_list():
    cache = CompileCache()
    program = docs_example_program()
    cache.put("fp", program)
    program.ops.append(HomOp(kind="input", level=1, result="late"))
    assert len(cache.get("fp").ops) == len(program.ops) - 1


def test_cache_counters_flow_through_obs():
    with obs.collecting() as collector:
        cache = CompileCache()
        cache.get("e" * 64)
        cache.put("e" * 64, docs_example_program())
        cache.get("e" * 64)
    assert collector.counters["compiler.cache.miss"] == 1
    assert collector.counters["compiler.cache.store"] == 1
    assert collector.counters["compiler.cache.hit"] == 1


# -- compile_program ---------------------------------------------------------

def test_compile_program_matches_manual_pipeline():
    cfg = ChipConfig()
    for program in (docs_example_program(), benchmark("packed_bootstrap")):
        manual = hoist_rotations(program, cfg)
        compiled = compile_program(program, cfg)
        assert compiled.ops == manual.ops  # op-for-op
        assert compiled == manual
    program = docs_example_program()
    manual = hoist_rotations(program, cfg)
    cache = CompileCache()
    first = compile_program(program, cfg, cache=cache)
    again = compile_program(program, cfg, cache=cache)
    assert first == manual == again
    assert cache.stats == {"hit": 1, "miss": 1, "store": 1, "evict": 0}


def test_cache_hit_keeps_caller_metadata():
    cache = CompileCache()
    compile_program(docs_example_program(), cache=cache)
    relabeled = docs_example_program()
    relabeled.name = "served-request-17"
    relabeled.description = "same graph, new label"
    out = compile_program(relabeled, cache=cache)
    assert cache.stats["hit"] == 1
    assert out.name == "served-request-17"
    assert out.description == "same graph, new label"


def test_compile_spans_are_recorded():
    with obs.collecting() as collector:
        compile_program(docs_example_program(), cache=CompileCache())
    totals = collector.span_totals()
    assert totals["compiler.compile"][0] == 1
    # Building the key is not a timed region; only the compile is.
    assert not [name for name in totals
                if name.startswith("compiler.cache")]


@pytest.mark.slow
@pytest.mark.parametrize("name", DEEP_BENCHMARKS)
def test_cached_simulation_is_bit_identical(name):
    """The differential seal: on every deep benchmark, simulating the
    cache-hit schedule reproduces the fresh compile's SimResult exactly
    (cycles, traffic, every field), and the cycles are the pinned
    known answer."""
    program = benchmark(name)
    cfg = ChipConfig()
    cache = CompileCache()
    fresh = simulate(compile_program(program, cfg, cache=cache), cfg)
    cached = simulate(compile_program(program, cfg, cache=cache), cfg)
    assert cache.stats["hit"] == 1 and cache.stats["miss"] == 1
    assert cached == fresh  # dataclass equality: bit-identical everything
    assert fresh.cycles == COMPILED_CYCLES[name]


# -- docs stay true ---------------------------------------------------------

def test_compiler_doc_example_is_generated_from_code():
    """docs/COMPILER.md's worked example must match what the code
    actually produces for the example program."""
    text = (REPO / "docs" / "COMPILER.md").read_text()
    key = fingerprint(docs_example_program())
    assert key.cfg is CFG
    example = (f"(key.degree, key.max_level, len(key.ops)) == "
               f"({key.degree}, {key.max_level}, {len(key.ops)})\n"
               "[astuple(op) for op in key.ops] == [\n"
               + "".join(f"    {astuple(op)!r},\n" for op in key.ops)
               + "]")
    assert example in text, "COMPILER.md's example key is stale"
