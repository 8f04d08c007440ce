"""Cycle-level simulator: timing, Belady storage, traffic accounting."""

from dataclasses import asdict

import pytest

from repro.compiler.dsl import FheBuilder
from repro.core.config import ChipConfig
from repro.core.simulator import simulate
from repro.ir import HomOp, Program

CFG = ChipConfig()


def tiny_program(level=20, rotations=4, distinct_hints=2):
    b = FheBuilder("tiny", degree=65536, max_level=level)
    x = b.input("x", level)
    for i in range(rotations):
        x = b.rotate(x, 1, hint_id=f"h{i % distinct_hints}")
    b.output(x)
    return b.build()


def test_empty_program():
    res = simulate(Program(name="empty", degree=65536, max_level=10), CFG)
    assert res.cycles == 0
    assert res.total_traffic_bytes == 0


def test_degree_guard():
    prog = Program(name="big", degree=131072, max_level=10)
    with pytest.raises(ValueError, match="native maximum"):
        simulate(prog, CFG)
    simulate(prog, ChipConfig.craterlake_128k())  # fine on the variant


def test_hint_reuse_reduces_traffic():
    many = simulate(tiny_program(rotations=8, distinct_hints=8), CFG)
    few = simulate(tiny_program(rotations=8, distinct_hints=1), CFG)
    assert few.traffic_words["ksh"] < many.traffic_words["ksh"] / 4
    # Compute work is identical either way.
    assert few.fu_busy_cycles == many.fu_busy_cycles


def test_time_is_max_of_compute_and_memory():
    res = simulate(tiny_program(), CFG)
    assert res.cycles >= res.mem_cycles
    assert res.cycles >= res.compute_cycles - 1e-9
    assert res.cycles == max(res.compute_cycles, res.mem_cycles)


def test_memory_bound_when_hints_never_reused():
    res = simulate(tiny_program(rotations=30, distinct_hints=30), CFG)
    assert res.bandwidth_utilization > 0.9


def test_small_register_file_thrashes():
    prog = tiny_program(level=60, rotations=24, distinct_hints=6)
    big = simulate(prog, CFG)
    small = simulate(prog, CFG.with_register_file(30))
    assert small.traffic_words["ksh"] > big.traffic_words["ksh"]
    assert small.cycles > big.cycles


def test_belady_keeps_the_reused_hint():
    """Two hints alternate; a third is used once in the middle.  With room
    for ~two hints, Belady must evict the single-use one."""
    b = FheBuilder("belady", degree=65536, max_level=60)
    x = b.input("x", 60)
    pattern = ["a", "b", "once", "a", "b", "a", "b", "a", "b"]
    for i, h in enumerate(pattern):
        x = b.rotate(x, 1, hint_id=h)
    prog = b.build()
    # Hint ~26 MB at L=60; RF of 64 MB fits two hints + operands-ish.
    res = simulate(prog, CFG.with_register_file(96))
    hint_words = None
    from repro.core.cost import boosted_keyswitch_cost

    hint_words = boosted_keyswitch_cost(CFG, 65536, 60, 2).hint_words
    loads = res.traffic_words["ksh"] / hint_words
    # Optimal: a, b, once fetched once each, plus at most ~2 re-fetches.
    assert loads <= 5.5, loads


def test_traffic_categories():
    b = FheBuilder("cats", degree=65536, max_level=20)
    x = b.input("x", 20)
    y = b.pmult(x, "weights", rescale=False)
    z = b.mult(x, y)
    b.output(z)
    res = simulate(b.build(), CFG)
    assert res.traffic_words["inputs"] > 0       # the input ct + plaintext
    assert res.traffic_words["ksh"] > 0          # relin hint
    assert res.traffic_words["interm_store"] > 0  # the output writeback


def test_compact_plaintexts_move_less():
    def prog(compact):
        b = FheBuilder("c", degree=65536, max_level=40)
        x = b.input("x", 40)
        x = b.pmult(x, "w", rescale=False, compact=compact)
        b.output(x)
        return b.build()
    full = simulate(prog(False), CFG)
    small = simulate(prog(True), CFG)
    assert small.traffic_words["inputs"] < full.traffic_words["inputs"]


def test_f1plus_slower_on_deep_keyswitching():
    from repro.baselines import f1plus_config

    prog = tiny_program(level=57, rotations=12, distinct_hints=3)
    cl = simulate(prog, CFG)
    f1 = simulate(prog, f1plus_config())
    assert f1.cycles > 3 * cl.cycles


def test_fu_utilization_bounds():
    res = simulate(tiny_program(), CFG)
    assert 0 <= res.fu_utilization() <= 1
    assert 0 <= res.bandwidth_utilization <= 1


# -- dead-dropping and the sim.* observables ---------------------------


def test_dead_values_are_dropped_on_last_use():
    """Free-on-last-use: a chain of rotates kills each intermediate at
    its single consumer, so residents are released instead of lingering
    as Belady victims."""
    res = simulate(tiny_program(rotations=8, distinct_hints=2), CFG)
    assert res.dead_drops > 0
    assert res.rf_evictions == 0


def test_output_drops_stored_record_for_non_ssa_streams():
    """An OUTPUT whose result name shadows a resident value (hand-built,
    non-SSA streams) must release that record too - and its operand, once
    stored, is dead and dropped as well."""
    prog = Program(name="shadow", degree=65536, max_level=10)
    prog.append(HomOp(kind="input", level=10, result="x"))
    prog.append(HomOp(kind="add", level=10, result="y", operands=("x", "x")))
    prog.append(HomOp(kind="output", level=10, result="y", operands=("x",)))
    res = simulate(prog, CFG)
    # x dropped as a stored dead operand; y dropped as the shadowed record
    # (y is the op's own result name, hence counted via the result branch).
    assert res.dead_drops >= 2


def test_output_of_a_live_value_keeps_it_resident_and_clean():
    """Storing a value that a later op still reads leaves it resident
    (no reload) and clean: the store already backed it in memory."""
    prog = Program(name="midstore", degree=65536, max_level=10)
    prog.append(HomOp(kind="input", level=10, result="x"))
    prog.append(HomOp(kind="add", level=10, result="y", operands=("x", "x")))
    prog.append(HomOp(kind="output", level=10, result="out_y",
                      operands=("y",)))
    prog.append(HomOp(kind="add", level=10, result="z", operands=("y", "x")))
    prog.append(HomOp(kind="output", level=10, result="out_z",
                      operands=("z",)))
    res = simulate(prog, CFG)
    ct = 2 * 65536 * 10
    assert res.traffic_words["interm_load"] == 0
    assert res.traffic_words["interm_store"] == 2 * ct  # the two stores
    # x, y and z each dropped at their last use.
    assert res.dead_drops == 3


def test_hint_id_on_an_op_that_never_keyswitches_is_ignored():
    """Only a keyswitching op fetches its hint, so only such an op
    touches it: a ``hint_id`` on an ADD must not pin the hint resident
    with a next use nothing fetches."""
    def program(add_hint):
        prog = Program(name="hinted_add", degree=65536, max_level=10)
        prog.append(HomOp(kind="input", level=10, result="x"))
        prog.append(HomOp(kind="rotate", level=10, result="y",
                          operands=("x",), hint_id="h", steps=1))
        prog.append(HomOp(kind="add", level=10, result="z",
                          operands=("y", "y"), hint_id=add_hint))
        prog.append(HomOp(kind="output", level=10, result="out",
                          operands=("z",)))
        return prog

    hinted = simulate(program("h"), CFG)
    assert hinted.dead_drops == 4    # x, h, y, z
    assert asdict(hinted) == asdict(simulate(program(None), CFG))


def test_op_events_telescope_to_cycles():
    from repro.obs import collector as obs

    prog = tiny_program(level=60, rotations=24, distinct_hints=6)
    # The 30 MB register file thrashes, so the eviction counter is live.
    for cfg in (CFG, CFG.with_register_file(30)):
        with obs.collecting() as c:
            res = simulate(prog, cfg)
        assert c.total_op_cycles() == pytest.approx(res.cycles)
        assert c.counters.get("sim.rf_evictions", 0) == res.rf_evictions
        assert c.counters.get("sim.dead_drops", 0) == res.dead_drops
        assert c.counters.get("sim.stall_cycles", 0) == pytest.approx(
            res.stall_cycles)
    assert res.rf_evictions > 0


def test_memory_bound_stream_stalls_compute():
    from repro.obs import collector as obs

    with obs.collecting() as c:
        res = simulate(tiny_program(rotations=30, distinct_hints=30), CFG)
    assert 0 < res.stall_cycles <= res.cycles  # memory-bound: compute waits
    assert c.counters["sim.stall_cycles"] == pytest.approx(res.stall_cycles)


def test_tag_cycles_telescope_to_total():
    """Per-tag critical-path attribution partitions the total exactly:
    every cycle of critical-path advance is charged to exactly one
    phase tag, so the tag shares sum to SimResult.cycles."""
    b = FheBuilder("tagged", degree=65536, max_level=20)
    b.phase("load")
    x = b.input("x", 20)
    b.phase("spin")
    for i in range(6):
        x = b.rotate(x, 1, hint_id=f"h{i % 2}")
    b.phase("emit")
    b.output(x)
    res = simulate(b.build(), CFG)
    assert res.tag_cycles
    assert sum(res.tag_cycles.values()) == pytest.approx(res.cycles)
    assert set(res.tag_cycles) <= {"load", "spin", "emit"}
    assert res.tag_cycles.get("spin", 0) > 0


def test_tag_cycles_scale_with_occupancy_repeat():
    """A pmult with repeat=k streams k plaintexts: its phase's share
    grows with k while untouched phases keep their cost - the serving
    layer's per-request attribution depends on this."""
    def prog(repeat):
        b = FheBuilder("occ", degree=65536, max_level=20)
        b.phase("in")
        x = b.input("x", 20)
        b.phase("score")
        x = b.pmult(x, "w", repeat=repeat)
        b.phase("reduce")
        x = b.rotate(x, 1, hint_id="h0")
        b.output(x)
        return b.build()

    lean = simulate(prog(1), CFG)
    full = simulate(prog(8), CFG)
    assert full.tag_cycles["score"] > lean.tag_cycles["score"]
    # Attribution is critical-path advance, not isolated op cost: the
    # bigger score phase's streaming can HIDE part of the later hint
    # load, so reduce's share may shrink with occupancy - never grow.
    assert full.tag_cycles["reduce"] <= lean.tag_cycles["reduce"] + 1e-9
    assert full.cycles > lean.cycles


def test_redefined_name_does_not_leak_register_file():
    """``ADD x <- (x, y)`` overwrites x: the old record is released (no
    writeback, its value is gone), so 400 redefinitions hold two
    ciphertexts, not 400, and nothing is evicted or spilled."""
    n, level = 65536, 10
    prog = Program(name="redefine", degree=n, max_level=level)
    prog.append(HomOp(kind="input", level=level, result="x"))
    prog.append(HomOp(kind="input", level=level, result="y"))
    for _ in range(400):
        prog.append(HomOp(kind="add", level=level, result="x",
                          operands=("x", "y")))
    prog.append(HomOp(kind="output", level=level, result="out_x",
                      operands=("x",)))
    prog.append(HomOp(kind="output", level=level, result="out_y",
                      operands=("y",)))
    res = simulate(prog, CFG)
    ct = 2 * n * level
    assert res.peak_resident_words == 2 * ct
    assert res.rf_evictions == 0
    assert res.traffic_words["interm_load"] == 0
    assert res.traffic_words["interm_store"] == 2 * ct  # the two OUTPUTs


def test_empty_hint_and_plaintext_ids_are_ordinary_names():
    """``HomOp`` accepts ``""`` as a hint or plaintext id; it names an
    object like any other, so renaming one to it moves no field (an
    empty id used to be fetched but never dead-dropped)."""
    def chain(hint, plaintext):
        prog = Program(name="ids", degree=65536, max_level=20)
        prog.append(HomOp(kind="input", level=20, result="x0"))
        for i in range(6):
            prog.append(HomOp(kind="rotate", level=20, result=f"x{i + 1}",
                              operands=(f"x{i}",), hint_id=hint))
        prog.append(HomOp(kind="pmult", level=20, result="y",
                          operands=("x6",), plaintext_id=plaintext))
        prog.append(HomOp(kind="output", level=20, result="out",
                          operands=("y",)))
        return prog

    cfg = CFG.with_register_file(30)
    named = asdict(simulate(chain("h", "p"), cfg))
    assert asdict(simulate(chain("", "p"), cfg)) == named
    assert asdict(simulate(chain("h", ""), cfg)) == named
