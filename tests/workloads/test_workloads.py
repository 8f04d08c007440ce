"""Workload generators: structure and paper-anchored properties."""

from dataclasses import replace

import pytest

from repro.compiler.dsl import FheBuilder
from repro.ir import CONJUGATE, INPUT, KEYSWITCH_KINDS, MULT, RESCALE, ROTATE
from repro.workloads import (
    ALL_BENCHMARKS,
    DEEP_BENCHMARKS,
    SHALLOW_BENCHMARKS,
    benchmark,
    multiplication_chain,
    wide_multiply_graph,
)
from repro.workloads.bootstrap import BootstrapPlan, emit_bootstrap, plan_for
from repro.workloads.synthetic import _plan_for_max_level


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_benchmarks_build(name):
    prog = benchmark(name)
    assert len(prog) > 20
    assert prog.keyswitch_count() > 0
    assert prog.count(INPUT) >= 1


def test_unknown_benchmark():
    with pytest.raises(KeyError):
        benchmark("nope")


def test_deep_benchmarks_bootstrap():
    for name in DEEP_BENCHMARKS:
        prog = benchmark(name)
        boot_ops = [op for op in prog.ops if op.tag == "bootstrap"]
        assert boot_ops, name
        assert prog.max_live_level() >= 50, name


def test_shallow_benchmarks_do_not_bootstrap():
    for name in SHALLOW_BENCHMARKS:
        if name == "unpacked_bootstrap":
            continue
        prog = benchmark(name)
        assert not any(op.tag == "bootstrap" for op in prog.ops), name
        assert prog.max_live_level() <= 8, name


def test_lstm_bootstrap_count():
    """Paper: ~50 bootstrappings per LSTM inference."""
    prog = benchmark("lstm")
    starts = 0
    prev = ""
    for op in prog.ops:
        if op.tag == "bootstrap" and prev != "bootstrap":
            starts += 1
        prev = op.tag
    assert 40 <= starts <= 60, starts


def test_mnist_encrypted_weights_heavier():
    uw = benchmark("lola_mnist_uw")
    ew = benchmark("lola_mnist_ew")
    assert ew.count(MULT) > uw.count(MULT)
    assert ew.count(INPUT) > uw.count(INPUT)  # weights arrive encrypted


def test_plan_level_accounting():
    plan = plan_for(80)
    assert plan.top_level == 57
    assert plan.levels_consumed == 35  # Fig. 2: bootstrap consumes 35
    assert plan.usable_levels == 22    # leaving 22 for the application


def test_emitted_bootstrap_keyswitches():
    plan = plan_for(80)
    b = FheBuilder("boot", max_level=plan.top_level)
    emit_bootstrap(b, b.input("x", 1), plan)
    prog = b.build()
    # 7 transform stages x 12 rotations x 5 tiles, 2 lanes x (35 sine
    # multiplies + 8 double angles), and 3 conjugations: the lane split
    # plus one per lane.
    assert prog.count(CONJUGATE) == 3
    assert prog.keyswitch_count() == 7 * 12 * 5 + 2 * (35 + 8) + 3 == 509


_PLANS = {
    **{f"{sec}bit{tag}": replace(plan_for(sec), packed_fraction=fraction)
       for sec in (80, 128) for tag, fraction in (("", 1.0), ("_lstm", 0.8))},
    **{f"Lmax{level}": _plan_for_max_level(80, 65536, level)
       for level in range(30, 61, 3)},
}


@pytest.mark.parametrize("plan", _PLANS.values(), ids=_PLANS.keys())
def test_bootstrap_returns_the_usable_level(plan):
    """A workload may carry a refreshed value on as is: no relabel to
    ``usable_levels`` is needed after ``emit_bootstrap``."""
    b = FheBuilder("boot", max_level=plan.top_level)
    assert emit_bootstrap(b, b.input("x", 1), plan).level \
        == plan.usable_levels


def test_plan_consuming_whole_chain_rejected():
    plan = BootstrapPlan(top_level=20)
    with pytest.raises(ValueError):
        _ = plan.usable_levels


def test_128bit_plan_shallower():
    p80, p128 = plan_for(80), plan_for(128)
    assert p128.top_level < p80.top_level
    assert p128.usable_levels < p80.usable_levels


def test_200bit_requires_large_ring():
    with pytest.raises(ValueError, match="128K"):
        plan_for(200, degree=65536)
    assert plan_for(200, degree=131072).top_level >= 50


def test_synthetic_chain_bootstraps_between_mults():
    prog = multiplication_chain(total_mults=60, max_level=45)
    assert prog.count(MULT) >= 60
    assert any(op.tag == "bootstrap" for op in prog.ops)


@pytest.mark.parametrize("max_level", [30, 57])
def test_chain_placement_is_lazy(max_level):
    """The emission-time rule is the placement: each bootstrap refreshes
    a value at level 1, and each region between refreshes spends every
    usable level on exactly usable - 1 multiplies."""
    usable = _plan_for_max_level(80, 65536, max_level).usable_levels
    prog = multiplication_chain(total_mults=4 * (usable - 1),
                                max_level=max_level)
    level_of = {}
    regions, mults, prev_tag = [], 0, ""
    for op in prog.ops:
        if op.tag == "bootstrap" and prev_tag != "bootstrap":
            assert level_of[op.operands[0]] == 1
            regions.append(mults)
            mults = 0
        elif op.tag != "bootstrap" and op.kind == MULT:
            mults += 1
        level_of[op.result] = op.level - 1 if op.kind == RESCALE else op.level
        prev_tag = op.tag
    regions.append(mults)
    assert regions == [usable - 1] * 4


def test_synthetic_wide_amortizes():
    chain = multiplication_chain(total_mults=40, max_level=57)
    wide = wide_multiply_graph(levels=40, width=100, max_level=57)
    boot = lambda p: sum(
        1 for op in p.ops
        if op.tag == "bootstrap" and op.kind in KEYSWITCH_KINDS
    )
    # Same multiplicative depth, but wide does ~100x the useful multiplies
    # per bootstrap keyswitch.
    assert wide.count(MULT) > 50 * chain.count(MULT) / 2
    assert boot(wide) == boot(chain)


def test_security_parameter_reaches_workloads():
    p80 = benchmark("packed_bootstrap", security=80)
    p128 = benchmark("packed_bootstrap", security=128)
    # 128-bit refreshes a smaller budget per bootstrap => more work total.
    assert p128.keyswitch_count() > p80.keyswitch_count()
    assert max(op.digits for op in p128.ops) > max(op.digits for op in p80.ops)
