"""Per-op cost model: Table 1 correspondence and limiting resources."""

import pytest

from repro.analysis.opcounts import boosted_keyswitch_ops
from repro.baselines import f1plus_config
from repro.core.config import ChipConfig
from repro.core.cost import (
    boosted_keyswitch_cost,
    ciphertext_words,
    keyswitch_cost,
    op_cost,
    op_latency,
    plaintext_words,
    standard_keyswitch_cost,
)
from repro.ir import (
    ADD,
    HOIST_MODUP,
    MULT,
    PMULT,
    RESCALE,
    ROTATE,
    ROTATE_HOISTED,
    HomOp,
)
from repro.reliability.errors import ParameterError

CFG = ChipConfig()
N = 65536


def test_boosted_ntt_passes_match_table1():
    # t=1 at level L: 6L NTT passes (Listing 1 / Table 1).
    for level in (10, 30, 60):
        cost = boosted_keyswitch_cost(CFG, N, level, 1)
        assert cost.fu_elements["ntt"] == 6 * level * N


def test_boosted_keyswitch_is_table1_plus_p_inverse_scaling():
    """Table 1's 1-digit column counts 3L^2 + 4L multiplies; the cost
    model charges 2L more, the P^-1 scaling of both ModDown outputs,
    which Table 1 folds into the CRB pass.  NTT passes agree at 6L."""
    no_crb = CFG.without_crb_chaining()
    for level in range(1, 61):
        table1 = boosted_keyswitch_ops(level)
        cost = boosted_keyswitch_cost(no_crb, N, level, 1)
        assert cost.fu_elements["mul"] == (table1.mult + 2 * level) * N
        assert cost.fu_elements["ntt"] == table1.ntt * N
        assert cost.scalar_mults == (table1.scalar_mults(N)
                                     + 2 * level * N)


def test_boosted_keyswitch_rejects_an_empty_selection():
    with pytest.raises(ParameterError, match="modup, remainder or both"):
        boosted_keyswitch_cost(CFG, N, 8, 2, modup=False, remainder=False)


def _singleton_costs(cfg, level, digits):
    """(fused ROTATE, HOIST_MODUP merged with one ROTATE_HOISTED)."""
    rotate = op_cost(cfg, HomOp(kind=ROTATE, level=level, result="r",
                                operands=("x",), hint_id="h",
                                digits=digits), N)
    hoisted = op_cost(cfg, HomOp(kind=HOIST_MODUP, level=level, result="m",
                                 operands=("x",), digits=digits), N)
    hoisted.merge(op_cost(cfg, HomOp(kind=ROTATE_HOISTED, level=level,
                                     result="r", operands=("m", "x"),
                                     hint_id="h", digits=digits), N))
    return rotate, hoisted


@pytest.mark.parametrize("cfg", [CFG, CFG.without_kshgen(),
                                 CFG.without_crb_chaining()],
                         ids=["craterlake", "no_kshgen", "no_crb_chaining"])
@pytest.mark.parametrize("level,digits", [(60, 1), (57, 2), (13, 3), (8, 2)])
def test_hoisted_singleton_costs_the_fused_rotate(cfg, level, digits):
    """A HOIST_MODUP plus one ROTATE_HOISTED prices exactly one ROTATE:
    the two ops split Listing 1 at line 4 and share its automorphism.
    (Below L ~ 8 a machine without a CRB fuses standard keyswitching
    instead, which hoisting does not split.)"""
    rotate, hoisted = _singleton_costs(cfg, level, digits)
    assert hoisted == rotate


@pytest.mark.parametrize("cfg", [CFG, CFG.without_kshgen(),
                                 CFG.without_crb_chaining(),
                                 f1plus_config()],
                         ids=["craterlake", "no_kshgen", "no_crb_chaining",
                              "f1plus"])
def test_hoisted_singleton_never_costs_less_than_the_fused_rotate(cfg):
    """Hoisting splits the boosted keyswitch, so a hoisted singleton costs
    the fused rotate's compute cycles exactly where ``keyswitch_cost``
    picks boosted keyswitching, and more where a machine without a CRB
    picks standard keyswitching (without_crb_chaining() at N=65536: 21
    (L, t) shapes, e.g. L=2, t=2).  It is never cheaper, which is what
    keeps the hoisting pass from rewriting a lone rotation."""
    standard = 0
    for level in range(2, 61):
        for digits in range(1, 5):
            rotate, hoisted = _singleton_costs(cfg, level, digits)
            fused = rotate.compute_cycles(cfg)
            split = hoisted.compute_cycles(cfg)
            boosted = (keyswitch_cost(cfg, N, level, digits)
                       == boosted_keyswitch_cost(cfg, N, level, digits))
            assert split >= fused, (level, digits)
            assert (split == fused) == boosted, (level, digits)
            standard += not boosted
    assert (standard > 0) == (not cfg.crb)


def test_standard_ntt_passes_match_table1():
    cost = standard_keyswitch_cost(CFG, N, 60)
    assert cost.fu_elements["ntt"] == 60 * 60 * N
    assert cost.fu_elements["mul"] == 2 * 60 * 60 * N


def test_boosted_keyswitch_is_ntt_bound_on_craterlake():
    """The CRB absorbs the 3L^2 MACs, leaving NTTs as the critical path:
    this is the O(L^2) -> O(L) keyswitch time reduction of Sec. 5.1."""
    cost = boosted_keyswitch_cost(CFG, N, 60, 1)
    ntt_cycles = cost.fu_elements["ntt"] / (CFG.ntt_units * CFG.lanes)
    assert abs(cost.compute_cycles(CFG) - ntt_cycles) / ntt_cycles < 0.05


def test_keyswitch_scales_linearly_with_level():
    c30 = boosted_keyswitch_cost(CFG, N, 30, 1).compute_cycles(CFG)
    c60 = boosted_keyswitch_cost(CFG, N, 60, 1).compute_cycles(CFG)
    assert 1.8 < c60 / c30 < 2.2


def test_no_crb_ablation_is_port_bound():
    no_crb = CFG.without_crb_chaining()
    base = boosted_keyswitch_cost(CFG, N, 57, 2).compute_cycles(CFG)
    ablated = boosted_keyswitch_cost(no_crb, N, 57, 2).compute_cycles(no_crb)
    assert ablated > 10 * base  # the Table 4 CRB/chain cliff


def test_kshgen_halves_hint_words():
    with_gen = boosted_keyswitch_cost(CFG, N, 60, 1)
    without = boosted_keyswitch_cost(CFG.without_kshgen(), N, 60, 1)
    assert without.hint_words == 2 * with_gen.hint_words
    assert with_gen.kshgen_elements > 0
    assert without.kshgen_elements == 0


def test_hint_words_match_sec3_sizes():
    # Seeded 1-digit hint at L=60: half of 52.5 MB => ~26 MB.
    cost = boosted_keyswitch_cost(CFG, N, 60, 1)
    mb = cost.hint_words * CFG.bytes_per_word / 2**20
    assert 25 < mb < 28


def test_digits_tradeoff():
    """Sec. 3.1: more digits => bigger hints, more modup NTTs."""
    h1 = boosted_keyswitch_cost(CFG, N, 60, 1)
    h2 = boosted_keyswitch_cost(CFG, N, 60, 2)
    h3 = boosted_keyswitch_cost(CFG, N, 60, 3)
    assert h1.hint_words < h2.hint_words < h3.hint_words
    assert (h1.fu_elements["ntt"] <= h2.fu_elements["ntt"]
            <= h3.fu_elements["ntt"])
    assert h3.fu_elements["ntt"] > h1.fu_elements["ntt"]


def test_policy_craterlake_always_boosted():
    cost = keyswitch_cost(CFG, N, 4, 1)
    # CRB present: boosted even where standard would be cheap.
    assert "crb" in cost.fu_elements


def test_policy_f1plus_crossover():
    """F1+-style machines pick standard at low L, boosted at high L."""
    from repro.baselines import f1plus_config

    f1 = f1plus_config()
    low = keyswitch_cost(f1, N, 6, 1)
    high = keyswitch_cost(f1, N, 40, 1)
    assert low.fu_elements["ntt"] == 36 * N          # L^2: standard
    assert high.fu_elements["ntt"] == 6 * 40 * N     # 6L: boosted
    assert high.fu_elements["ntt"] < 40 * 40 * N


def test_op_cost_kinds():
    for kind, operands in ((MULT, ("a", "b")), (ROTATE, ("a",)),
                           (PMULT, ("a",)), (ADD, ("a", "b")),
                           (RESCALE, ("a",))):
        op = HomOp(kind=kind, level=20, result="r", operands=operands,
                   hint_id="h" if kind in (MULT, ROTATE) else None)
        cost = op_cost(CFG, op, N)
        assert cost.compute_cycles(CFG) > 0, kind


def test_mult_costs_more_than_pmult():
    mult = HomOp(kind=MULT, level=20, result="r", operands=("a", "b"),
                 hint_id="relin")
    pmult = HomOp(kind=PMULT, level=20, result="r", operands=("a",),
                  plaintext_id="w")
    assert (op_cost(CFG, mult, N).compute_cycles(CFG)
            > 5 * op_cost(CFG, pmult, N).compute_cycles(CFG))


def test_repeat_scales_compute_not_hints():
    base = HomOp(kind=PMULT, level=20, result="r", operands=("a",),
                 plaintext_id="w")
    batched = HomOp(kind=PMULT, level=20, result="r", operands=("a",),
                    plaintext_id="w", repeat=10)
    cb, cr = op_cost(CFG, base, N), op_cost(CFG, batched, N)
    assert cr.fu_elements["mul"] == 10 * cb.fu_elements["mul"]
    rot = HomOp(kind=ROTATE, level=20, result="r", operands=("a",),
                hint_id="h", repeat=4)
    rot1 = HomOp(kind=ROTATE, level=20, result="r", operands=("a",),
                 hint_id="h")
    assert op_cost(CFG, rot, N).hint_words == op_cost(CFG, rot1, N).hint_words


def test_latency_model():
    mult = HomOp(kind=MULT, level=20, result="r", operands=("a", "b"),
                 hint_id="relin")
    add = HomOp(kind=ADD, level=20, result="r", operands=("a", "b"))
    assert op_latency(CFG, mult, N) > op_latency(CFG, add, N) > 0
    # Multicore-style machines hide latency by overlapping ops.
    from dataclasses import replace

    overlapped = replace(CFG, serial_execution=False)
    assert op_latency(overlapped, mult, N) == 0


def test_word_helpers():
    assert ciphertext_words(N, 60) == 2 * N * 60
    assert plaintext_words(N, 60) == N * 60


# -- the shape-keyed cost table ------------------------------------------


def _fresh(cfg, op, degree):
    from repro.core.cost import _class_capacity

    cost = op_cost(cfg, op, degree)
    return (cost, cost.compute_cycles(cfg), op_latency(cfg, op, degree),
            tuple((cls, el / max(1.0, _class_capacity(cfg, cls)))
                  for cls, el in cost.fu_elements.items()))


def _entry_tuple(entry):
    return (entry.cost, entry.cycles, entry.latency, entry.fu_cycles)


@pytest.mark.parametrize("name", ["packed_bootstrap", "lola_cifar"])
def test_cost_table_entries_equal_fresh_op_cost_after_simulate(
        name, monkeypatch):
    """Every entry the simulator's table served equals a fresh
    ``op_cost`` for each op of its shape, both on first use and after
    the run: entries are shared between ops, and no consumer mutates
    one."""
    from repro.baselines import f1plus_config
    from repro.core import cost as cost_module
    from repro.core import simulator
    from repro.ir import INPUT, OUTPUT
    from repro.workloads import benchmark

    program = benchmark(name)
    for cfg in (CFG, f1plus_config()):
        tables = []

        class Recording(cost_module.CostTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(simulator, "CostTable", Recording)
        simulator.simulate(program, cfg)
        (table,) = tables
        compute_ops = [op for op in program.ops
                       if op.kind not in (INPUT, OUTPUT)]
        shapes = {(op.kind, op.level, op.digits, op.repeat)
                  for op in compute_ops}
        assert len(table._entries) == len(shapes) < len(compute_ops)
        for op in compute_ops:
            assert _entry_tuple(table[op]) == _fresh(cfg, op, program.degree)
        assert len(table._entries) == len(shapes)  # no entry rebuilt


def test_cost_table_keys_on_shape_only():
    from repro.core.cost import CostTable

    table = CostTable(CFG, N)
    a = HomOp(kind=ROTATE, level=20, result="a", operands=("x",),
              hint_id="h1", steps=1, digits=2, tag="t")
    b = HomOp(kind=ROTATE, level=20, result="b", operands=("y",),
              hint_id="h2", steps=5, digits=2)
    assert table[a] is table[b]
    assert table[a] is not table[HomOp(kind=ROTATE, level=20, result="c",
                                       operands=("x",), hint_id="h1",
                                       digits=2, repeat=3)]
    assert len(table._entries) == 2
