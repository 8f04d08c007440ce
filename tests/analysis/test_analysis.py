"""Analytic models: Table 1 formulas, Fig. 3/4 curves, report helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ciphertext_size_sweep,
    format_table,
    gmean,
    optimal_point,
)
from repro.analysis.opcounts import (
    boosted_keyswitch_ops,
    crossover_level,
    keyswitch_footprint_curve,
    standard_keyswitch_ops,
)
from repro.core.config import ChipConfig
from repro.core.cost import CostTable
from repro.ir import MULT, OUTPUT
from repro.workloads import multiplication_chain, wide_multiply_graph


def test_table1_exact_formulas_at_60():
    b = boosted_keyswitch_ops(60)
    s = standard_keyswitch_ops(60)
    assert (b.mult, b.add, b.ntt) == (11040, 10920, 360)
    assert (s.mult, s.add, s.ntt) == (7200, 7200, 3600)


@given(st.integers(min_value=1, max_value=80))
@settings(max_examples=40, deadline=None)
def test_table1_formulas_property(level):
    b = boosted_keyswitch_ops(level)
    assert b.mult == 3 * level**2 + 4 * level
    assert b.add == 3 * level**2 + 2 * level
    assert b.ntt == 6 * level
    s = standard_keyswitch_ops(level)
    assert s.ntt == level**2


def test_hint_bytes_paper_anchors():
    b = boosted_keyswitch_ops(60)
    s = standard_keyswitch_ops(60)
    assert 50e6 < b.hint_bytes(65536) < 56e6       # 52.5 MB
    assert 1.5e9 < s.hint_bytes(65536) < 1.8e9     # 1.7 GB
    assert b.hint_bytes(65536, seeded=True) == b.hint_bytes(65536) / 2


def test_footprint_curve_monotone():
    levels, std, boost = keyswitch_footprint_curve(60)
    assert all(b2 >= b1 for b1, b2 in zip(boost, boost[1:]))
    assert all(s2 >= s1 for s1, s2 in zip(std, std[1:]))
    assert std[-1] > 20 * boost[-1]


def test_crossover_is_moderate():
    assert 5 <= crossover_level() <= 20


def test_sweep_rejects_tiny_chains():
    # L=20 cannot host packed bootstrapping; L=25 can, but leaves one
    # usable level and so no multiply to amortize the refresh over.
    points = ciphertext_size_sweep(levels=[20, 25, 40, 57])
    assert [p.max_level for p in points] == [40, 57]


def _refresh_region(two, three):
    """The ops a 3-region program emits beyond a 2-region one."""
    assert three.ops[:len(two) - 1] == two.ops[:-1]
    assert three.ops[-1].kind == two.ops[-1].kind == OUTPUT
    return three.ops[len(two) - 1:-1]


def test_sweep_point_is_the_cost_table_price_of_one_region():
    max_level, width = 45, 100
    point, = ciphertext_size_sweep(levels=[max_level], wide_width=width)
    steps = point.usable_levels - 1
    table = CostTable(ChipConfig(), 65536)
    for metric, mults_per_step, two, three in [
        ("mults_per_op_chain", 1,
         multiplication_chain(total_mults=2 * steps, max_level=max_level),
         multiplication_chain(total_mults=3 * steps, max_level=max_level)),
        ("mults_per_op_wide", width,
         wide_multiply_graph(levels=2 * steps, width=width,
                             max_level=max_level),
         wide_multiply_graph(levels=3 * steps, width=width,
                             max_level=max_level)),
    ]:
        region = _refresh_region(two, three)
        app_mults = [op for op in region
                     if op.kind == MULT and op.tag != "bootstrap"]
        assert len(app_mults) == steps * mults_per_step
        price = sum(table[op].cost.scalar_mults for op in region)
        assert getattr(point, metric) == pytest.approx(
            price / len(app_mults), rel=1e-12)


def test_optimal_point_selects_minimum():
    points = ciphertext_size_sweep(levels=[36, 48, 57])
    best = optimal_point(points, "mults_per_op_wide")
    assert best.mults_per_op_wide == min(p.mults_per_op_wide for p in points)


def test_gmean():
    assert abs(gmean([2, 8]) - 4.0) < 1e-9
    assert abs(gmean([5]) - 5.0) < 1e-9
    with pytest.raises(ValueError):
        gmean([])
    with pytest.raises(ValueError):
        gmean([1.0, -2.0])


def test_format_table():
    text = format_table(["a", "bee"], [[1, 2.5], ["x", 0.001]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "bee" in lines[1]
    assert len({len(l) for l in lines[1:]}) <= 2  # aligned columns
