"""Hoisted rotations: one ModUp shared across many rotations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import f1plus_config
from repro.core.config import ChipConfig
from repro.core.cost import boosted_keyswitch_cost
from repro.fhe.ckks import CkksContext, CkksParams
from repro.fhe.hoisting import HoistedRotator, hoisted_rotations, hoisting_savings
from repro.fhe.keyswitch import boosted_keyswitch, digit_bases
from repro.fhe.poly import COEFF, EVAL, RnsPoly
from repro.obs import collector as obs
from repro.reliability.errors import ParameterError

from tests.fhe.oracles import change_basis, mod_down

#: Session fixtures with t-digit keyswitching at L = 6 (t * alpha = L).
_BY_DIGITS = {1: "fhe", 2: "fhe_2digit", 3: "fhe_3digit"}


def test_hoisted_rotation_matches_plain(fhe):
    ctx, sk = fhe.ctx, fhe.sk
    z = fhe.random_values(31)
    ct = ctx.encrypt_values(sk, z)
    plan = {s: ctx.rotation_hint(sk, s) for s in (1, 3, 7)}
    outs = hoisted_rotations(ctx, ct, plan)
    for steps, out in outs.items():
        want = np.roll(z, -steps)
        got = ctx.decrypt(sk, out)
        assert np.max(np.abs(got - want)) < 1e-3, steps
        # And agrees with the unhoisted path.
        plain = ctx.decrypt(sk, ctx.rotate(ct, steps, plan[steps]))
        assert np.max(np.abs(got - plain)) < 1e-3, steps


def _oracle_rotation(ctx, ct, steps, hint, alpha):
    """The textbook hoisted rotation: raise every digit over Q*P with
    ``change_basis``, apply the automorphism in COEFF, NTT, multiply-
    accumulate the hint, then ModDown each accumulator on its own."""
    aux = ctx.aux_basis[:alpha]
    target = ct.basis.extend(aux)
    k = ctx.rotation_exponent(steps)
    coeff = ct.c1.to_coeff().data
    acc0 = acc1 = RnsPoly.zero(target, ct.degree, EVAL)
    start = 0
    for i, digit in enumerate(digit_bases(ct.basis, alpha)):
        rows = coeff[start:start + len(digit)]
        start += len(digit)
        raised = change_basis(RnsPoly(digit, rows, COEFF), target)
        raised = raised.automorphism(k).to_eval()
        b_rows, a_rows = hint.restricted_rows(i, target)
        acc0 = acc0 + raised * RnsPoly(target, b_rows, EVAL)
        acc1 = acc1 + raised * RnsPoly(target, a_rows, EVAL)
    return (ct.c0.automorphism(k) + mod_down(acc0, ct.basis, aux),
            mod_down(acc1, ct.basis, aux))


@pytest.mark.parametrize("digits,level", [(1, 6), (2, 6), (3, 6), (3, 5),
                                          (2, 3)])
def test_hoisted_rotation_bit_exact_against_oracle(request, digits, level):
    """The rotator's EVAL-domain ModUp, permuted digits and paired ModDown
    give the oracle's (c0, c1) bit for bit, at the top level and below."""
    fix = request.getfixturevalue(_BY_DIGITS[digits])
    ctx, sk = fix.ctx, fix.sk
    ct = ctx.drop_to_level(
        ctx.encrypt_values(sk, fix.random_values(40 + level)), level)
    rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
    for steps in (1, 3):
        hint = ctx.rotation_hint(sk, steps)
        got = rotator.rotate(steps, hint)
        want0, want1 = _oracle_rotation(ctx, ct, steps, hint,
                                        ctx.params.alpha)
        assert got.c0.domain == got.c1.domain == EVAL
        assert np.array_equal(got.c0.data, want0.data)
        assert np.array_equal(got.c1.data, want1.data)


@pytest.mark.parametrize("digits", [1, 2, 3])
def test_hoisted_group_ntt_rows_match_cost_model(request, digits):
    """At the top level (t * alpha = L) a hoisted group of k rotations
    transforms exactly the NTT passes the cycle model prices: one ModUp
    prefix plus k remainders of boosted_keyswitch_cost."""
    fix = request.getfixturevalue(_BY_DIGITS[digits])
    ctx, sk = fix.ctx, fix.sk
    level, n, k = ctx.params.max_level, ctx.params.degree, 3
    assert digits * ctx.params.alpha == level
    ct = ctx.encrypt_values(sk, fix.random_values(50))
    hints = [ctx.rotation_hint(sk, s) for s in range(1, k + 1)]
    with obs.collecting() as col:
        rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
        for steps, hint in enumerate(hints, start=1):
            rotator.rotate(steps, hint)
    want = (_ntt_passes(_modup(_CFG, n, level, digits))
            + k * _ntt_passes(_remainder(_CFG, n, level, digits))) / n
    assert col.counters["fhe.batch.ntt_rows"] == want


def test_rotator_rejects_hint_of_another_digit_width():
    """A hint generated for another digit count fails up front with the
    same ParameterError the fused keyswitch raises."""
    ctx = CkksContext(CkksParams(degree=64, max_level=4, digits=1, seed=6))
    sk = ctx.keygen()
    ct = ctx.encrypt_values(sk, [0.5, -0.25])
    hint = ctx.rotation_hint(sk, 1, digits=2)
    rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
    with pytest.raises(ParameterError, match="different special basis"):
        rotator.rotate(1, hint)
    with pytest.raises(ParameterError, match="different special basis"):
        boosted_keyswitch(ct.c1, hint, ctx.aux_basis)


def test_hoisting_empty_plan(fhe):
    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(32))
    assert hoisted_rotations(fhe.ctx, ct, {}) == {}


def test_hoisted_rotator_reuses_decomposition(fhe):
    ctx, sk = fhe.ctx, fhe.sk
    ct = ctx.encrypt_values(sk, fhe.random_values(33))
    rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
    digits_before = [d.copy() for d in rotator.raised_digits]
    rotator.rotate(1, ctx.rotation_hint(sk, 1))
    rotator.rotate(2, ctx.rotation_hint(sk, 2))
    # The shared decomposition is never mutated by rotations.
    for before, after in zip(digits_before, rotator.raised_digits):
        assert np.array_equal(before, after)


_CFG = ChipConfig()


def _ntt_passes(cost) -> float:
    """NTT elements of one op / N = the number of full NTT passes."""
    return cost.fu_elements.get("ntt", 0.0)


def _modup(cfg, n, level, digits):
    """The ModUp prefix a hoisted group shares (Listing 1, lines 2-4)."""
    return boosted_keyswitch_cost(cfg, n, level, digits, remainder=False)


def _remainder(cfg, n, level, digits):
    """The per-rotation remainder of a hoisted group (lines 5-10)."""
    return boosted_keyswitch_cost(cfg, n, level, digits, modup=False)


@settings(max_examples=200, deadline=None)
@given(level=st.integers(2, 60), digits=st.integers(1, 4),
       rotations=st.integers(1, 64))
def test_hoisting_savings_matches_cost_model(level, digits, rotations):
    """The docstring's closed form IS the cost model, for swept (L, t, k).

    ``hoisting_savings`` promises ``separate = k*(L + tL + 2a + 2L)`` and
    ``hoisted = (L + tL) + k*(2a + 2L)`` NTT passes; check both against
    the cost model's NTT element counts (per N) rather than trusting two
    independently maintained formulas to agree at a single point.
    """
    digits = min(digits, level)
    n = 1024
    alpha = -(-level // digits)
    fused = _ntt_passes(boosted_keyswitch_cost(_CFG, n, level, digits)) / n
    hoist = _ntt_passes(_modup(_CFG, n, level, digits)) / n
    per_rot = _ntt_passes(_remainder(_CFG, n, level, digits)) / n
    assert fused == level + digits * level + 2 * alpha + 2 * level
    assert hoist == level + digits * level
    assert per_rot == 2 * alpha + 2 * level
    separate = rotations * fused
    hoisted = hoist + rotations * per_rot
    assert hoisting_savings(level, digits, rotations) == pytest.approx(
        separate / hoisted)


_SPLIT_CONFIGS = (_CFG, _CFG.without_kshgen(), _CFG.without_crb_chaining(),
                  f1plus_config())


@settings(max_examples=100, deadline=None)
@given(level=st.integers(2, 60), digits=st.integers(1, 4))
def test_hoisted_split_is_exact_complement(level, digits):
    """ModUp prefix + remainder == fused keyswitch, field by field, on
    CraterLake, its no-KSHGen and no-CRB ablations, and F1+.

    This is the k = 1 property the compiler pass relies on: a singleton
    group costs exactly the same hoisted as a boosted fused keyswitch
    (``tests/core/test_cost.py`` covers machines that fuse standard
    keyswitching), so the rewrite can never pessimize.  Every count is
    an exact integer, so the merge is exact; only a crossbar network
    (F1+) scales each part's pass count by a non-integer factor, which
    may round differently from scaling their sum.
    """
    digits = min(digits, level)
    n = 1024
    for cfg in _SPLIT_CONFIGS:
        fused = boosted_keyswitch_cost(cfg, n, level, digits)
        split = _modup(cfg, n, level, digits)
        split.merge(_remainder(cfg, n, level, digits))
        assert split.fu_elements == fused.fu_elements
        assert split.port_stream_elements == fused.port_stream_elements
        if cfg.fixed_network:
            assert split.network_words == fused.network_words
        else:
            assert split.network_words == pytest.approx(fused.network_words)
        assert split.scalar_mults == fused.scalar_mults
        assert split.scalar_adds == fused.scalar_adds
        assert split.hint_words == fused.hint_words
        assert split.kshgen_elements == fused.kshgen_elements


def test_hoisting_savings_growth():
    # Savings grow with the number of rotations sharing the hoist and
    # approach the 6L/4L = 1.5 asymptote for 1-digit keyswitching.
    assert hoisting_savings(60, 1, 32) > hoisting_savings(60, 1, 2)
    assert hoisting_savings(60, 1, 1) == pytest.approx(1.0)
    assert 1.4 < hoisting_savings(60, 1, 512) < 1.5


def test_hoisted_rotator_rejects_bad_alpha(fhe):
    ctx, sk = fhe.ctx, fhe.sk
    ct = ctx.encrypt_values(sk, fhe.random_values(34))
    with pytest.raises(ParameterError):
        HoistedRotator(ctx, ct, alpha=0)
    with pytest.raises(ParameterError):
        HoistedRotator(ctx, ct, alpha=len(ctx.aux_basis) + 1)
    # The full special basis is the largest *valid* alpha.
    rotator = HoistedRotator(ctx, ct, alpha=len(ctx.aux_basis))
    got = ctx.decrypt(sk, rotator.rotate(1, fhe.rot1))
    want = ctx.decrypt(sk, ctx.rotate(ct, 1, fhe.rot1))
    assert np.max(np.abs(got - want)) < 1e-3
