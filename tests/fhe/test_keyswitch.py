"""Keyswitching algorithms: boosted (t-digit) vs standard, noise, hints."""

import numpy as np
import pytest

from repro.fhe.ckks import CkksContext, CkksParams
from repro.fhe.keyswitch import (
    KeySwitchHint,
    boosted_keyswitch,
    digit_bases,
    generate_hint,
    standard_keyswitch,
)
from repro.fhe.poly import EVAL, RnsPoly
from repro.fhe.rns import RnsBasis

from tests.fhe.oracles import change_basis, mod_down


@pytest.fixture(scope="module")
def setup():
    params = CkksParams(degree=256, max_level=6, digits=1, seed=13)
    ctx = CkksContext(params)
    sk = ctx.keygen()
    sk2 = ctx.keygen()
    return ctx, sk, sk2


def keyswitch_noise(ctx, sk_old, sk_new, hint, aux, level=None):
    """RMS integer-domain error of ks0 + ks1*s_new - c*s_old."""
    basis = ctx.q_basis if level is None else ctx.basis_at(level)
    rng = np.random.default_rng(99)
    c = RnsPoly.uniform_random(basis, ctx.params.degree, rng, EVAL)
    if aux is not None:
        ks0, ks1 = boosted_keyswitch(c, hint, aux)
    else:
        ks0, ks1 = standard_keyswitch(c, hint)
    s_new = sk_new.poly(basis)
    s_old = sk_old.poly(ctx.full_basis)
    s_old_r = RnsPoly(basis, s_old.data[: len(basis)], EVAL)
    err = (ks0 + ks1 * s_new - c * s_old_r).to_coeff().to_integers()
    mags = np.array([abs(int(e)) for e in err], dtype=float)
    return np.sqrt((mags**2).mean())


def test_digit_bases_partition():
    basis = RnsBasis([536813569, 536690689, 536641537, 536608769, 536551429][:4])
    parts = digit_bases(basis, 3)
    assert [len(p) for p in parts] == [3, 1]
    assert parts[0].moduli + parts[1].moduli == basis.moduli
    with pytest.raises(ValueError):
        digit_bases(basis, 0)


def test_boosted_keyswitch_small_noise(setup):
    ctx, sk, sk2 = setup
    s_old = sk2.poly(ctx.full_basis)
    hint = generate_hint(s_old, sk.poly(ctx.full_basis), ctx.q_basis,
                         ctx.aux_basis, ctx.params.alpha, ctx.rng, 1)
    rms = keyswitch_noise(ctx, sk2, sk, hint, ctx.aux_basis)
    # Boosted keyswitch noise stays near the error distribution: a few bits.
    assert rms < 2**8


def test_boosted_keyswitch_at_lower_level(setup):
    ctx, sk, sk2 = setup
    s_old = sk2.poly(ctx.full_basis)
    hint = generate_hint(s_old, sk.poly(ctx.full_basis), ctx.q_basis,
                         ctx.aux_basis, ctx.params.alpha, ctx.rng, 2)
    rms = keyswitch_noise(ctx, sk2, sk, hint, ctx.aux_basis, level=3)
    assert rms < 2**8


def test_standard_keyswitch_larger_but_bounded_noise(setup):
    """BV noise carries a q_i factor: orders of magnitude above boosted,
    still far below the modulus (usable, as in F1)."""
    ctx, sk, sk2 = setup
    s_old = sk2.poly(ctx.q_basis)
    hint = generate_hint(s_old, sk.poly(ctx.q_basis), ctx.q_basis, None, 1,
                         ctx.rng, 3)
    rms = keyswitch_noise(ctx, sk2, sk, hint, None)
    assert 2**10 < rms < 2**40


def test_standard_hint_has_L_digits(setup):
    ctx, sk, _ = setup
    hint = ctx.standard_relin_hint(sk)
    assert hint.digits == len(ctx.q_basis)
    assert hint.aux_count == 0


def test_boosted_hint_digit_structure(setup):
    ctx, sk, _ = setup
    hint = ctx.relin_hint(sk)
    assert hint.digits == 1
    assert hint.aux_count == len(ctx.aux_basis)
    # Each stored half spans Q*P.
    assert hint.b_polys[0].level == len(ctx.q_basis) + len(ctx.aux_basis)


def test_hint_seeded_expansion_is_deterministic(setup):
    ctx, sk, _ = setup
    hint = ctx.relin_hint(sk)
    a1 = hint.a_poly(0)
    # A fresh hint object with the same seed regenerates the same poly.
    clone = KeySwitchHint(
        b_polys=hint.b_polys, seed=hint.seed, alpha=hint.alpha,
        full_basis=hint.full_basis, aux_count=hint.aux_count,
    )
    assert np.array_equal(clone.a_poly(0).data, a1.data)


def test_hint_seed_changes_a_poly(setup):
    ctx, sk, _ = setup
    s = sk.poly(ctx.full_basis)
    h1 = generate_hint(s, s, ctx.q_basis, ctx.aux_basis, ctx.params.alpha,
                       ctx.rng, seed=41)
    h2 = generate_hint(s, s, ctx.q_basis, ctx.aux_basis, ctx.params.alpha,
                       ctx.rng, seed=42)
    assert h1.seed != h2.seed
    assert not np.array_equal(h1.a_poly(0).data, h2.a_poly(0).data)


def test_context_hints_are_cached(setup):
    """ARK-style hint reuse: repeated requests return the same hint object
    instead of re-sampling uniforms (and re-spending a seed)."""
    ctx, sk, sk2 = setup
    assert ctx.relin_hint(sk) is ctx.relin_hint(sk)
    assert ctx.rotation_hint(sk, 1) is ctx.rotation_hint(sk, 1)
    assert ctx.conjugation_hint(sk) is ctx.conjugation_hint(sk)
    # Distinct keys, steps, or digit counts miss the cache.
    assert ctx.relin_hint(sk) is not ctx.relin_hint(sk2)
    assert ctx.rotation_hint(sk, 1) is not ctx.rotation_hint(sk, 2)
    assert ctx.rotation_hint(sk, 1, digits=2) is not ctx.rotation_hint(sk, 1)
    # Rotation steps are keyed modulo the slot count (same automorphism).
    slots = ctx.params.slots
    assert ctx.rotation_hint(sk, 1) is ctx.rotation_hint(sk, 1 + slots)


def test_hint_size_words_counts_stored_half_only(setup):
    """The KSHGen saving: only b halves are stored; a halves are seeds."""
    ctx, sk, _ = setup
    hint = ctx.relin_hint(sk)
    rows = sum(p.level for p in hint.b_polys)
    assert hint.size_words() == rows * ctx.params.degree


def test_restricted_rows_alignment(setup):
    ctx, sk, _ = setup
    hint = ctx.relin_hint(sk)
    sub = ctx.basis_at(2).extend(ctx.aux_basis)
    b, a = hint.restricted_rows(0, sub)
    assert b.shape == (len(sub), ctx.params.degree)
    full_moduli = hint.full_basis.moduli
    for row, q in enumerate(sub.moduli):
        src = full_moduli.index(q)
        assert np.array_equal(b[row], hint.b_polys[0].data[src])


def test_mismatched_hint_algorithm_rejected(setup):
    ctx, sk, _ = setup
    boosted = ctx.relin_hint(sk)
    standard = ctx.standard_relin_hint(sk)
    rng = np.random.default_rng(5)
    c = RnsPoly.uniform_random(ctx.q_basis, ctx.params.degree, rng, EVAL)
    with pytest.raises(ValueError):
        standard_keyswitch(c, boosted)
    with pytest.raises(ValueError):
        boosted_keyswitch(c, standard, ctx.aux_basis)


def test_generate_hint_requires_full_basis(setup):
    ctx, sk, _ = setup
    with pytest.raises(ValueError, match="full basis"):
        generate_hint(sk.poly(ctx.q_basis), sk.poly(ctx.q_basis),
                      ctx.q_basis, ctx.aux_basis, 6, ctx.rng, 9)


def test_keyswitch_actually_switches_keys(setup):
    """Encrypt under sk2, keyswitch to sk, decrypt under sk."""
    ctx, sk, sk2 = setup
    from repro.fhe.ckks import Ciphertext
    rng = np.random.default_rng(7)
    z = 0.3 * (rng.normal(size=ctx.params.slots))
    ct = ctx.encrypt_values(sk2, z)
    hint = generate_hint(sk2.poly(ctx.full_basis), sk.poly(ctx.full_basis),
                         ctx.q_basis, ctx.aux_basis, ctx.params.alpha,
                         ctx.rng, 11)
    ks0, ks1 = boosted_keyswitch(ct.c1, hint, ctx.aux_basis)
    switched = Ciphertext(ct.c0 + ks0, ks1, ct.scale)
    dec = ctx.decrypt(sk, switched)
    assert np.max(np.abs(dec - z)) < 1e-4


def _reference_accumulate(poly, hint, target):
    """Every digit raised over the whole target with ``change_basis``."""
    degree = poly.degree
    acc0 = RnsPoly.zero(target, degree, EVAL)
    acc1 = RnsPoly.zero(target, degree, EVAL)
    coeff = poly.to_coeff().data
    offset = 0
    for i, digit in enumerate(digit_bases(poly.basis, hint.alpha)):
        rows = coeff[offset : offset + len(digit)]
        offset += len(digit)
        raised = change_basis(RnsPoly(digit, rows, "coeff"), target).to_eval()
        b_rows, a_rows = hint.restricted_rows(i, target)
        acc0 = acc0 + raised * RnsPoly(target, b_rows, EVAL)
        acc1 = acc1 + raised * RnsPoly(target, a_rows, EVAL)
    return acc0, acc1


@pytest.mark.parametrize("level", [1, 2, 6])
def test_standard_keyswitch_matches_change_basis_reference(setup, level):
    """Reusing a digit's own EVAL rows is bit-identical to raising it over
    the whole target, down to one prime, where the digit is the target."""
    ctx, sk, sk2 = setup
    hint = generate_hint(sk2.poly(ctx.q_basis), sk.poly(ctx.q_basis),
                         ctx.q_basis, None, 1, ctx.rng, 3)
    basis = ctx.basis_at(level)
    rng = np.random.default_rng(level)
    c = RnsPoly.uniform_random(basis, ctx.params.degree, rng, EVAL)
    got = standard_keyswitch(c, hint)
    want = _reference_accumulate(c, hint, basis)
    for g, w in zip(got, want):
        assert np.array_equal(g.data, w.data)


@pytest.mark.parametrize("level,alpha", [(1, 1), (1, 3), (4, 3), (6, 2)])
def test_boosted_keyswitch_matches_change_basis_reference(setup, level,
                                                          alpha):
    ctx, sk, sk2 = setup
    hint = generate_hint(sk2.poly(ctx.full_basis), sk.poly(ctx.full_basis),
                         ctx.q_basis, ctx.aux_basis, alpha, ctx.rng, 4)
    basis = ctx.basis_at(level)
    rng = np.random.default_rng(level)
    c = RnsPoly.uniform_random(basis, ctx.params.degree, rng, EVAL)
    got = boosted_keyswitch(c, hint, ctx.aux_basis)
    want = _reference_accumulate(c, hint, basis.extend(ctx.aux_basis))
    for g, w in zip(got, want):
        assert np.array_equal(g.data,
                              mod_down(w, basis, ctx.aux_basis).data)


def test_bgv_multiply_at_one_prime():
    """Relinearizing a one-prime BGV product (a standard-hint digit that
    covers the whole target) runs and matches the reference keyswitch."""
    from repro.fhe.bgv import BgvContext, BgvParams

    ctx = BgvContext(BgvParams(degree=64, max_level=3, seed=5))
    sk = ctx.keygen()
    relin = ctx.relin_hint(sk)
    a = ctx.encrypt(sk, [3, 5, 7], level=1)
    got = ctx.multiply(a, a, relin)
    ks0, ks1 = _reference_accumulate(a.c1 * a.c1, relin, a.basis)
    assert np.array_equal(got.c0.data, (a.c0 * a.c0 + ks0).data)
    assert np.array_equal(got.c1.data,
                          (a.c0 * a.c1 + a.c1 * a.c0 + ks1).data)
