"""Differential harness: limb-batched kernels vs their per-limb oracles.

The vectorized hot path must be *bit-identical* to the scalar reference
kernels in ``tests/fhe/oracles.py``:

===========================  =========================================
batched kernel               reference oracle
===========================  =========================================
``BatchedNttContext``        per-limb ``NttContext`` loops
``batch_rescale``            per-poly ``rescale``
``mod_down_pair``            two ``mod_down`` calls
EVAL-domain ``automorphism`` COEFF automorphism through an NTT round trip
split-MAC ``convert_approx`` per-term-reduced accumulation loop
vectorized twiddle tables    scalar square-and-multiply power ladders
===========================  =========================================

Bit-exactness (not closeness) is the contract: the reliability layer's
checksums, the serving campaign's bit-reproducible baselines and the pod
campaign's bit-exact recovery all assume the batched kernels compute the
same residues the per-limb kernels would.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.keyswitch import mod_down_pair
from repro.fhe.ntt import (
    BatchedNttContext,
    bit_reverse_permutation,
    eval_automorphism_permutation,
    power_table,
)
from repro.fhe.poly import COEFF, EVAL, RnsPoly, batch_rescale
from repro.fhe.polyeval import add_any
from repro.fhe.primes import find_ntt_primes
from repro.fhe.rns import RnsBasis
from repro.reliability.errors import ParameterError

from tests.fhe.conftest import rand_rows
from tests.fhe.oracles import (
    NttContext,
    change_basis,
    convert_per_term,
    mod_down,
    rescale,
)


# ---------------------------------------------------------------------------
# Batched NTT vs per-limb reference
# ---------------------------------------------------------------------------

@given(degree=st.sampled_from([16, 64, 256]),
       limbs=st.integers(min_value=1, max_value=5),
       lead=st.sampled_from([0, 1, 2, 3]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_batched_ntt_bit_exact(prime_pool, degree, limbs, lead, seed):
    """Forward and inverse agree with per-limb transforms, limb by limb,
    for plain (L, N) matrices and for any leading batch axis."""
    moduli = prime_pool[:limbs]
    batched = BatchedNttContext.get(moduli, degree)
    rng = np.random.default_rng(seed)
    shape = ((lead,) if lead else ()) + (limbs, degree)
    data = np.empty(shape, dtype=np.uint64)
    for i, q in enumerate(moduli):
        data[..., i, :] = rng.integers(0, q, size=shape[:-2] + (degree,),
                                       dtype=np.uint64)
    fwd = batched.forward(data)
    inv = batched.inverse(data)
    assert fwd.shape == data.shape and inv.shape == data.shape
    for i, q in enumerate(moduli):
        limb = NttContext.get(q, degree)
        want_f = np.apply_along_axis(limb.forward, -1, data[..., i, :])
        want_i = np.apply_along_axis(limb.inverse, -1, data[..., i, :])
        assert np.array_equal(fwd[..., i, :], want_f)
        assert np.array_equal(inv[..., i, :], want_i)


@given(degree=st.sampled_from([16, 64, 256]),
       limbs=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_ntt_roundtrip(prime_pool, degree, limbs, seed):
    moduli = prime_pool[:limbs]
    batched = BatchedNttContext.get(moduli, degree)
    rng = np.random.default_rng(seed)
    data = np.stack([rng.integers(0, q, degree, dtype=np.uint64)
                     for q in moduli])
    assert np.array_equal(batched.inverse(batched.forward(data)), data)
    assert np.array_equal(batched.forward(batched.inverse(data)), data)


@pytest.mark.parametrize("degree", [8192, 32768])
def test_batched_ntt_three_pass_bit_exact(degree):
    """Above N=4096 the transform takes a third pass, the only one whose
    middle pass has earlier and later digits on both sides and a twiddle
    indexed by two earlier output digits."""
    moduli = tuple(find_ntt_primes(2, 30, degree))
    batched = BatchedNttContext.get(moduli, degree)
    assert len(batched.factors) == 3
    rng = np.random.default_rng(degree)
    data = np.stack([rng.integers(0, q, (2, degree), dtype=np.uint64)
                     for q in moduli], axis=1)  # (2, L, N)
    fwd = batched.forward(data)
    inv = batched.inverse(data)
    for i, q in enumerate(moduli):
        limb = NttContext.get(q, degree)
        for j in range(2):
            assert np.array_equal(fwd[j, i], limb.forward(data[j, i]))
            assert np.array_equal(inv[j, i], limb.inverse(data[j, i]))
    assert np.array_equal(batched.inverse(fwd), data)


def test_batched_context_is_cached(prime_pool):
    moduli = prime_pool[:3]
    assert BatchedNttContext.get(moduli, 64) is BatchedNttContext.get(
        list(moduli), 64)


# ---------------------------------------------------------------------------
# Twiddle-table construction vs scalar reference ladders
# ---------------------------------------------------------------------------

def _scalar_power_table(base: int, count: int, modulus: int) -> np.ndarray:
    out = np.empty(count, dtype=np.uint64)
    acc = 1
    for i in range(count):
        out[i] = acc
        acc = acc * base % modulus
    return out


def test_power_table_matches_scalar_ladder(prime_pool):
    q = prime_pool[0]
    for base in (3, 7, q - 2):
        assert np.array_equal(power_table(base, 128, q),
                              _scalar_power_table(base, 128, q))


def test_ntt_tables_match_scalar_construction(prime_pool):
    """The vectorized NttContext init builds the same psi tables a scalar
    square-and-multiply loop would."""
    q, degree = prime_pool[0], 64
    ctx = NttContext.get(q, degree)
    rev = bit_reverse_permutation(degree)
    psi = int(ctx._psi)
    want = _scalar_power_table(psi, degree, q)[rev]
    assert np.array_equal(ctx.psi_bitrev, want)
    psi_inv = pow(psi, q - 2, q)
    want_inv = _scalar_power_table(psi_inv, degree, q)[rev]
    assert np.array_equal(ctx.psi_inv_bitrev, want_inv)


def test_batched_tables_stack_per_limb_tables(prime_pool):
    """A basis's four-step tables are its limbs' tables stacked: limb i of
    every pass matrix, twiddle and modulus block is the single-prime
    context's."""
    moduli, degree = prime_pool[:4], 256
    batched = BatchedNttContext.get(moduli, degree)
    assert batched.factors == (16, 16)
    for i, q in enumerate(moduli):
        single = BatchedNttContext.get((q,), degree)
        for got, want in zip(batched._passes, single._passes):
            for name in ("fwd", "inv", "fwd_tw", "inv_tw"):
                table = getattr(got, name)
                if table is None:
                    assert getattr(want, name) is None
                    continue
                assert np.array_equal(table[:, i], getattr(want, name)[:, 0])
        for name in ("_q_f64", "_qinv"):
            assert np.array_equal(getattr(batched, name)[i],
                                  getattr(single, name)[0])
        assert batched.q_col[i, 0] == q


def test_inverse_check_vector_relation(prime_pool):
    """Integrity checksum: every row of the vectorized check matrix
    satisfies the iNTT relation verify_transform relies on,
    sum(c * a_eval) == N * sum(iNTT), limb by limb."""
    moduli, degree = prime_pool[:3], 64
    ctx = BatchedNttContext.get(moduli, degree)
    rng = np.random.default_rng(5)
    data = np.stack([rng.integers(0, q, degree, dtype=np.uint64)
                     for q in moduli])
    out = ctx.inverse(data)
    hi, lo = ctx._inverse_check_halves()
    check = (hi << np.uint64(16)) + lo
    for i, q in enumerate(moduli):
        lhs = int((check[i] * data[i] % np.uint64(q)).sum() % q)
        rhs = degree % q * (int(out[i].sum()) % q) % q
        assert lhs == rhs


# ---------------------------------------------------------------------------
# EVAL-domain automorphism vs COEFF reference
# ---------------------------------------------------------------------------

@given(k=st.integers(min_value=0, max_value=511).map(lambda v: 2 * v + 1),
       limbs=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_eval_automorphism_matches_coeff_roundtrip(make_basis, k, limbs, seed):
    """phi_k on EVAL data is a pure permutation, bit-identical to
    INTT -> coefficient automorphism -> NTT."""
    degree = 128
    basis = make_basis(limbs)
    poly = RnsPoly(basis, rand_rows(basis, degree, seed), EVAL)
    fast = poly.automorphism(k)
    assert fast.domain == EVAL
    reference = poly.to_coeff().automorphism(k).to_eval()
    assert np.array_equal(fast.data, reference.data)


def test_eval_automorphism_rejects_even_exponent():
    with pytest.raises(ParameterError):
        eval_automorphism_permutation(64, 6)


def test_automorphism_permutation_cached():
    a = eval_automorphism_permutation(64, 5)
    b = eval_automorphism_permutation(64, 5)
    assert a is b
    assert not a.flags.writeable


# ---------------------------------------------------------------------------
# batch_rescale vs per-poly rescale
# ---------------------------------------------------------------------------

@given(limbs=st.integers(min_value=2, max_value=6),
       count=st.integers(min_value=1, max_value=3),
       domain=st.sampled_from([COEFF, EVAL]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_batch_rescale_bit_exact(make_basis, limbs, count, domain, seed):
    """The stacked (and, in EVAL, lazy single-limb-INTT) rescale equals the
    per-polynomial oracle on every limb of every polynomial."""
    degree = 64
    basis = make_basis(limbs)
    polys = [RnsPoly(basis, rand_rows(basis, degree, seed + i), domain)
             for i in range(count)]
    got = batch_rescale(polys)
    for g, p in zip(got, polys):
        want = rescale(p)
        assert g.domain == want.domain == domain
        assert g.basis == want.basis
        assert np.array_equal(g.data, want.data)


@pytest.mark.parametrize("domain", [COEFF, EVAL])
def test_batch_rescale_bit_exact_with_a_narrow_limb(domain):
    """A limb below half of q_last takes the true-remainder correction."""
    degree = 64
    narrow = find_ntt_primes(1, 20, degree)
    wide = find_ntt_primes(2, 30, degree)
    basis = RnsBasis((narrow[0], wide[0], wide[1]))
    polys = [RnsPoly(basis, rand_rows(basis, degree, seed), domain)
             for seed in (3, 4)]
    for g, p in zip(batch_rescale(polys), polys):
        assert np.array_equal(g.data, rescale(p).data)


def test_batch_rescale_rejects_depleted(make_basis):
    basis = make_basis(1)
    poly = RnsPoly(basis, rand_rows(basis, 64, 0), COEFF)
    with pytest.raises(ValueError):
        batch_rescale([poly])


# ---------------------------------------------------------------------------
# mod_down_pair vs mod_down
# ---------------------------------------------------------------------------

@given(q_limbs=st.integers(min_value=1, max_value=4),
       aux_limbs=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mod_down_pair_bit_exact(make_basis, q_limbs, aux_limbs, seed):
    """The shared-transform pair path on a stacked accumulator equals two
    independent mod_down calls (the oracle), for both halves; an
    accumulator that is not a (2, len(Q) + len(P), N) stack is
    rejected."""
    degree = 64
    q_basis = make_basis(q_limbs)
    aux_basis = make_basis(aux_limbs, offset=q_limbs)
    target = q_basis.extend(aux_basis)
    p0 = RnsPoly(target, rand_rows(target, degree, seed), EVAL)
    p1 = RnsPoly(target, rand_rows(target, degree, seed + 1), EVAL)
    acc = np.stack([p0.data, p1.data])
    g0, g1 = mod_down_pair(acc, q_basis, aux_basis)
    assert g0.domain == EVAL and g1.domain == EVAL
    assert np.array_equal(g0.data, mod_down(p0, q_basis, aux_basis).data)
    assert np.array_equal(g1.data, mod_down(p1, q_basis, aux_basis).data)
    for bad in (acc[0], acc[:, 1:], acc[:1]):
        with pytest.raises(ParameterError, match="accumulator"):
            mod_down_pair(bad, q_basis, aux_basis)


# ---------------------------------------------------------------------------
# Split-MAC convert_approx vs per-term-reduced reference
# ---------------------------------------------------------------------------

@given(src_limbs=st.integers(min_value=1, max_value=6),
       dst_limbs=st.integers(min_value=1, max_value=8),
       correct=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_convert_approx_bit_exact(make_basis, src_limbs, dst_limbs, correct,
                                  seed):
    """The division-free hi/lo MAC equals the historical kernel that
    reduced every product term before accumulating."""
    degree = 64
    src = make_basis(src_limbs)
    dst = make_basis(dst_limbs, offset=src_limbs)
    residues = rand_rows(src, degree, seed)
    got = src.convert_approx(residues, dst, correct=correct)
    assert np.array_equal(
        got, convert_per_term(src, residues, dst, correct=correct))


# ---------------------------------------------------------------------------
# The float64 MAC in convert_approx: exact up to and past 64 source limbs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wide_pool():
    """31-bit primes - the widest the library takes, so constants and
    residues push MAC terms toward the 2^47 bound - enough for 300
    source limbs plus 8 destination limbs."""
    return tuple(find_ntt_primes(308, 31, 64))


def _conversion_input(src: RnsBasis, width: int, case: str,
                      seed: int) -> np.ndarray:
    """(L, width) residues: uniform, every residue q - 1, or residues
    that scale to q - 1 - the largest value each MAC term can see."""
    if case == "random":
        return rand_rows(src, width, seed)
    q_col = src.moduli_col
    top = np.broadcast_to(q_col - np.uint64(1), (len(src), width))
    if case == "q-1":
        return top.copy()
    # x_i = (q_i - 1) * (Q/q_i) mod q_i scales by (Q/q_i)^{-1} to q_i - 1.
    q_hat = np.array([src.modulus // q % q for q in src.moduli],
                     dtype=np.uint64)[:, None]
    return top * q_hat % q_col


@given(src_limbs=st.sampled_from([1, 5, 40, 64]),
       dst_limbs=st.integers(min_value=1, max_value=8),
       shape=st.sampled_from(["N", "2N", "2xN"]),
       case=st.sampled_from(["random", "q-1", "scaled q-1"]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_float_mac_conversion_matches_change_basis(wide_pool, src_limbs,
                                                   dst_limbs, shape, case,
                                                   seed):
    """The float64 hi/lo MAC is exact for up to 64 source limbs: every
    output word equals the per-term ``change_basis`` oracle's, for an
    N-wide and a 2N-wide (L, width) input and for two N-wide inputs
    stacked on a leading axis (how ModDown converts both halves)."""
    degree = 64
    src = RnsBasis(wide_pool[:src_limbs])
    dst = RnsBasis(wide_pool[src_limbs:src_limbs + dst_limbs])
    width = 2 * degree if shape == "2N" else degree
    halves = [_conversion_input(src, width, case, seed + i)
              for i in range(2 if shape == "2xN" else 1)]
    got = src.convert_approx(
        np.stack(halves) if shape == "2xN" else halves[0], dst)
    want = [change_basis(RnsPoly(src, x, COEFF), dst).data for x in halves]
    assert np.array_equal(got, np.stack(want) if shape == "2xN" else want[0])


@pytest.mark.parametrize("src_limbs", [65, 300])
@pytest.mark.parametrize("case", ["random", "scaled q-1"])
def test_float_mac_conversion_past_64_limbs_exact_or_rejected(wide_pool,
                                                              src_limbs,
                                                              case):
    """Past 64 source limbs one float64 dot product could round: the
    conversion must still be exact, or refuse with ParameterError."""
    src = RnsBasis(wide_pool[:src_limbs])
    dst = RnsBasis(wide_pool[src_limbs:src_limbs + 8])
    residues = _conversion_input(src, 64, case, src_limbs)
    try:
        got = src.convert_approx(residues, dst)
    except ParameterError:
        return
    assert np.array_equal(
        got, change_basis(RnsPoly(src, residues, COEFF), dst).data)


# ---------------------------------------------------------------------------
# Canonical-residue arithmetic (the min-trick reductions)
# ---------------------------------------------------------------------------

@given(limbs=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_ring_ops_stay_canonical(make_basis, limbs, seed):
    """add/sub/neg via conditional subtraction produce exactly the values
    a true ``%`` reduction would - including at the q-1/0 boundaries."""
    degree = 32
    basis = make_basis(limbs)
    q = basis.moduli_col
    a_data = rand_rows(basis, degree, seed)
    b_data = rand_rows(basis, degree, seed + 1)
    # Force boundary values into the first columns.
    a_data[:, 0] = 0
    b_data[:, 0] = 0
    a_data[:, 1] = (q - np.uint64(1))[:, 0]
    b_data[:, 1] = (q - np.uint64(1))[:, 0]
    a = RnsPoly(basis, a_data, COEFF)
    b = RnsPoly(basis, b_data, COEFF)
    assert np.array_equal((a + b).data, (a_data + b_data) % q)
    assert np.array_equal((a - b).data, (a_data + q - b_data) % q)
    assert np.array_equal((-a).data, (q - a_data) % q)
    for out in ((a + b).data, (a - b).data, (-a).data):
        assert np.all(out < q)


# ---------------------------------------------------------------------------
# End to end: the vectorized path under a full homomorphic pipeline
# ---------------------------------------------------------------------------

def test_end_to_end_rotate_keyswitch_rescale(fhe):
    """encrypt -> rotate (keyswitch) -> plaintext multiply -> rescale ->
    decrypt through every batched kernel recovers the expected slots."""
    ctx, sk = fhe.ctx, fhe.sk
    z = fhe.random_values(seed=21, magnitude=0.25)
    ct = ctx.encrypt_values(sk, z)
    rot = ctx.rotate(ct, 1, fhe.rot1)
    weights = np.linspace(0.5, 1.5, fhe.slots)
    prod = ctx.pmult(rot, weights)
    got = ctx.decrypt(sk, prod)
    want = np.roll(z, -1) * weights
    assert np.max(np.abs(got - want)) < 1e-4


def test_deferred_pmult_matches_eager_sum(fhe):
    """Lazy rescale: sum-then-rescale lands within rounding distance of
    rescale-then-sum and on exactly the same scale and level."""
    ctx, sk = fhe.ctx, fhe.sk
    z = fhe.random_values(seed=22, magnitude=0.25)
    ct = ctx.encrypt_values(sk, z)
    w1 = np.linspace(0.1, 0.9, fhe.slots)
    w2 = np.linspace(-0.5, 0.5, fhe.slots)
    eager = ctx.add(ctx.pmult(ct, w1), ctx.pmult(ct, w2))
    lazy = add_any(ctx, ctx.pmult_deferred(ct, w1),
                   ctx.pmult_deferred(ct, w2))
    lazy = ctx.rescale(lazy)
    lazy.scale = ct.scale
    assert lazy.level == eager.level
    assert lazy.scale == eager.scale
    got = ctx.decrypt(sk, lazy)
    want = z * (w1 + w2)
    assert np.max(np.abs(got - want)) < 1e-4
    assert np.max(np.abs(ctx.decrypt(sk, eager) - want)) < 1e-4
