"""RNS bases and the changeRNSBase kernel (Listing 1's core loop)."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fhe.primes import find_ntt_primes
from repro.fhe.rns import RnsBasis

from tests.fhe.oracles import convert_exact

PRIMES = find_ntt_primes(8, 28, 64)


@pytest.fixture(scope="module")
def basis():
    return RnsBasis(PRIMES[:4])


@pytest.fixture(scope="module")
def dest():
    return RnsBasis(PRIMES[4:8])


def test_modulus_product(basis):
    q = 1
    for p in PRIMES[:4]:
        q *= p
    assert basis.modulus == q
    assert abs(basis.log_modulus - np.log2(float(q))) < 1e-6


def test_duplicate_moduli_rejected():
    with pytest.raises(ValueError):
        RnsBasis([PRIMES[0], PRIMES[0]])


def test_empty_basis_rejected():
    with pytest.raises(ValueError):
        RnsBasis([])


def test_slicing_and_equality(basis):
    sub = basis[:2]
    assert isinstance(sub, RnsBasis)
    assert sub == RnsBasis(PRIMES[:2])
    assert sub != basis
    assert basis[0] == PRIMES[0]


def test_extend_disjointness(basis, dest):
    ext = basis.extend(dest)
    assert len(ext) == 8
    with pytest.raises(ValueError, match="share"):
        basis.extend(basis)


def test_drop_last(basis):
    assert basis.drop_last() == RnsBasis(PRIMES[:3])
    assert basis.drop_last(3) == RnsBasis(PRIMES[:1])
    with pytest.raises(ValueError):
        basis.drop_last(4)


def test_bases_are_interned_per_moduli_tuple(basis, dest):
    """Every way of naming a moduli tuple yields the one basis, so its
    cached columns and conversion tables are built once."""
    assert RnsBasis(list(PRIMES[:4])) is basis
    assert RnsBasis(np.array(PRIMES[:4], dtype=np.uint64)) is basis
    assert basis[:2] is RnsBasis(PRIMES[:2]) is basis.drop_last(2)
    assert basis.extend(dest) is RnsBasis(PRIMES[:8])
    assert RnsBasis(PRIMES[:8])[:4] is basis
    assert pickle.loads(pickle.dumps(basis)) is basis
    assert copy.deepcopy(basis) is basis
    assert basis[:3].moduli_col is basis.drop_last().moduli_col
    assert (basis.conversion_constants(dest)
            is RnsBasis(PRIMES[:4]).conversion_constants(dest[:]))


def test_residue_roundtrip_signed(basis):
    values = [0, 1, -1, 12345, -987654321, basis.modulus // 2 - 3]
    res = basis.to_residues(values)
    back = basis.to_integers(res, centered=True)
    assert [int(v) for v in back] == values


def test_residue_roundtrip_uncentered(basis):
    values = [-5]
    res = basis.to_residues(values)
    back = basis.to_integers(res, centered=False)
    assert int(back[0]) == basis.modulus - 5


@given(st.lists(st.integers(min_value=-(2**80), max_value=2**80),
                min_size=1, max_size=8))
# Exactly 2**63: numpy promotes the list to uint64, where an int64 cast
# in the vectorized to_residues fast path would wrap negative.
@example([2**63])
@settings(max_examples=50, deadline=None)
def test_crt_roundtrip_property(values):
    basis = RnsBasis(PRIMES[:4])
    q = basis.modulus
    reduced = [((v + q // 2) % q) - q // 2 for v in values]
    back = basis.to_integers(basis.to_residues(values))
    assert [int(b) for b in back] == reduced


def test_conversion_constants_shape(basis, dest):
    c = basis.conversion_constants(dest)
    assert c.shape == (4, 4)
    q_hat = basis.modulus // basis.moduli[0]
    assert int(c[0, 0]) == q_hat % dest.moduli[0]


def test_convert_exact_matches_bigint(basis, dest):
    values = [123456789, -42, 0, basis.modulus // 3]
    res = basis.to_residues(values)
    got = convert_exact(basis, res, dest)
    want = dest.to_residues(basis.to_integers(res))
    assert np.array_equal(got, want)


def _overflow_allowed(diff, q, pj, max_k):
    """diff must be k*Q mod pj for |k| <= max_k."""
    return any((k * q) % pj == diff for k in range(-max_k, max_k + 1))


def test_convert_approx_small_overflow(basis, dest):
    rng = np.random.default_rng(0)
    values = [int(v) for v in rng.integers(0, 2**60, size=16)]
    res = basis.to_residues(values)
    exact = convert_exact(basis, res, dest)
    approx = basis.convert_approx(res, dest)
    q = basis.modulus
    for j, pj in enumerate(dest.moduli):
        for col in range(len(values)):
            diff = (int(approx[j, col]) - int(exact[j, col])) % pj
            # With the floating-point correction the overflow is |a| <= 1.
            assert _overflow_allowed(diff, q, pj, 1), (j, col)


def test_convert_approx_uncorrected_bounded_overflow(basis, dest):
    rng = np.random.default_rng(1)
    values = [int(v) for v in rng.integers(0, 2**60, size=16)]
    res = basis.to_residues(values)
    exact = convert_exact(basis, res, dest)
    approx = basis.convert_approx(res, dest, correct=False)
    q = basis.modulus
    for j, pj in enumerate(dest.moduli):
        for col in range(len(values)):
            diff = (int(approx[j, col]) - int(exact[j, col])) % pj
            assert _overflow_allowed(diff, q, pj, len(basis)), (j, col)


def test_convert_approx_shape_validation(basis, dest):
    with pytest.raises(ValueError):
        basis.convert_approx(np.zeros((2, 4), dtype=np.uint64), dest)


def test_hps_overflow_sum_matches_row_loop(make_basis):
    """The one-pass HPS overflow estimate equals the row-by-row float loop
    bit for bit, even where rounding is decided within 1e-9 of a .5."""
    basis, dest = make_basis(6), make_basis(3, offset=6)
    moduli = basis.moduli
    rng = np.random.default_rng(7)
    scaled = np.stack([rng.integers(0, q, 512, dtype=np.uint64)
                       for q in moduli])
    # Pick the last row so each column's fraction sum sits at m + 0.5,
    # off by at most 0.5 / q_last (< 1e-9 for 30-bit primes).
    head = sum(scaled[i].astype(np.float64) / moduli[i]
               for i in range(len(moduli) - 1))
    last = moduli[-1]
    scaled[-1] = (np.rint((0.5 - head) % 1.0 * last).astype(np.uint64)
                  % np.uint64(last))
    loop = np.zeros(scaled.shape[1], dtype=np.float64)
    for i, q in enumerate(moduli):
        loop += scaled[i].astype(np.float64) / q
    assert np.all(np.abs(loop - np.floor(loop) - 0.5) < 1e-9)
    one_pass = (scaled / basis.moduli_col.astype(np.float64)).sum(axis=0)
    assert np.array_equal(one_pass, loop)

    # Through convert_approx: residues that scale to exactly these rows,
    # checked against the loop estimate applied by big-int arithmetic.
    residues = np.stack([
        scaled[i] * np.uint64(basis._q_hats[i] % q) % np.uint64(q)
        for i, q in enumerate(moduli)])
    raw = basis.convert_approx(residues, dest, correct=False)
    got = basis.convert_approx(residues, dest)
    overflow = np.rint(loop).astype(np.int64)
    for j, p in enumerate(dest.moduli):
        q_mod = basis.modulus % p
        want = [(int(r) - int(v) * q_mod) % p
                for r, v in zip(raw[j], overflow)]
        assert [int(v) for v in got[j]] == want
