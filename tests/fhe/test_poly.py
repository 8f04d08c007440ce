"""RnsPoly ring arithmetic, domains, automorphisms, rescaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.poly import COEFF, EVAL, RnsPoly, batch_rescale
from repro.fhe.primes import find_ntt_primes
from repro.fhe.rns import RnsBasis

from tests.fhe.oracles import change_basis

N = 64
PRIMES = find_ntt_primes(6, 28, N)
BASIS = RnsBasis(PRIMES[:3])


def poly_from(coeffs, basis=BASIS, domain=COEFF):
    full = list(coeffs) + [0] * (N - len(coeffs))
    return RnsPoly.from_integers(basis, full, domain)


def as_ints(poly):
    return [int(v) for v in poly.to_integers()]


def test_zero_constructor():
    z = RnsPoly.zero(BASIS, N)
    assert z.level == 3 and z.degree == N
    assert not z.data.any()


def test_shape_validation():
    with pytest.raises(ValueError):
        RnsPoly(BASIS, np.zeros((2, N), dtype=np.uint64))
    with pytest.raises(ValueError):
        RnsPoly(BASIS, np.zeros((3, N), dtype=np.uint64), domain="bogus")


def test_add_sub_neg_roundtrip():
    a = poly_from([1, 2, 3])
    b = poly_from([10, -5, 7])
    assert as_ints(a + b)[:3] == [11, -3, 10]
    assert as_ints(a - b)[:3] == [-9, 7, -4]
    assert as_ints(-a)[:3] == [-1, -2, -3]
    assert as_ints((a + b) - b) == as_ints(a)


def test_domain_mismatch_rejected():
    a = poly_from([1])
    b = poly_from([1]).to_eval()
    with pytest.raises(ValueError, match="domain"):
        _ = a + b


def test_basis_mismatch_rejected():
    a = poly_from([1])
    b = poly_from([1], basis=RnsBasis(PRIMES[3:6]))
    with pytest.raises(ValueError, match="bases"):
        _ = a + b


def test_mul_requires_eval_domain():
    a = poly_from([1, 1])
    with pytest.raises(ValueError, match="EVAL"):
        _ = a * a


def test_polynomial_product():
    # (1 + 2x)(3 + x) = 3 + 7x + 2x^2
    a = poly_from([1, 2]).to_eval()
    b = poly_from([3, 1]).to_eval()
    assert as_ints((a * b).to_coeff())[:3] == [3, 7, 2]


def test_scalar_mul_signed():
    a = poly_from([5, -4])
    assert as_ints(a.scalar_mul(-3))[:2] == [-15, 12]


def test_domain_roundtrip():
    rng = np.random.default_rng(0)
    data = rng.integers(0, PRIMES[0], size=(3, N), dtype=np.uint64)
    data = data % np.array(BASIS.moduli, dtype=np.uint64)[:, None]
    p = RnsPoly(BASIS, data, COEFF)
    assert np.array_equal(p.to_eval().to_coeff().data, data)


def test_automorphism_index_map():
    # x -> x^5 sends coefficient of x^1 to x^5, x^13 to x^65 = -x^1.
    p = poly_from([0, 1] + [0] * 11 + [1])  # x + x^13
    out = as_ints(p.automorphism(5))
    assert out[5] == 1
    assert out[1] == -1


def test_automorphism_composition():
    p = poly_from(list(range(1, 9)))
    lhs = p.automorphism(5).automorphism(5)
    rhs = p.automorphism(25)
    assert as_ints(lhs) == as_ints(rhs)


def test_automorphism_inverse():
    p = poly_from([3, 1, 4, 1, 5])
    k = 5
    k_inv = pow(k, -1, 2 * N)
    assert as_ints(p.automorphism(k).automorphism(k_inv)) == as_ints(p)


def test_automorphism_preserves_eval_domain_flag():
    p = poly_from([1, 2]).to_eval()
    assert p.automorphism(5).domain == EVAL


def test_automorphism_rejects_even_exponent():
    with pytest.raises(ValueError):
        poly_from([1]).automorphism(4)


def test_automorphism_is_ring_homomorphism():
    a = poly_from([1, 2, 3]).to_eval()
    b = poly_from([4, 5]).to_eval()
    lhs = (a * b).automorphism(9)
    rhs = a.automorphism(9) * b.automorphism(9)
    assert as_ints(lhs.to_coeff()) == as_ints(rhs.to_coeff())


def test_rescale_divides_and_rounds():
    q_last = BASIS.moduli[-1]
    coeffs = [q_last * 7, q_last * 3 + q_last // 2 + 1, -q_last * 2]
    p = poly_from(coeffs)
    (r,) = batch_rescale([p])
    assert r.level == 2
    got = [int(v) for v in r.to_integers()[:3]]
    assert got == [7, 4, -2]  # second entry rounds up


def test_rescale_level1_rejected():
    p = poly_from([1], basis=RnsBasis(PRIMES[:1]))
    with pytest.raises(ValueError):
        batch_rescale([p])


def test_change_basis_exact_vs_approx():
    dest = RnsBasis(PRIMES[3:6])
    p = poly_from([123, -456, 789])
    exact = change_basis(p, dest, exact=True)
    approx = change_basis(p, dest)
    # Small values convert identically (no overflow term triggers).
    assert as_ints(exact)[:3] == [123, -456, 789]
    assert np.array_equal(exact.data, approx.data)


def test_uniform_random_determinism():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    a = RnsPoly.uniform_random(BASIS, N, rng1)
    b = RnsPoly.uniform_random(BASIS, N, rng2)
    assert np.array_equal(a.data, b.data)
    for i, q in enumerate(BASIS):
        assert a.data[i].max() < q


@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_product_degree0_term_property(coeffs):
    """Property: constant term of p*p equals c0^2 - sum of wrap products."""
    p = poly_from(coeffs).to_eval()
    sq = as_ints((p * p).to_coeff())
    c = coeffs + [0] * (N - len(coeffs))
    want = sum(c[i] * c[-i % N] * (1 if i == 0 else -1) for i in range(N))
    assert sq[0] == want
