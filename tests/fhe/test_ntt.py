"""The per-limb NTT oracle: roundtrip, linearity, convolution against the
schoolbook product.  The library's transform is checked against this
oracle in test_batched_kernels.py and against frozen vectors in
test_ntt_kat.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.ntt import BatchedNttContext, bit_reverse_permutation
from repro.fhe.primes import find_ntt_primes

from tests.fhe.oracles import NttContext, naive_negacyclic_convolution


@pytest.fixture(scope="module")
def ctx64():
    q = find_ntt_primes(1, 28, 64)[0]
    return NttContext.get(q, 64)


def _rand(ctx, seed=0, shape=None):
    rng = np.random.default_rng(seed)
    shape = (ctx.degree,) if shape is None else shape
    return rng.integers(0, ctx.modulus, size=shape, dtype=np.uint64)


def test_bit_reverse_permutation_involution():
    for n in (2, 8, 64, 256):
        rev = bit_reverse_permutation(n)
        assert np.array_equal(rev[rev], np.arange(n))


def test_bit_reverse_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        bit_reverse_permutation(12)


def test_roundtrip(ctx64):
    a = _rand(ctx64)
    assert np.array_equal(ctx64.inverse(ctx64.forward(a)), a)
    assert np.array_equal(ctx64.forward(ctx64.inverse(a)), a)


def test_roundtrip_batched(ctx64):
    a = _rand(ctx64, shape=(5, 64))
    back = ctx64.inverse(ctx64.forward(a))
    assert np.array_equal(back, a)


def test_forward_is_linear(ctx64):
    q = np.uint64(ctx64.modulus)
    a, b = _rand(ctx64, 1), _rand(ctx64, 2)
    lhs = ctx64.forward((a + b) % q)
    rhs = (ctx64.forward(a) + ctx64.forward(b)) % q
    assert np.array_equal(lhs, rhs)


def test_convolution_matches_schoolbook(ctx64):
    a, b = _rand(ctx64, 3), _rand(ctx64, 4)
    got = ctx64.negacyclic_convolution(a, b)
    want = naive_negacyclic_convolution(a, b, ctx64.modulus)
    assert np.array_equal(got, want)


def test_negacyclic_wraparound_sign(ctx64):
    # x^(N-1) * x = x^N = -1 in the negacyclic ring.
    n, q = ctx64.degree, ctx64.modulus
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    a[n - 1] = 1
    b[1] = 1
    prod = ctx64.negacyclic_convolution(a, b)
    want = np.zeros(n, dtype=np.uint64)
    want[0] = q - 1
    assert np.array_equal(prod, want)


def test_constant_polynomial_transform(ctx64):
    # NTT of the constant 1 is all-ones (evaluations of 1 everywhere).
    one = np.zeros(ctx64.degree, dtype=np.uint64)
    one[0] = 1
    assert np.all(ctx64.forward(one) == 1)


def test_context_cache_returns_same_instance():
    q = find_ntt_primes(1, 28, 32)[0]
    assert NttContext.get(q, 32) is NttContext.get(q, 32)


def test_modulus_width_guard():
    # Above 2^31 the float64 passes would lose exactness.
    with pytest.raises(ValueError):
        BatchedNttContext(((1 << 32) + 15,), 64)
    with pytest.raises(ValueError):
        NttContext((1 << 32) + 15, 64)  # would overflow uint64 butterflies


@given(st.integers(min_value=0, max_value=2**28 - 1),
       st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=63))
@settings(max_examples=30, deadline=None)
def test_single_coefficient_products(value, i, j):
    """Property: (v x^i) * (x^j) = +-v x^((i+j) mod N) with negacyclic sign."""
    q = find_ntt_primes(1, 28, 64)[0]
    ctx = NttContext.get(q, 64)
    v = value % q
    a = np.zeros(64, dtype=np.uint64)
    b = np.zeros(64, dtype=np.uint64)
    a[i] = v
    b[j] = 1
    prod = ctx.negacyclic_convolution(a, b)
    k = (i + j) % 64
    sign_flip = i + j >= 64
    want = (q - v) % q if sign_flip else v
    assert prod[k] == want
    prod[k] = 0
    assert not prod.any()
