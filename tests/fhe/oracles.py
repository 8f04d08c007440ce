"""Reference oracles for the CKKS kernels.

Each oracle is the plain textbook form of a kernel the library runs in a
faster, batched shape: a per-limb radix-2 NTT, per-polynomial rescale and
ModDown that round-trip every row through the coefficient domain, and a
ModUp through ``change_basis``, whose fast conversion reduces term by
term.  The differential tests, the perf gate
and the known-answer vectors in ``kat/`` compare the library against
them.  They carry no tracing and no fault hooks: they are the reference,
not the thing under test.
"""

from __future__ import annotations

import numpy as np

from repro.fhe.ntt import bit_reverse_permutation, power_table
from repro.fhe.poly import COEFF, EVAL, RnsPoly
from repro.fhe.primes import root_of_unity
from repro.fhe.rns import RnsBasis
from repro.reliability.errors import NoiseBudgetExhaustedError, ParameterError


class NttContext:
    """Negacyclic NTT modulo one prime, radix-2.

    The standard merged-twiddle formulation (Longa & Naehrig):
    Cooley-Tukey butterflies forward (natural -> bit-reversed),
    Gentleman-Sande inverse.  Arithmetic stays in uint64: moduli are
    below 2^31, so butterfly products are < 2^62 and never overflow.
    Instances are cached per (modulus, degree) via :meth:`get`.
    """

    _cache: dict[tuple[int, int], "NttContext"] = {}

    def __init__(self, modulus: int, degree: int):
        if degree & (degree - 1):
            raise ParameterError("degree must be a power of two",
                                 degree=degree)
        if modulus >= 1 << 31:
            raise ParameterError(
                "modulus must fit in 31 bits to avoid overflow",
                modulus_bits=modulus.bit_length(),
            )
        self.modulus = modulus
        self.degree = degree
        psi = root_of_unity(modulus, 2 * degree)
        psi_inv = pow(psi, modulus - 2, modulus)
        rev = bit_reverse_permutation(degree)
        # Twiddles indexed in bit-reversed order, as consumed stage by stage.
        self.psi_bitrev = power_table(psi, degree, modulus)[rev]
        self.psi_inv_bitrev = power_table(psi_inv, degree, modulus)[rev]
        self.n_inv = pow(degree, modulus - 2, modulus)
        self._psi = psi

    @classmethod
    def get(cls, modulus: int, degree: int) -> "NttContext":
        key = (modulus, degree)
        ctx = cls._cache.get(key)
        if ctx is None:
            ctx = cls(modulus, degree)
            cls._cache[key] = ctx
        return ctx

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient order in, bit-reversed evaluations out; (..., N)."""
        q = np.uint64(self.modulus)
        n = self.degree
        a = np.array(coeffs, dtype=np.uint64, copy=True)
        lead = a.shape[:-1]
        a = a.reshape(-1, n)
        t = n
        m = 1
        while m < n:
            t //= 2
            s = self.psi_bitrev[m : 2 * m]  # one twiddle per butterfly group
            blocks = a.reshape(-1, m, 2 * t)
            u = blocks[:, :, :t]
            v = blocks[:, :, t:] * s[None, :, None] % q
            blocks[:, :, t:] = (u + q - v) % q
            blocks[:, :, :t] = (u + v) % q
            m *= 2
        return a.reshape(*lead, n)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Bit-reversed evaluations in, coefficients out; (..., N)."""
        q = np.uint64(self.modulus)
        n = self.degree
        a = np.array(values, dtype=np.uint64, copy=True)
        lead = a.shape[:-1]
        a = a.reshape(-1, n)
        t = 1
        m = n
        while m > 1:
            h = m // 2
            s = self.psi_inv_bitrev[h : 2 * h]
            blocks = a.reshape(-1, h, 2 * t)
            u = blocks[:, :, :t].copy()
            v = blocks[:, :, t:]
            blocks[:, :, :t] = (u + v) % q
            blocks[:, :, t:] = (u + q - v) % q * s[None, :, None] % q
            t *= 2
            m = h
        a = a * np.uint64(self.n_inv) % q
        return a.reshape(*lead, n)

    def negacyclic_convolution(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product in Z_q[x]/(x^N+1) computed through the NTT."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(fa * fb % np.uint64(self.modulus))


def naive_negacyclic_convolution(a, b, modulus: int) -> np.ndarray:
    """O(N^2) schoolbook product in Z_q[x]/(x^N+1)."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = a.shape[0]
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            prod = ai * int(b[j])
            if k < n:
                out[k] = (out[k] + prod) % modulus
            else:
                out[k - n] = (out[k - n] - prod) % modulus
    return np.array(out, dtype=np.uint64)


def convert_exact(basis: RnsBasis, residues: np.ndarray,
                  dest: RnsBasis) -> np.ndarray:
    """Exact (centered) base conversion through big-int CRT."""
    return dest.to_residues(basis.to_integers(residues, centered=True))


def convert_per_term(basis: RnsBasis, residues: np.ndarray, dest: RnsBasis,
                     correct: bool = True) -> np.ndarray:
    """Fast base conversion of (L, N) residues term by term: Listing 1's
    loop nest, reducing every product before it is accumulated.

    Each source row is scaled by (Q/q_i)^{-1} mod q_i; each destination
    row accumulates scaled_i * ((Q/q_i) mod p_j) mod p_j over the source
    rows.  With ``correct`` the HPS overflow estimate v = round(sum_i
    scaled_i / q_i), summed row by row in float64 from 0.0, is subtracted
    as v*Q mod p_j.
    """
    q_total = basis.modulus
    q_hats = [q_total // q for q in basis.moduli]
    scaled = [residues[i] * np.uint64(pow(h % q, -1, q)) % np.uint64(q)
              for i, (h, q) in enumerate(zip(q_hats, basis.moduli))]
    width = residues.shape[1]
    if correct:
        fraction = np.zeros(width, dtype=np.float64)
        for row, q in zip(scaled, basis.moduli):
            fraction += row.astype(np.float64) / q
        overflow = np.rint(fraction).astype(np.uint64)
    out = np.empty((len(dest), width), dtype=np.uint64)
    for j, p in enumerate(dest.moduli):
        pj = np.uint64(p)
        acc = np.zeros(width, dtype=np.uint64)
        for row, h in zip(scaled, q_hats):
            acc = (acc + row * np.uint64(h % p) % pj) % pj
        if correct:
            acc = (acc + pj - overflow % pj * np.uint64(q_total % p) % pj) % pj
        out[j] = acc
    return out


def change_basis(poly: RnsPoly, dest: RnsBasis,
                 exact: bool = False) -> RnsPoly:
    """changeRNSBase: re-express ``poly`` in another basis.

    ``exact=False`` is the fast conversion (Listing 1 / the CRB unit,
    computed term by term by :func:`convert_per_term`), which may add a
    small multiple of Q; ``exact=True`` is big-int CRT.  Converts
    coefficient-domain data, as Listing 1 does (INTT before, NTT after).
    """
    was_eval = poly.domain == EVAL
    coeff = poly.to_coeff()
    if exact:
        data = convert_exact(coeff.basis, coeff.data, dest)
    else:
        data = convert_per_term(coeff.basis, coeff.data, dest)
    result = RnsPoly(dest, data, COEFF)
    return result.to_eval() if was_eval else result


def rescale(poly: RnsPoly) -> RnsPoly:
    """Divide by the last modulus q_l, rounding: the CKKS rescale.

    Computes (x - [x]_{q_l}) / q_l over the remaining basis, on the
    coefficients of every row (an EVAL input takes a full INTT and NTT).
    """
    if poly.level < 2:
        raise NoiseBudgetExhaustedError(
            "cannot rescale a level-1 polynomial; bootstrap to restore "
            "budget"
        )
    was_eval = poly.domain == EVAL
    coeff = poly.to_coeff()
    q_last = coeff.basis.moduli[-1]
    last_row = coeff.data[-1]
    new_basis = coeff.basis.drop_last()
    # Centered correction keeps the rounding error at most 1/2.
    centered = last_row.astype(np.int64) - np.int64(q_last) * (
        last_row > np.uint64(q_last // 2)
    )
    q_col = new_basis.moduli_col
    inv_col = coeff.basis.rescale_inv_col
    corr = np.mod(centered[None, :], q_col.astype(np.int64)).astype(np.uint64)
    out = (coeff.data[:-1] + q_col - corr) % q_col * inv_col % q_col
    result = RnsPoly(new_basis, out, COEFF)
    return result.to_eval() if was_eval else result


def mod_down(poly: RnsPoly, q_basis: RnsBasis,
             aux_basis: RnsBasis) -> RnsPoly:
    """Divide by P: (poly - ModUp([poly]_P)) * P^-1 over ``q_basis``, in
    the coefficient domain (Listing 1 lines 7-10); EVAL output."""
    n_q = len(q_basis)
    coeff = poly.to_coeff()
    q_part = RnsPoly(q_basis, coeff.data[:n_q], COEFF)
    p_part = RnsPoly(aux_basis, coeff.data[n_q:], COEFF)
    diff = q_part - change_basis(p_part, q_basis)
    inv_col = q_basis.scalar_inverse_col(aux_basis.modulus)
    out = diff.data * inv_col % q_basis.moduli_col
    return RnsPoly(q_basis, out, COEFF).to_eval()
