"""RNS polynomials: the data type every FHE operation manipulates.

An :class:`RnsPoly` is a residue matrix of shape (L, N): L residue
polynomials of degree < N, one per modulus of its basis, in either the
coefficient domain or the NTT (evaluation) domain.  This is exactly the
granularity at which CraterLake's vector FUs operate - one residue
polynomial streams through a functional unit in N/E cycles.
"""

from __future__ import annotations

import numpy as np

from repro.fhe.ntt import BatchedNttContext, eval_automorphism_permutation
from repro.fhe.rns import RnsBasis
from repro.reliability.errors import (
    LevelMismatchError,
    NoiseBudgetExhaustedError,
    ParameterError,
)

COEFF = "coeff"
EVAL = "eval"


class RnsPoly:
    """A polynomial in Z_Q[x]/(x^N + 1) stored in RNS form."""

    __slots__ = ("basis", "data", "domain")

    def __init__(self, basis: RnsBasis, data: np.ndarray, domain: str = COEFF):
        data = np.asarray(data, dtype=np.uint64)
        if data.ndim != 2 or data.shape[0] != len(basis):
            raise ParameterError(
                f"data shape {data.shape} does not match basis of size {len(basis)}"
            )
        if domain not in (COEFF, EVAL):
            raise ParameterError(f"unknown domain {domain!r}")
        self.basis = basis
        self.data = data
        self.domain = domain

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, basis: RnsBasis, degree: int, domain: str = COEFF) -> "RnsPoly":
        return cls(basis, np.zeros((len(basis), degree), dtype=np.uint64), domain)

    @classmethod
    def from_integers(cls, basis: RnsBasis, coeffs, domain: str = COEFF) -> "RnsPoly":
        """Build from signed big-int coefficients (coefficient-domain input)."""
        poly = cls(basis, basis.to_residues(coeffs), COEFF)
        return poly.to_eval() if domain == EVAL else poly

    @classmethod
    def uniform_random(
        cls, basis: RnsBasis, degree: int, rng: np.random.Generator,
        domain: str = EVAL,
    ) -> "RnsPoly":
        """Uniformly random element of R_Q.

        Sampled directly per-residue: choosing each residue uniformly is
        equivalent, by CRT, to sampling the wide coefficient uniformly.
        Sampling in the EVAL domain is also uniform because the NTT is a
        bijection; this is what seeded keyswitch-hint expansion does.
        """
        rows = [
            rng.integers(0, q, size=degree, dtype=np.uint64) for q in basis
        ]
        return cls(basis, np.stack(rows), domain)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return self.data.shape[1]

    @property
    def level(self) -> int:
        """Number of residue polynomials L (the paper's multiplicative budget)."""
        return self.data.shape[0]

    def copy(self) -> "RnsPoly":
        return RnsPoly(self.basis, self.data.copy(), self.domain)

    def __repr__(self) -> str:
        return f"RnsPoly(N={self.degree}, L={self.level}, domain={self.domain})"

    def _check_compatible(self, other: "RnsPoly") -> None:
        if self.basis != other.basis:
            raise LevelMismatchError(
                "operands live in different RNS bases",
                left_level=self.level, right_level=other.level,
            )
        if self.domain != other.domain:
            raise ParameterError(
                f"domain mismatch: {self.domain} vs {other.domain}"
            )
        if self.degree != other.degree:
            raise ParameterError("degree mismatch",
                                 left=self.degree, right=other.degree)

    # -- domain conversion ------------------------------------------------

    def to_eval(self) -> "RnsPoly":
        if self.domain == EVAL:
            return self
        ntt = BatchedNttContext.get(self.basis.moduli, self.degree)
        return RnsPoly(self.basis, ntt.forward(self.data), EVAL)

    def to_coeff(self) -> "RnsPoly":
        if self.domain == COEFF:
            return self
        ntt = BatchedNttContext.get(self.basis.moduli, self.degree)
        return RnsPoly(self.basis, ntt.inverse(self.data), COEFF)

    # -- ring arithmetic ---------------------------------------------------

    def _moduli_column(self) -> np.ndarray:
        return self.basis.moduli_col

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        q = self._moduli_column()
        # Operands are canonical (< q), so the sum is < 2q and one
        # conditional subtraction - min(w, w - q) with unsigned wraparound -
        # reduces it without a division, to the same value bit for bit.
        w = self.data + other.data
        return RnsPoly(self.basis, np.minimum(w, w - q), self.domain)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        q = self._moduli_column()
        w = self.data + q - other.data
        return RnsPoly(self.basis, np.minimum(w, w - q), self.domain)

    def __neg__(self) -> "RnsPoly":
        q = self._moduli_column()
        w = q - self.data
        return RnsPoly(self.basis, np.minimum(w, w - q), self.domain)

    def __mul__(self, other) -> "RnsPoly":
        if isinstance(other, RnsPoly):
            self._check_compatible(other)
            if self.domain != EVAL:
                raise ParameterError(
                    "polynomial products require the EVAL domain; call to_eval()"
                )
            q = self._moduli_column()
            return RnsPoly(self.basis, self.data * other.data % q, EVAL)
        return self.scalar_mul(int(other))

    def scalar_mul(self, scalar: int) -> "RnsPoly":
        """Multiply by an integer constant (applied per residue).

        Limb-batched: the scalar's per-limb residues form a column and the
        multiply-reduce is one broadcast expression over the (L, N) matrix.
        """
        q = self.basis.moduli_col
        s = self.basis.scalar_residue_col(scalar)
        return RnsPoly(self.basis, self.data * s % q, self.domain)

    # -- structure operations ----------------------------------------------

    def automorphism(self, k: int) -> "RnsPoly":
        """Apply x -> x^k (k odd), the ring operation behind rotations.

        Coefficient i maps to index i*k mod 2N with a sign flip when the
        product wraps past N.  In the EVAL domain the same map is a pure
        permutation of the evaluation points (the NTT is a bijection, so
        the result is bit-identical to transforming, permuting and
        transforming back) - the zero-NTT path every rotation takes, and
        what the hardware automorphism unit does with two transposes.
        """
        n = self.degree
        if k % 2 == 0:
            raise ParameterError("automorphism exponent must be odd", k=k)
        k %= 2 * n
        if self.domain == EVAL:
            perm = eval_automorphism_permutation(n, k)
            # take() keeps the result C-contiguous (fancy indexing here
            # would hand back an F-ordered buffer) and is measurably
            # faster than self.data[:, perm].
            return RnsPoly(self.basis, self.data.take(perm, axis=1), EVAL)
        poly = self
        idx = np.arange(n, dtype=np.int64) * k % (2 * n)
        sign_flip = idx >= n
        dest = np.where(sign_flip, idx - n, idx)
        out = np.zeros_like(poly.data)
        q = poly._moduli_column()
        out[:, dest] = np.where(sign_flip[None, :], (q - poly.data) % q, poly.data)
        # x^0 never flips; (q - 0) % q is 0 so the formula is safe for zeros.
        return RnsPoly(poly.basis, out, COEFF)

    def drop_last_modulus(self) -> "RnsPoly":
        """Forget the last residue row (used when operands must align)."""
        return RnsPoly(self.basis.drop_last(), self.data[:-1], self.domain)

    def to_integers(self) -> np.ndarray:
        """Centered big-int coefficients (coefficient domain)."""
        return self.basis.to_integers(self.to_coeff().data, centered=True)


def batch_rescale(polys: list[RnsPoly]) -> list[RnsPoly]:
    """Rescale several same-basis polynomials with shared transforms.

    The (L, N) residue matrices are stacked into one (k, L, N) tensor so
    every transform runs as a single batched call, and the arithmetic
    broadcasts across all k polynomials (a ciphertext rescales both
    halves this way).  EVAL-domain inputs additionally take the lazy
    path: only the dropped limb is inverse-transformed and only the
    correction is forward-transformed, instead of round-tripping all L
    limbs.  Bit-exact by NTT linearity against rescaling each polynomial
    on its own through a full INTT/NTT round trip (the oracle in
    ``tests/fhe/oracles.py``), and pinned by the known-answer vectors in
    ``tests/fhe/kat/``.
    """
    first = polys[0]
    for p in polys[1:]:
        first._check_compatible(p)
    if first.level < 2:
        raise NoiseBudgetExhaustedError(
            "cannot rescale a level-1 polynomial; bootstrap to restore budget"
        )
    was_eval = first.domain == EVAL
    data = np.stack([p.data for p in polys])
    q_last = first.basis.moduli[-1]
    new_basis = first.basis.drop_last()
    if was_eval:
        # Only the last limb needs its coefficients: INTT one row per
        # polynomial, correct in the coefficient domain, NTT the correction
        # back, and subtract in EVAL.  The subtraction and the q_last^{-1}
        # multiply commute with the (linear) NTT modulo each q_i, and a
        # residue's reduced representative is unique, so this is bit-exact
        # against the full INTT -> correct -> NTT round trip while moving
        # half as many rows through the transforms.
        last = BatchedNttContext.get((q_last,), first.degree).inverse(
            data[:, -1:, :]
        )[:, 0, :]
    else:
        last = data[:, -1, :]
    centered = last.astype(np.int64) - np.int64(q_last) * (
        last > np.uint64(q_last // 2)
    )
    q_col = new_basis.moduli_col
    inv_col = first.basis.rescale_inv_col
    # centered + q_i lies in (0, 2 q_i) whenever q_i > q_last // 2 (every
    # chain of equal-width primes): one conditional subtraction reduces
    # it.  A narrower limb is reduced by a true remainder first.
    shifted = centered[:, None, :] + q_col.astype(np.int64)
    if q_last // 2 >= min(new_basis.moduli):
        shifted = np.mod(shifted, q_col.astype(np.int64))
    corr = shifted.astype(np.uint64)
    corr = np.minimum(corr, corr - q_col, out=corr)
    if was_eval:
        corr = BatchedNttContext.get(new_basis.moduli, first.degree).forward(corr)
    # Canonical operands: the difference is below 2q, so one conditional
    # subtraction replaces a division.
    w = data[:, :-1] + q_col - corr
    out = np.minimum(w, w - q_col, out=w) * inv_col % q_col
    domain = EVAL if was_eval else COEFF
    return [RnsPoly(new_basis, out[i], domain) for i in range(len(polys))]
