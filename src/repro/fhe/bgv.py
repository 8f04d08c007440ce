"""BGV: exact integer arithmetic on the same RNS substrate.

Sec. 2's premise is that CKKS, BGV and GSW share an implementation
substrate, which is why one accelerator serves them all.  This module
demonstrates it: BGV reuses this library's RNS polynomials, NTTs, samplers
and keyswitching unchanged - only the plaintext encoding (integers modulo
t instead of scaled fixed-point) and the noise bookkeeping differ:

* errors are scaled by the plaintext modulus t, so noise never perturbs
  the message residues (``generate_hint(error_scale=t)``);
* levels are spent by **modulus switching**, the BGV analogue of rescaling:
  dividing by q_L with a correction delta = 0 (mod t), delta = -c (mod q_L)
  keeps the plaintext exact while shrinking noise;
* slot packing uses the negacyclic NTT modulo t (t = 65537 is NTT-friendly
  for every ring this library instantiates), so batched add/mult are
  element-wise mod t.

Because q_L != 1 (mod t), each modulus switch multiplies the underlying
plaintext by q_L^-1 mod t; ciphertexts carry that factor and decryption
removes it - the standard BGV bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fhe.keyswitch import generate_hint, standard_keyswitch
from repro.fhe.ntt import BatchedNttContext
from repro.fhe.poly import COEFF, EVAL, RnsPoly
from repro.fhe.primes import find_ntt_primes, is_prime
from repro.fhe.rns import RnsBasis
from repro.fhe.sampling import gaussian_error, ternary_secret
from repro.reliability.errors import (
    LevelMismatchError,
    ParameterError,
    ScaleMismatchError,
)

DEFAULT_PLAIN_MODULUS = 65537  # Fermat prime: NTT-friendly for N <= 32768


@dataclass(frozen=True)
class BgvParams:
    degree: int = 1024
    max_level: int = 6
    modulus_bits: int = 28
    plain_modulus: int = DEFAULT_PLAIN_MODULUS
    error_sigma: float = 3.2
    seed: int = 99

    def __post_init__(self):
        if self.degree & (self.degree - 1):
            raise ParameterError("degree must be a power of two",
                                 degree=self.degree)
        if not is_prime(self.plain_modulus):
            raise ParameterError("plain modulus must be prime for slot packing")
        if (self.plain_modulus - 1) % (2 * self.degree):
            raise ParameterError(
                "plain modulus must be NTT-friendly (1 mod 2N) for batching"
            )

    @property
    def slots(self) -> int:
        return self.degree


class BgvCiphertext:
    """(c0, c1) with level and the accumulated q^-1 plaintext factor."""

    def __init__(self, c0: RnsPoly, c1: RnsPoly, plain_factor: int):
        self.c0 = c0
        self.c1 = c1
        self.plain_factor = plain_factor

    @property
    def level(self) -> int:
        return self.c0.level

    @property
    def basis(self) -> RnsBasis:
        return self.c0.basis


class BgvContext:
    """Keygen and homomorphic evaluation for batched BGV."""

    def __init__(self, params: BgvParams):
        self.params = params
        primes = find_ntt_primes(params.max_level, params.modulus_bits,
                                 params.degree)
        self.q_basis = RnsBasis(primes)
        self.t = params.plain_modulus
        self.slot_ntt = BatchedNttContext.get((self.t,), params.degree)
        self.rng = np.random.default_rng(params.seed)
        self._hint_seed = iter(range(77_000_000, 2**31))

    # -- encoding: batched integers via the NTT modulo t -------------------

    def encode(self, values) -> np.ndarray:
        """Integers (any sign) -> plaintext polynomial coefficients mod t."""
        values = np.asarray(values, dtype=np.int64) % self.t
        full = np.zeros(self.params.degree, dtype=np.uint64)
        full[: len(values)] = values.astype(np.uint64)
        return self.slot_ntt.inverse(full[None])[0]

    def decode(self, coeffs: np.ndarray) -> np.ndarray:
        return self.slot_ntt.forward(coeffs.astype(np.uint64)[None])[0]

    # -- keys ----------------------------------------------------------------

    def keygen(self):
        from repro.fhe.ckks import SecretKey

        return SecretKey(coeffs=ternary_secret(self.params.degree, self.rng))

    def relin_hint(self, sk):
        s = sk.poly(self.q_basis)
        return generate_hint(
            s * s, s, self.q_basis, None, 1, self.rng,
            next(self._hint_seed), self.params.error_sigma,
            label="bgv-relin", error_scale=self.t,
        )

    # -- encryption -------------------------------------------------------------

    def encrypt(self, sk, values, level: int | None = None) -> BgvCiphertext:
        level = self.params.max_level if level is None else level
        basis = self.q_basis[:level] if level < len(self.q_basis) else self.q_basis
        n = self.params.degree
        m_coeffs = self.encode(values)
        m = RnsPoly.from_integers(
            basis, m_coeffs.astype(np.int64), EVAL
        )
        a = RnsPoly.uniform_random(basis, n, self.rng, EVAL)
        e = RnsPoly.from_integers(
            basis,
            gaussian_error(n, self.rng, self.params.error_sigma)
            * self.t,
            EVAL,
        )
        s = sk.poly(basis)
        return BgvCiphertext(m + e - a * s, a, plain_factor=1)

    def decrypt(self, sk, ct: BgvCiphertext) -> np.ndarray:
        s = sk.poly(ct.basis)
        raw = (ct.c0 + ct.c1 * s).to_coeff().to_integers()
        coeffs = np.array([int(v) % self.t for v in raw], dtype=np.uint64)
        slots = self.decode(coeffs)
        # Undo the accumulated modswitch factor.
        fix = pow(self.plain_correction(ct), -1, self.t)
        return slots * np.uint64(fix) % np.uint64(self.t)

    def plain_correction(self, ct: BgvCiphertext) -> int:
        return ct.plain_factor % self.t

    # -- homomorphic operations ----------------------------------------------------

    def add(self, a: BgvCiphertext, b: BgvCiphertext) -> BgvCiphertext:
        if a.plain_factor != b.plain_factor:
            raise ScaleMismatchError("operands carry different modswitch factors")
        return BgvCiphertext(a.c0 + b.c0, a.c1 + b.c1, a.plain_factor)

    def multiply(self, a: BgvCiphertext, b: BgvCiphertext,
                 relin) -> BgvCiphertext:
        """Tensor + relinearize (standard keyswitching, t-scaled errors)."""
        if a.basis != b.basis:
            raise LevelMismatchError("operands at different levels",
                                     left_level=a.level, right_level=b.level)
        d0 = a.c0 * b.c0
        d1 = a.c0 * b.c1 + a.c1 * b.c0
        d2 = a.c1 * b.c1
        ks0, ks1 = standard_keyswitch(d2, relin)
        return BgvCiphertext(
            d0 + ks0, d1 + ks1,
            a.plain_factor * b.plain_factor % self.t,
        )

    def mod_switch(self, ct: BgvCiphertext) -> BgvCiphertext:
        """Drop the last modulus, dividing noise by ~q_L exactly mod t."""
        return BgvCiphertext(
            self._switch_poly(ct.c0), self._switch_poly(ct.c1),
            ct.plain_factor * pow(
                ct.basis.moduli[-1] % self.t, -1, self.t
            ) % self.t,
        )

    def _switch_poly(self, poly: RnsPoly) -> RnsPoly:
        """(x + delta) / q_L with delta = -x (mod q_L), delta = 0 (mod t)."""
        coeff = poly.to_coeff()
        q_last = coeff.basis.moduli[-1]
        last = coeff.data[-1].astype(np.int64)
        centered = last - np.int64(q_last) * (last > q_last // 2)
        # delta = -r + q_L * w with w = r * q_L^{-1} (mod t, centered):
        # then delta = -r (mod q_L) and delta = 0 (mod t).
        q_inv_t = pow(q_last % self.t, -1, self.t)
        w = (centered % self.t) * q_inv_t % self.t
        w = w - np.int64(self.t) * (w > self.t // 2)
        delta = -centered + np.int64(q_last) * w
        new_basis = coeff.basis.drop_last()
        out = np.empty((len(new_basis), poly.degree), dtype=np.uint64)
        for i, qi in enumerate(new_basis):
            qi64 = np.uint64(qi)
            inv = np.uint64(pow(q_last % qi, qi - 2, qi))
            corr = np.mod(delta, qi).astype(np.uint64)
            out[i] = (coeff.data[i] + corr) % qi64 * inv % qi64
        return RnsPoly(new_basis, out, COEFF).to_eval()
