"""Keyswitching: standard (BV) and boosted (hybrid, t-digit) algorithms.

Keyswitching re-encrypts a polynomial from one secret key to another without
decrypting; homomorphic multiplication needs it (s^2 -> s) and so does every
rotation (phi(s) -> s).  It dominates FHE runtime ("over 90% of all
operations", Sec. 2.2), which is why the paper designs CraterLake around it.

Two algorithms are implemented:

* **Standard keyswitching** (`standard_keyswitch`): the per-RNS-prime (BV)
  decomposition F1 targets.  The hint holds 2*L^2 residue polynomials
  (1.7 GB at N=64K, L=60) and applying it costs L^2 NTTs.
* **Boosted keyswitching** (`boosted_keyswitch`): the Gentry-Halevi-Smart
  family (Listing 1), parameterized by the number of digits t.  The input
  is expanded to a wider basis Q*P, the hint shrinks to (t+1) ciphertexts,
  and NTT count drops to O(L).  t=1 is the paper's Listing 1; higher t
  trades hint size for a smaller modulus expansion (Sec. 3.1).

Both produce a pair (ks0, ks1) over the input's basis such that
``ks0 + ks1*s_new ~= c * s_old`` up to keyswitching noise.

Hints follow the KSHGen convention: the uniform half is regenerated from a
seed (see `repro.fhe.sampling.seeded_uniform_poly`) rather than stored,
halving hint footprint exactly as the hardware unit does.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.fhe.ntt import BatchedNttContext
from repro.fhe.poly import EVAL, RnsPoly
from repro.fhe.rns import RnsBasis
from repro.fhe.sampling import error_poly, seeded_uniform_poly
from repro.obs import collector as obs
from repro.reliability import faults as _faults
from repro.reliability import guards as _guards
from repro.reliability.checksums import limb_checksums, verify_limbs
from repro.reliability.errors import ParameterError


def digit_bases(basis: RnsBasis, alpha: int) -> list[RnsBasis]:
    """Split a basis into contiguous digits of at most ``alpha`` primes."""
    if alpha <= 0:
        raise ParameterError("digit size must be positive", alpha=alpha)
    moduli = basis.moduli
    return [
        RnsBasis(moduli[i : i + alpha]) for i in range(0, len(moduli), alpha)
    ]


@dataclass
class KeySwitchHint:
    """A keyswitch hint (KSH): seeded gadget encryption of ``s_old`` under ``s_new``.

    ``b_polys[i]`` is the stored half for digit i, over the full basis
    Q_max*P in the EVAL domain; the uniform half ``a_i`` is regenerated from
    ``seed`` on demand (the KSHGen optimization).  ``alpha`` is the digit
    width in primes; ``aux_count`` = len(P).
    """

    b_polys: list[RnsPoly]
    seed: int
    alpha: int
    full_basis: RnsBasis  # Q_max extended by P
    aux_count: int  # number of special primes (0 => standard keyswitching)
    label: str = "ksh"
    # Per-digit (2, len(full_basis)) limb checksums of the (b, a) halves,
    # present when the hint was generated with integrity=True; verified
    # on every restricted_rows() load while the integrity switch is on.
    checksums: list | None = None
    _a_cache: dict = field(default_factory=dict, repr=False)
    _pairs: dict = field(default_factory=dict, repr=False)  # digit -> (b, a)
    _rows: dict = field(default_factory=dict, repr=False)  # basis -> rows

    @property
    def digits(self) -> int:
        return len(self.b_polys)

    def a_poly(self, index: int) -> RnsPoly:
        """The pseudorandom half of digit ``index``, expanded from the seed.

        Doubly cached: per hint instance here, and across hint instances in
        :func:`repro.fhe.sampling.seeded_uniform_poly`'s keyed stream cache
        (the ARK-style reuse - a regenerated or deserialized hint with the
        same seed never re-expands its PRNG streams).
        """
        poly = self._a_cache.get(index)
        if poly is None:
            poly = seeded_uniform_poly(
                self.full_basis, self.b_polys[0].degree, self.seed, index
            )
            self._a_cache[index] = poly
        return poly

    def size_words(self, level: int | None = None) -> int:
        """Residue words a server must *store* for this hint.

        With seeded generation only the b half is stored; without it the a
        half doubles this (see `repro.analysis.opcounts` for the analytic
        version used in the paper's Fig. 4 / Sec. 3 discussion).
        """
        rows = sum(p.level for p in self.b_polys)
        return rows * self.b_polys[0].degree

    def pair(self, index: int) -> np.ndarray:
        """Digit ``index``'s stored half over its regenerated half: a
        (2, len(full_basis), N) array, stacked once per digit."""
        pair = self._pairs.get(index)
        if pair is None:
            pair = np.stack((self.b_polys[index].data,
                             self.a_poly(index).data))
            self._pairs[index] = pair
        return pair

    def restricted_rows(self, index: int, basis: RnsBasis) -> np.ndarray:
        """Digit ``index``'s (b, a) rows restricted to ``basis``, stacked:
        a fresh (2, len(basis), N) array, b over a.

        This is the hint's HBM trust boundary: the fancy-index copy below
        models the streaming load, so an installed fault injector corrupts
        the *transferred* b rows (never the stored hint), and the integrity
        switch verifies the transfer against the generation-time checksums.
        """
        take = self._rows.get(basis.moduli)
        if take is None:
            full = self.full_basis.moduli
            take = np.array([full.index(q) for q in basis.moduli])
            self._rows[basis.moduli] = take
        rows = self.pair(index).take(take, axis=1)
        injector = _faults.active_injector()
        if injector is not None:
            injector.maybe_corrupt(_faults.HBM, rows[0])
        integ = _guards.integrity_active()
        if integ is not None and self.checksums is not None:
            reference = self.checksums[index][:, take]
            with obs.span("reliability.hint.verify", "reliability"):
                if np.array_equal(limb_checksums(rows, basis.moduli_col),
                                  reference):
                    obs.count("reliability.checksum.verified", 2)
                else:
                    # A fault: name the damaged half and its limbs.
                    for half, what in enumerate("ba"):
                        verify_limbs(rows[half], basis.moduli_col,
                                     reference[half],
                                     f"hint {self.label} digit {index} "
                                     f"({what})")
        return rows


def generate_hint(
    s_old: RnsPoly,
    s_new: RnsPoly,
    q_basis: RnsBasis,
    aux_basis: RnsBasis | None,
    alpha: int,
    rng: np.random.Generator,
    seed: int,
    sigma: float = 3.2,
    label: str = "ksh",
    error_scale: int = 1,
    integrity: bool = False,
) -> KeySwitchHint:
    """Generate a keyswitch hint for ``s_old -> s_new``.

    ``s_old``/``s_new`` must be EVAL-domain polynomials over Q_max*P (the
    concatenation of ``q_basis`` and ``aux_basis``).  For boosted
    keyswitching pass the special basis P; for standard keyswitching pass
    ``aux_basis=None`` and ``alpha=1``.

    Digit i stores  b_i = -a_i*s_new + e_i + P * (Q/Q_i) * [(Q/Q_i)^-1]_{Q_i} * s_old
    over Q_max*P (P = 1 for standard keyswitching).
    """
    full = q_basis if aux_basis is None else q_basis.extend(aux_basis)
    if s_old.basis != full or s_new.basis != full:
        raise ParameterError(
            "keys must be expressed over the full basis Q*P",
            s_old_level=s_old.level, s_new_level=s_new.level,
            full_level=len(full),
        )
    obs.count("fhe.keyswitch.hints_generated")
    degree = s_old.degree
    p_product = aux_basis.modulus if aux_basis is not None else 1
    q_total = q_basis.modulus
    digits = digit_bases(q_basis, alpha)
    b_polys = []
    for i, digit in enumerate(digits):
        q_i = digit.modulus
        q_hat = q_total // q_i
        factor = p_product * q_hat * pow(q_hat % q_i, -1, q_i)
        a_i = seeded_uniform_poly(full, degree, seed, i)
        # BGV-style schemes scale the hint error by the plaintext modulus
        # so keyswitching noise stays a multiple of t (error_scale = t).
        e_i = error_poly(full, degree, rng, sigma).scalar_mul(error_scale)
        b_i = e_i - a_i * s_new + s_old.scalar_mul(factor)
        b_polys.append(b_i)
    hint = KeySwitchHint(
        b_polys=b_polys,
        seed=seed,
        alpha=alpha,
        full_basis=full,
        aux_count=0 if aux_basis is None else len(aux_basis),
        label=label,
    )
    if integrity:
        with obs.span("reliability.checksum.seal", "reliability"):
            hint.checksums = [limb_checksums(hint.pair(i), full.moduli_col)
                              for i in range(len(b_polys))]
    return hint


def mod_up(poly: RnsPoly, alpha: int, target: RnsBasis) -> Iterator[np.ndarray]:
    """ModUp (Listing 1 lines 2-4): each digit of ``poly``, raised to
    ``target``, as an EVAL-domain (len(target), N) residue matrix.

    ``poly`` lives over the current basis Q_level, a prefix of ``target``,
    and splits into digits of ``alpha`` primes.  Each digit's residues are
    raised with the fast base conversion (the CRB kernel) and NTT'd.

    The raised digit's rows over the digit's own primes need no work:
    fast conversion into q_j, with (Q/q_j)^{-1} * (Q/q_j) = 1 and Q = 0
    mod q_j, returns x_j exactly, so those rows are the input's own EVAL
    rows.  Only the other target primes are converted and transformed
    (for t=1, alpha rows instead of L + alpha).  Digits are produced
    lazily, so a keyswitch holds one raised digit at a time.
    """
    degree = poly.degree
    coeff = poly.to_coeff().data
    evals = poly.to_eval().data
    moduli = target.moduli
    start = 0
    for digit in digit_bases(poly.basis, alpha):
        stop = start + len(digit)
        others = moduli[:start] + moduli[stop:]
        if others:
            converted = BatchedNttContext.get(others, degree).forward(
                digit.convert_approx(coeff[start:stop], RnsBasis(others)))
            yield np.concatenate(
                [converted[:start], evals[start:stop], converted[start:]])
        else:
            # The digit is the whole target (standard keyswitching at one
            # prime): nothing to convert.
            yield evals
        start = stop


def multiply_accumulate(
    raised: Iterable[np.ndarray], hint: KeySwitchHint, target: RnsBasis
) -> np.ndarray:
    """sum_i raised_i * ksh_i over ``target`` (Listing 1 lines 5-6,
    generalized to t digits): the hint's (b, a) rows of digit i times the
    i-th raised digit, accumulated in the EVAL domain.

    Returns both accumulators as one stacked (2, len(target), N) array,
    the form :func:`mod_down_pair` consumes; each digit's loaded hint
    rows are multiplied in place, so a digit costs one multiply and one
    reduction over both halves."""
    q_col = target.moduli_col
    acc = None
    for i, digit in enumerate(raised):
        prod = hint.restricted_rows(i, target)
        prod *= digit
        prod %= q_col
        if acc is None:
            acc = prod
        else:
            # Canonical summands: one conditional subtraction reduces.
            acc += prod
            np.minimum(acc, acc - q_col, out=acc)
    return acc


def mod_down_pair(
    acc: np.ndarray, q_basis: RnsBasis, aux_basis: RnsBasis
) -> tuple[RnsPoly, RnsPoly]:
    """ModDown (Listing 1 lines 7-10) of both keyswitch accumulators:
    (p - ModUp([p]_P)) * P^-1 over ``q_basis``, the rounding step that
    removes the P-expansion after hint application.

    ``acc`` is the stacked (2, len(q_basis) + len(aux_basis), N) EVAL
    accumulator :func:`multiply_accumulate` returns, so each transform is
    one batched call over both halves.  Only the P special-basis rows are
    inverse-transformed (the base conversion needs their coefficients)
    and only the Q-basis correction is forward-transformed - the Q rows
    of the accumulators never leave the EVAL domain, because subtraction
    and the P^{-1} multiply commute with the NTT modulo each q_i.  The
    base conversion takes both halves' coefficients in one call.  This is
    bit-exact against dividing each polynomial on its own in the
    coefficient domain (the oracle in ``tests/fhe/oracles.py``).
    """
    n_q = len(q_basis)
    if acc.ndim != 3 or acc.shape[:2] != (2, n_q + len(aux_basis)):
        raise ParameterError(
            "ModDown takes a stacked (2, len(Q) + len(P), N) accumulator",
            shape=acc.shape, q=n_q, aux=len(aux_basis),
        )
    degree = acc.shape[-1]
    aux_coeff = BatchedNttContext.get(aux_basis.moduli, degree).inverse(
        acc[:, n_q:])
    corr = BatchedNttContext.get(q_basis.moduli, degree).forward(
        aux_basis.convert_approx(aux_coeff, q_basis))
    q_col = q_basis.moduli_col
    w = acc[:, :n_q] + q_col
    w -= corr  # canonical operands: below 2q
    np.minimum(w, w - q_col, out=w)
    w *= q_basis.scalar_inverse_col(aux_basis.modulus)
    w %= q_col
    return RnsPoly(q_basis, w[0], EVAL), RnsPoly(q_basis, w[1], EVAL)


def check_special_basis(hint: KeySwitchHint, aux_basis: RnsBasis) -> None:
    """Raise :class:`ParameterError` unless ``hint`` was generated over
    ``aux_basis``: its digits and rows must line up with the ModUp."""
    if hint.aux_count != len(aux_basis):
        raise ParameterError(
            "hint was generated for a different special basis",
            hint_aux=hint.aux_count, aux=len(aux_basis),
        )


def boosted_keyswitch(
    poly: RnsPoly, hint: KeySwitchHint, aux_basis: RnsBasis
) -> tuple[RnsPoly, RnsPoly]:
    """Boosted (t-digit) keyswitching of an EVAL-domain polynomial.

    Follows Listing 1: INTT -> per-digit ModUp (changeRNSBase) -> NTT ->
    hint multiply-accumulate -> ModDown back to the input basis.
    Returns (ks0, ks1) with ks0 + ks1*s_new ~= poly * s_old.
    """
    check_special_basis(hint, aux_basis)
    with obs.span("keyswitch.boosted", "fhe"):
        obs.count("fhe.keyswitch.boosted")
        q_level = poly.basis
        target = q_level.extend(aux_basis)
        acc = multiply_accumulate(
            mod_up(poly, hint.alpha, target), hint, target)
        ks0, ks1 = mod_down_pair(acc, q_level, aux_basis)
        # The keyswitch working set displaces register-file residents: let
        # an installed integrity boundary hook sweep the evictees' seals.
        _guards.keyswitch_boundary()
        return ks0, ks1


def standard_keyswitch(
    poly: RnsPoly, hint: KeySwitchHint
) -> tuple[RnsPoly, RnsPoly]:
    """Standard (BV, per-prime digit) keyswitching, as F1 performs it.

    No special basis and no ModDown; every RNS prime is its own digit, so
    applying the hint costs L^2 NTTs (each digit is base-converted to all L
    primes) - the scaling wall that motivates the boosted algorithm.
    """
    if hint.aux_count != 0:
        raise ParameterError(
            "hint was generated with a special basis; use boosted",
            hint_aux=hint.aux_count,
        )
    with obs.span("keyswitch.standard", "fhe"):
        obs.count("fhe.keyswitch.standard")
        q_level = poly.basis
        acc = multiply_accumulate(
            mod_up(poly, hint.alpha, q_level), hint, q_level)
        _guards.keyswitch_boundary()
        return RnsPoly(q_level, acc[0], EVAL), RnsPoly(q_level, acc[1], EVAL)
