"""Residue number system (RNS) bases and base conversion.

A ciphertext modulus Q = q_1 * ... * q_L is represented by the tuple of
28-bit primes; a wide coefficient x mod Q is stored as its residues
(x mod q_1, ..., x mod q_L).  The key kernel of boosted keyswitching is
``changeRNSBase`` (Listing 1 of the paper): re-expressing residues in a
different basis using only multiply-accumulate operations.  CraterLake's CRB
unit spatially unrolls exactly the loop nest implemented here.

:meth:`RnsBasis.convert_approx` is the fast (HPS-style) conversion used
inside keyswitching.  It computes
``y_j = sum_i [x_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i) mod p_j`` which equals
``x + a*Q (mod p_j)`` for a small integer ``a < L``.  The extra multiple of
Q is absorbed by CKKS noise, exactly as in HEAAN/Lattigo/SEAL.  Exact
conversion (CRT reconstruction through Python big integers) is a test
oracle in ``tests/fhe/oracles.py``; the library only reconstructs wide
integers through :meth:`RnsBasis.to_integers`.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.obs import collector as obs
from repro.reliability.errors import NoiseBudgetExhaustedError, ParameterError


class _ConversionTables(NamedTuple):
    """Everything ``convert_approx`` needs for one (source, dest) pair."""

    constants: np.ndarray      # C[src][dest] = (Q/q_src) mod p_dest
    src_col: np.ndarray        # source moduli, (L, 1) uint64
    q_hat_inv_col: np.ndarray  # (Q/q_i)^{-1} mod q_i, (L, 1) uint64
    src_f64_col: np.ndarray    # source moduli, (L, 1) float64
    dest_col: np.ndarray       # dest moduli, (L', 1) uint64
    neg_qmod_col: np.ndarray   # -Q mod p_j, (L', 1) uint64
    halves: np.ndarray         # C^T's 16-bit halves, hi over lo: (2L', L) float64


#: Source limbs one float64 MAC may sum: each term is a 16-bit constant
#: half times a residue below 2^31, so below 2^47, and 64 of them sum
#: below 2^53 - exact in float64.  Larger sources are summed in chunks.
_MAC_LIMBS = 64


class RnsBasis:
    """An ordered tuple of coprime NTT-friendly moduli.

    Bases are interned per moduli tuple: ``RnsBasis(moduli)``, slices,
    :meth:`extend` and :meth:`drop_last` all return the one instance for
    those moduli, so its cached columns, scalar inverses and conversion
    tables are built once per process, not once per derived basis.
    Instances are immutable.
    """

    _interned: dict[tuple[int, ...], "RnsBasis"] = {}

    def __new__(cls, moduli):
        if type(moduli) is tuple:
            basis = cls._interned.get(moduli)
            if basis is not None:
                return basis
        moduli = tuple(int(q) for q in moduli)
        basis = cls._interned.get(moduli)
        if basis is not None:
            return basis
        if not moduli:
            raise ParameterError("an RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ParameterError("moduli must be distinct")
        basis = super().__new__(cls)
        basis.moduli = moduli
        # ARK-style reuse caches: scalar-inverse columns and the
        # changeRNSBase tables are pure functions of the basis, so they
        # are computed once per (basis, value) and replayed on every
        # keyswitch.
        basis._inv_cache = {}
        basis._tables = {}
        cls._interned[moduli] = basis
        return basis

    def __reduce__(self):
        return RnsBasis, (self.moduli,)

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __getitem__(self, idx):
        got = self.moduli[idx]
        return RnsBasis(got) if isinstance(idx, slice) else got

    def __eq__(self, other) -> bool:
        return isinstance(other, RnsBasis) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"RnsBasis(L={len(self)}, log_q={self.log_modulus:.1f})"

    @cached_property
    def modulus(self) -> int:
        """The wide modulus Q as a Python integer."""
        q = 1
        for qi in self.moduli:
            q *= qi
        return q

    @cached_property
    def log_modulus(self) -> float:
        """log2(Q); the quantity that, with N, determines security."""
        return float(sum(np.log2(q) for q in self.moduli))

    @cached_property
    def _q_hats(self) -> tuple[int, ...]:
        """Q / q_i for each i (big integers)."""
        q = self.modulus
        return tuple(q // qi for qi in self.moduli)

    @cached_property
    def _q_hat_invs(self) -> tuple[int, ...]:
        """(Q / q_i)^{-1} mod q_i for each i."""
        return tuple(
            pow(h % qi, qi - 2, qi) for h, qi in zip(self._q_hats, self.moduli)
        )

    @cached_property
    def moduli_col(self) -> np.ndarray:
        """The moduli as a (L, 1) uint64 column, for limb-stacked kernels."""
        return np.array(self.moduli, dtype=np.uint64)[:, None]

    @cached_property
    def _q_hat_inv_col(self) -> np.ndarray:
        """(Q/q_i)^{-1} mod q_i as a (L, 1) uint64 column."""
        return np.array(self._q_hat_invs, dtype=np.uint64)[:, None]

    @cached_property
    def rescale_inv_col(self) -> np.ndarray:
        """q_last^{-1} mod q_i for i < L-1, as a (L-1, 1) column.

        The per-limb constant the CKKS rescale multiplies by; computed once
        per basis instead of one Python ``pow()`` per limb per rescale.
        """
        q_last = self.moduli[-1]
        return np.array(
            [pow(q_last % qi, qi - 2, qi) for qi in self.moduli[:-1]],
            dtype=np.uint64,
        )[:, None]

    def scalar_inverse_col(self, value: int) -> np.ndarray:
        """``value^{-1} mod q_i`` for every limb, as a cached (L, 1) column.

        Used by ModDown (P^{-1} over Q) and any other per-limb scalar
        division; keyed by ``value`` so repeated keyswitches reuse it.
        """
        col = self._inv_cache.get(value)
        if col is None:
            col = np.array(
                [pow(value % qi, qi - 2, qi) for qi in self.moduli],
                dtype=np.uint64,
            )[:, None]
            self._inv_cache[value] = col
        return col

    def scalar_residue_col(self, value: int) -> np.ndarray:
        """``value mod q_i`` for every limb, as a (L, 1) uint64 column."""
        return np.array([value % qi for qi in self.moduli],
                        dtype=np.uint64)[:, None]

    def extend(self, other: "RnsBasis") -> "RnsBasis":
        overlap = set(self.moduli) & set(other.moduli)
        if overlap:
            raise ParameterError(f"bases share moduli {sorted(overlap)}")
        return RnsBasis(self.moduli + other.moduli)

    def drop_last(self, count: int = 1) -> "RnsBasis":
        if count >= len(self):
            raise NoiseBudgetExhaustedError(
                "cannot drop every modulus", level=len(self), dropping=count)
        return RnsBasis(self.moduli[: len(self) - count])

    # ------------------------------------------------------------------
    # Residue <-> integer conversions (exact, big-int; used at the edges).
    # ------------------------------------------------------------------

    def to_residues(self, values) -> np.ndarray:
        """Integers (any size, possibly negative) -> residue matrix (L, N).

        Machine-width integer input (the common case: encoder output,
        error/secret samples) is reduced for all limbs in one broadcast
        modulo; arbitrary-precision input falls back to per-limb big-int
        reduction.
        """
        if isinstance(values, np.ndarray):
            # Only a caller-built ndarray takes the vectorized path: the
            # caller chose the dtype, so it is trusted to be lossless.
            # (np.asarray on a plain list of large Python ints silently
            # promotes to float64 or wraps through int64 - lists always
            # go through the exact big-int loop below.)
            if np.issubdtype(values.dtype, np.unsignedinteger):
                # Non-negative by construction: broadcast modulo in uint64.
                return values[None, :].astype(np.uint64) % self.moduli_col
            if np.issubdtype(values.dtype, np.signedinteger):
                # Broadcast (1, N) % (L, 1): numpy's % matches Python's
                # sign convention, so negatives land in [0, q) as required.
                cols = self.moduli_col.astype(np.int64)
                return (values[None, :].astype(np.int64) % cols).astype(np.uint64)
        vals = np.asarray(values, dtype=object)
        out = np.empty((len(self), vals.shape[0]), dtype=np.uint64)
        for i, qi in enumerate(self.moduli):
            out[i] = (vals % qi).astype(np.uint64)
        return out

    def to_integers(self, residues: np.ndarray, centered: bool = True) -> np.ndarray:
        """Residue matrix (L, N) -> object array of integers via CRT.

        With ``centered`` the result is lifted to (-Q/2, Q/2], which is how
        decryption recovers signed plaintext coefficients.
        """
        q = self.modulus
        acc = np.zeros(residues.shape[1], dtype=object)
        for i in range(len(self)):
            weight = self._q_hats[i] * self._q_hat_invs[i] % q
            acc = (acc + residues[i].astype(object) * weight) % q
        if centered:
            half = q // 2
            acc = np.where(acc > half, acc - q, acc)
        return acc

    # ------------------------------------------------------------------
    # Fast base conversion: the changeRNSBase kernel (Listing 1).
    # ------------------------------------------------------------------

    def conversion_constants(self, dest: "RnsBasis") -> np.ndarray:
        """The constant matrix C[src][dest] = (Q/q_src) mod p_dest.

        These are exactly the ``constant[srcModIdx][destModIdx]`` values that
        Listing 1's changeRNSBase multiplies by, and the values held in the
        CRB unit's constant registers - which is also why the matrix is
        cached per (source, destination) pair: the registers are loaded
        once and reused across every keyswitch at this level.
        """
        return self._conversion_tables(dest).constants

    def _conversion_tables(self, dest: "RnsBasis") -> _ConversionTables:
        """The changeRNSBase tables for ``self -> dest``, cached on the
        (interned) source basis per destination basis."""
        cached = self._tables.get(dest)
        if cached is not None:
            obs.count("fhe.cache.conversion.hit")
            return cached
        obs.count("fhe.cache.conversion.miss")
        c = np.empty((len(self), len(dest)), dtype=np.uint64)
        for i, q_hat in enumerate(self._q_hats):
            for j, pj in enumerate(dest.moduli):
                c[i, j] = q_hat % pj
        neg_qmod_col = np.array(
            [-self.modulus % pj for pj in dest.moduli], dtype=np.uint64
        )[:, None]
        # 16-bit halves of the transposed constant matrix, the high
        # halves' rows stacked over the low halves': one float64 matmul
        # in convert_approx yields both partial dot products.
        c_t = c.T
        halves = np.concatenate([c_t >> np.uint64(16),
                                 c_t & np.uint64(0xFFFF)]).astype(np.float64)
        tables = _ConversionTables(
            c, self.moduli_col, self._q_hat_inv_col,
            self.moduli_col.astype(np.float64), dest.moduli_col,
            neg_qmod_col, halves)
        self._tables[dest] = tables
        return tables

    def convert_approx(
        self, residues: np.ndarray, dest: "RnsBasis", correct: bool = True
    ) -> np.ndarray:
        """Fast base conversion of (..., L, N) residues into basis ``dest``.

        Structure mirrors Listing 1: scale each source residue by
        (Q/q_i)^{-1} mod q_i, then multiply-accumulate rows against the
        constant matrix.  The accumulation over source moduli is what the
        CRB unit buffers on chip.  Leading axes batch independent
        polynomials through the same MAC (both keyswitch accumulators in
        one ModDown), with an (..., L', N) result.

        With ``correct`` (the HPS floating-point trick used by production
        RNS implementations), the integer overflow count
        v = round(sum_i scaled_i / q_i) is estimated in double precision
        and v*Q subtracted, so the result is x + a*Q with |a| <= 1 instead
        of 0 <= a < L - an order-of-magnitude keyswitch-noise reduction.
        """
        if residues.ndim < 2 or residues.shape[-2] != len(self):
            raise ParameterError(
                "residue count does not match basis size",
                shape=residues.shape, basis=len(self),
            )
        t = self._conversion_tables(dest)
        # Limb-batched scaling: one broadcast multiply for all source rows.
        scaled = (residues * t.q_hat_inv_col % t.src_col).astype(np.float64)
        # Division-free MAC over every destination modulus at once: the
        # constants' 16-bit halves against the scaled residues, one float64
        # BLAS matmul per chunk of _MAC_LIMBS source limbs.  Each partial
        # sum is an integer below 2^53, hence exact, and chunks add in
        # uint64.  Exact integer arithmetic ends at the same canonical
        # residue, so the result is bit-identical to the per-term-reduced
        # kernel.
        mac = None
        for start in range(0, len(self), _MAC_LIMBS):
            stop = start + _MAC_LIMBS
            part = np.matmul(t.halves[:, start:stop],
                             scaled[..., start:stop, :]).astype(np.uint64)
            mac = part if mac is None else mac + part
        rows = len(dest)
        hi, lo = mac[..., :rows, :], mac[..., rows:, :]
        if correct:
            # Summation order affects the final ulp, and the rounded
            # overflow estimate must match the row-by-row float loop
            # (0.0 + row_0 + row_1 + ...) bit for bit.  A reduction over
            # the limb axis of a C-contiguous tensor with two or more
            # columns adds whole rows in exactly that order (pairwise
            # summation only applies along the contiguous axis, which a
            # single column would collapse into), so one pass gives the
            # same sum.
            fraction = (scaled / t.src_f64_col).sum(axis=-2)
            overflow = np.rint(fraction).astype(np.uint64)
            # Subtract v*Q inside the same MAC: v <= L and -Q mod p_j <
            # 2^31, so the extra term keeps the low sum exact in uint64.
            lo += t.neg_qmod_col * overflow[..., None, :]
        return ((hi % t.dest_col << np.uint64(16)) + lo) % t.dest_col
