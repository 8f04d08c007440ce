"""Per-limb modular checksums: cheap corruption detection for RNS data.

An RNS polynomial is a matrix of residue rows ("limbs"); the checksum of
limb i is the sum of its N residue words mod q_i.  Summing uint64 words
whose values are < 2^31 keeps the accumulator exact up to N = 2^33, and a
single corrupted word (any bit flip below the modulus width) changes its
row sum by a nonzero delta mod q_i - so per-word corruption is detected
with certainty, at the cost of one vector add per limb.  This is the
software analogue of the residue-checksum spot checks a hardened
accelerator would run where data crosses a trust boundary: here, at
keyswitch boundaries (`repro.fhe.keyswitch`) and on sealed ciphertexts
(`repro.fhe.ckks` with ``ReliabilityPolicy.checksums``).

The functions take raw ``(L, N)`` residue matrices plus their moduli so
that this module depends on nothing above numpy (the fhe layer imports
it, not the other way around).
"""

from __future__ import annotations

import numpy as np

from repro.obs import collector as obs


def limb_checksums(data: np.ndarray, moduli) -> np.ndarray:
    """Per-limb checksums: ``sum(row) mod q_i``, shape (..., L).

    ``data`` is an (L, N) uint64 residue matrix, or several stacked on
    leading axes; ``moduli`` the L moduli as an array-like (an
    ``RnsBasis.moduli_col`` passes through without a copy).  Exact for
    residues < 2^31 and N <= 2^33.
    """
    sums = data.sum(axis=-1, dtype=np.uint64)
    return sums % np.asarray(moduli, dtype=np.uint64).reshape(-1)


def pair_checksums(first: np.ndarray, second: np.ndarray,
                   moduli) -> np.ndarray:
    """:func:`limb_checksums` of two same-basis (L, N) matrices (a
    ciphertext's halves) as one (2, L) array, without stacking them."""
    sums = np.empty((2, first.shape[0]), dtype=np.uint64)
    np.add.reduce(first, axis=-1, out=sums[0])
    np.add.reduce(second, axis=-1, out=sums[1])
    sums %= np.asarray(moduli, dtype=np.uint64).reshape(-1)
    return sums


def mismatched_limbs(data: np.ndarray, moduli,
                     reference: np.ndarray) -> list[int]:
    """Indices of limbs whose current checksum differs from ``reference``."""
    current = limb_checksums(data, moduli)
    return [int(i) for i in np.nonzero(current != reference)[0]]


def verify_limbs(data: np.ndarray, moduli, reference: np.ndarray,
                 what: str = "rns data") -> None:
    """Raise :class:`FaultDetectedError` if any limb checksum mismatches.

    Emits ``reliability.checksum.verified`` / ``.mismatch`` counters so
    fault-injection campaigns can measure detection rates and clean runs
    can prove zero false positives.
    """
    from repro.reliability.errors import FaultDetectedError

    bad = mismatched_limbs(data, moduli, reference)
    if bad:
        obs.count("reliability.checksum.mismatch")
        raise FaultDetectedError(
            f"limb checksum mismatch in {what}", limbs=bad,
        )
    obs.count("reliability.checksum.verified")
