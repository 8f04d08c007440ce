"""Hoisted rotations: many rotations of one ciphertext for the price of
one decomposition.

The dominant cost of a rotation's keyswitch is the ModUp of the input
(INTT + changeRNSBase + NTT of the c1 polynomial).  When the *same*
ciphertext is rotated by many different amounts — every BSGS baby step,
every bootstrapping transform stage — that work is identical across
rotations and can be done once ("hoisted") before the per-rotation
automorphism + hint multiply.  Halevi-Shoup introduced the trick; the
paper's compiler applies it inside its keyswitch pipelines (Sec. 3,
Listing 1).

:class:`HoistedRotator` runs the keyswitch's own kernels: it raises c1
once with :func:`~repro.fhe.keyswitch.mod_up`, keeping the raised digits
in the EVAL domain.  The automorphism phi_k commutes with the RNS digit
split (the split is coefficient-wise) and, in the EVAL domain, is a pure
permutation of the evaluation points, so each rotation permutes the
raised digits (:func:`~repro.fhe.ntt.eval_automorphism_permutation`),
multiplies them against its hint
(:func:`~repro.fhe.keyswitch.multiply_accumulate`) and divides by P
(:func:`~repro.fhe.keyswitch.mod_down_pair`) - no other transform.  NTT
accounting matches the cost model exactly: k rotations cost one ModUp
prefix plus k remainders of
:func:`~repro.core.cost.boosted_keyswitch_cost`.
"""

from __future__ import annotations

import numpy as np

from repro.fhe.ckks import Ciphertext, CkksContext
from repro.fhe.keyswitch import (
    KeySwitchHint,
    check_special_basis,
    mod_down_pair,
    mod_up,
    multiply_accumulate,
)
from repro.fhe.ntt import eval_automorphism_permutation
from repro.reliability.checksums import limb_checksums, verify_limbs
from repro.reliability.errors import ParameterError


class HoistedRotator:
    """Precomputes the ModUp of a ciphertext's c1 for reuse across rotations.

    Usage::

        rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
        for steps, hint in rotation_plan:
            out = rotator.rotate(steps, hint)

    ``raised_digits`` holds one EVAL-domain (L + alpha, N) residue matrix
    per digit.  When the context's reliability policy asks for
    checksums, they are sealed at construction and re-verified on every
    :meth:`rotate` - they are the hoisted equivalent of an operand
    ciphertext, and a limb fault in them would otherwise silently poison
    *every* rotation of the group.
    """

    def __init__(self, ctx: CkksContext, ct: Ciphertext, alpha: int):
        if alpha < 1:
            raise ParameterError("alpha must be >= 1", alpha=alpha)
        if alpha > len(ctx.aux_basis):
            raise ParameterError(
                f"alpha={alpha} exceeds the special basis: "
                f"context has {len(ctx.aux_basis)} auxiliary primes",
                alpha=alpha,
            )
        self.ctx = ctx
        self.ct = ct
        self.alpha = alpha
        aux = ctx.aux_basis[:alpha] if alpha < len(ctx.aux_basis) else ctx.aux_basis
        self.aux = aux
        self.target = ct.basis.extend(aux)
        if ctx.policy.checksums:
            ctx.verify_integrity(ct, "hoist source")
        self.raised_digits = list(mod_up(ct.c1, alpha, self.target))
        # Seal carry through the hoist: checksum each raised digit once;
        # every rotation re-verifies before consuming the shared digits.
        self.integrity: list[np.ndarray] | None = None
        if ctx.policy.checksums:
            self.integrity = [limb_checksums(d, self.target.moduli_col)
                              for d in self.raised_digits]

    def verify_integrity(self) -> None:
        """Check the sealed raised digits; raises FaultDetectedError."""
        if self.integrity is None:
            return
        for i, (digit, reference) in enumerate(
                zip(self.raised_digits, self.integrity)):
            verify_limbs(digit, self.target.moduli_col, reference,
                         f"hoisted raised digit {i}")

    def rotate(self, steps: int, hint: KeySwitchHint) -> Ciphertext:
        """One rotation using the shared decomposition: permute the raised
        digits, multiply-accumulate against ``hint``, ModDown."""
        check_special_basis(hint, self.aux)
        ctx = self.ctx
        self.verify_integrity()
        k = ctx.rotation_exponent(steps)
        perm = eval_automorphism_permutation(self.ct.degree, k)
        acc = multiply_accumulate(
            (d.take(perm, axis=1) for d in self.raised_digits),
            hint, self.target)
        ks0, ks1 = mod_down_pair(acc, self.ct.basis, self.aux)
        c0 = self.ct.c0.automorphism(k)
        return ctx.seal(Ciphertext(c0 + ks0, ks1, self.ct.scale))


def hoisted_rotations(
    ctx: CkksContext,
    ct: Ciphertext,
    plan: dict[int, KeySwitchHint],
) -> dict[int, Ciphertext]:
    """Rotate ``ct`` by every step in ``plan`` with one shared ModUp."""
    if not plan:
        return {}
    alpha = next(iter(plan.values())).alpha
    rotator = HoistedRotator(ctx, ct, alpha)
    return {steps: rotator.rotate(steps, hint)
            for steps, hint in plan.items()}


def hoisting_savings(level: int, digits: int, rotations: int) -> float:
    """NTT-pass ratio: k separate rotations vs one hoisted group.

    A fused t-digit keyswitch at level L runs ``L + tL + 2a + 2L`` NTT
    passes (ModUp INTT + raise, then ModDown; a = ceil(L/t)).  Hoisting
    runs the ModUp prefix ``L + tL`` once and the per-rotation remainder
    ``2a + 2L`` k times, so the closed form this function returns is::

        separate(L, t, k) = k * (L + t*L + 2*a + 2*L)
        hoisted(L, t, k)  = (L + t*L) + k * (2*a + 2*L)
        ratio = separate / hoisted

    These counts are exactly the cost model's NTT element counts divided
    by N (:func:`repro.core.cost.boosted_keyswitch_cost`'s ModUp prefix
    plus k times its remainder, against k times the fused keyswitch
    inside a rotate), a correspondence the property suite sweeps in
    ``tests/fhe/test_hoisting.py``.  For t = 1 the ratio
    approaches 6L / 4L = 1.5 as k grows; at k = 1 it is exactly 1 (the
    split is an exact complement, hoisting a singleton is break-even).
    """
    ell = level
    alpha = -(-ell // digits)
    separate = rotations * (ell + digits * ell + 2 * alpha + 2 * ell)
    hoisted = (ell + digits * ell) + rotations * (2 * alpha + 2 * ell)
    return separate / hoisted
