"""Fully packed CKKS bootstrapping: the enabler of unbounded computation.

A ciphertext that has spent its multiplicative budget (level 1) is refreshed
to a high level without decryption, following the standard CKKS recipe the
paper's benchmarks use (Sec. 8, [11, 14, 53]):

1. **ModRaise** - reinterpret the level-1 ciphertext over the full modulus
   chain.  The underlying plaintext becomes m + q1*I for a small integer
   polynomial I.
2. **CoeffToSlot** - a homomorphic real-linear transform moving the N
   coefficients into the N/2 complex slots (packed as a_j + i*a_{n+j}),
   implemented with BSGS diagonal multiplication (`repro.fhe.linear`).
   The transform also folds in the division by 2^r that EvalMod needs.
3. **EvalMod** - remove the q1*I term by evaluating x mod q1 ~
   (q1/2pi)*sin(2pi x/q1) per slot: a Taylor polynomial of the complex
   exponential at x/2^r, then r repeated squarings, then Im() extraction
   by conjugation.
4. **SlotToCoeff** - the inverse transform back to coefficient packing.

The result encrypts the original message at a high level again; Fig. 2 of
the paper is exactly this refresh.  The paper's production configuration
decomposes CoeffToSlot/SlotToCoeff into FFT-like sparse factors (4x4 tiles)
for on-chip reuse; functionally we apply the dense transforms (one level
each), which computes the same map - the factored op counts live in the
workload generators where performance is modeled.

Precision at 28-bit toy scales: keyswitch noise entering the EvalMod input
is amplified by 2pi*2^r, so the configuration keeps r small (a high-degree
Taylor polynomial absorbs the larger argument) and CoeffToSlot runs with
many baby steps (giant-step rotation noise is the unattenuated term) - the
same tradeoffs real implementations tune, at a different operating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial, log2, pi

import numpy as np

from repro.fhe.ckks import Ciphertext, CkksContext, Plaintext, SecretKey
from repro.fhe.linear import RealLinearTransform
from repro.fhe.poly import EVAL, RnsPoly
from repro.fhe.polyeval import evaluate_polynomial, mul_rescale
from repro.obs import collector as obs
from repro.reliability.errors import LevelMismatchError


@dataclass(frozen=True)
class BootstrapConfig:
    """Precision/level knobs for bootstrapping.

    ``range_bound`` K bounds |I| (+ message) in the raised plaintext; the
    squaring count is then r = ceil(log2(2*pi*K / max_arg)), keeping the
    Taylor argument below ``max_arg`` where the degree-``taylor_degree``
    series of exp is accurate.  ``None`` derives K from the secret key's
    Hamming weight (6 sigma of the I distribution) - the reason sparse keys
    make bootstrapping cheaper, and why the paper's use of *non-sparse*
    keys (with more levels) is a quality statement.
    """

    taylor_degree: int = 63
    max_arg: float = 8.0
    range_bound: int | None = None
    message_ratio: float = 32.0  # required q1 / |m| headroom of inputs
    cts_baby_steps: int | None = None  # None: slots/8 (noise-critical)


class Bootstrapper:
    """Owns the transforms and keyswitch hints bootstrapping needs.

    Building one is expensive (two dense real-linear transforms and a few
    dozen rotation hints) and done once per context+key, exactly like the
    one-time keyswitch-hint generation a real deployment performs.
    """

    def __init__(self, ctx: CkksContext, sk: SecretKey,
                 config: BootstrapConfig = BootstrapConfig()):
        self.ctx = ctx
        self.config = config
        n = ctx.params.slots
        degree = ctx.params.degree
        encoder = ctx.encoder

        hamming = ctx.params.secret_hamming
        weight = hamming if hamming is not None else 2 * degree // 3
        if config.range_bound is not None:
            self.range_bound = config.range_bound
        else:
            self.range_bound = max(8, ceil(6.0 * np.sqrt(weight / 12.0)))
        self.squarings = max(
            0, ceil(log2(2 * pi * self.range_bound / config.max_arg))
        )

        def cts_fn(z):
            # slots (evaluations) -> packed coefficients a_j + i*a_{j+n}.
            # The divisions EvalMod needs (by 2^r for the Taylor argument,
            # by 2 for the conjugation split) are NOT folded in here: they
            # are applied afterwards as a free scale redeclaration, which
            # divides the transform's own noise along with the signal and
            # thus cancels the 2^r noise amplification of the squarings.
            a = encoder.unembed(z)
            return a[:n] + 1j * a[n:]

        def stc_fn(v):
            # EvalMod leaves slots 4*pi*i*(eps_re + i*eps_im); invert that
            # constant (complex-linear, so it composes), unpack, re-embed.
            w = v / (4j * pi)
            coeffs = np.concatenate([w.real, w.imag])
            return encoder.embed(coeffs)

        cts_babies = config.cts_baby_steps
        if cts_babies is None:
            cts_babies = max(16, n // 8)
        self.coeff_to_slot = RealLinearTransform(ctx, cts_fn,
                                                 baby_steps=cts_babies)
        self.slot_to_coeff = RealLinearTransform(ctx, stc_fn)

        rotations = (
            self.coeff_to_slot.required_rotations()
            | self.slot_to_coeff.required_rotations()
        )
        self.rotation_hints = {
            r: ctx.rotation_hint(sk, r) for r in sorted(rotations)
        }
        self.conj_hint = ctx.conjugation_hint(sk)
        self.relin_hint = ctx.relin_hint(sk)

        # Monomial x^(N/2) multiplies every slot by i, exactly and for free.
        mono = np.zeros(degree, dtype=np.int64)
        mono[degree // 2] = 1
        self._imag_unit_coeffs = mono

    # -- accounting ---------------------------------------------------------

    def levels_consumed(self) -> int:
        """Levels burned per bootstrap: CtS + exp eval + squarings + StC."""
        exp_depth = ceil(log2(self.config.taylor_degree + 1)) + 2
        return 1 + 1 + exp_depth + self.squarings + 1  # CtS, divide, exp, sq, StC

    # -- stages --------------------------------------------------------------

    def _multiply_by_i(self, ct: Ciphertext) -> Ciphertext:
        poly = RnsPoly.from_integers(ct.basis, self._imag_unit_coeffs, EVAL)
        return self.ctx.mul_plain(ct, Plaintext(poly, 1.0))

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a level-1 ciphertext over the full chain.

        Declared scale becomes q1, so downstream slots read eps + I where
        eps = m/q1 is the (small) message and I the integer overflow.
        """
        ctx = self.ctx
        if ct.level != 1:
            raise LevelMismatchError(
                "mod_raise expects a fully depleted (L=1) input",
                level=ct.level,
            )
        full = ctx.basis_at(ctx.params.max_level)
        q1 = ct.basis.moduli[0]

        def raise_poly(poly: RnsPoly) -> RnsPoly:
            coeffs = poly.to_coeff().data[0].astype(np.int64)
            centered = coeffs - np.int64(q1) * (coeffs > np.uint64(q1 // 2))
            return RnsPoly.from_integers(full, centered, EVAL)

        return Ciphertext(raise_poly(ct.c0), raise_poly(ct.c1), float(q1))

    def _eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """sin-based modular reduction; input slots (eps + I)/2^r, real.

        Returns slots ~ 4*pi*i*eps (constant folded into SlotToCoeff).
        """
        ctx = self.ctx
        d = self.config.taylor_degree
        coeffs = [(2j * pi) ** k / factorial(k) for k in range(d + 1)]
        exp_ct = evaluate_polynomial(ctx, ct, coeffs, self.relin_hint)
        for _ in range(self.squarings):
            exp_ct = mul_rescale(ctx, exp_ct, exp_ct, self.relin_hint)
        # Im extraction: z - conj(z) = 2i sin(2 pi eps) ~= 4 pi i eps.
        return ctx.sub(exp_ct, ctx.conjugate(exp_ct, self.conj_hint))

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh a depleted ciphertext; see module docstring for stages."""
        with obs.span("fhe.bootstrap", "fhe"):
            obs.count("fhe.bootstrap")
            return self._bootstrap(ct)

    def _bootstrap(self, ct: Ciphertext) -> Ciphertext:
        ctx = self.ctx
        input_scale = ct.scale
        q1 = float(ct.basis.moduli[0])
        work_scale = ctx.default_scale
        raised = self.mod_raise(ct)

        packed = self.coeff_to_slot.apply(
            raised, self.rotation_hints, self.conj_hint, result_scale=work_scale
        )
        # Divide by 2*2^r with one plaintext multiply (costs a level): the
        # transform's noise shrinks together with the signal, so it escapes
        # the 2^r noise amplification of the squarings (see cts_fn note).
        packed = ctx.pmult(
            packed, [1.0 / (2.0 * 2.0**self.squarings)], work_scale
        )
        # Split packed slots a_j + i*a_{j+n} into two real-slotted cts:
        # z + conj(z) = 2 Re(z);  i*(conj(z) - z) = 2 Im(z).
        conj_packed = ctx.conjugate(packed, self.conj_hint)
        real_part = ctx.add(packed, conj_packed)
        imag_part = self._multiply_by_i(ctx.sub(conj_packed, packed))

        real_mod = self._eval_mod(real_part)
        imag_mod = self._eval_mod(imag_part)
        recombined = ctx.add(real_mod, self._multiply_by_i(imag_mod))

        refreshed = self.slot_to_coeff.apply(
            recombined, self.rotation_hints, self.conj_hint,
            result_scale=recombined.scale,
        )
        # Output plaintext is m/q1 at the working scale; declare the
        # composite so decryption sees the original values.
        refreshed.scale = refreshed.scale * input_scale / q1
        return refreshed
