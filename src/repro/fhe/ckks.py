"""The CKKS scheme: keys, encryption, and homomorphic evaluation.

This module ties the substrate together into the FHE interface of Sec. 2.1:
element-wise addition, element-wise multiplication, and slot rotations over
encrypted complex vectors, with rescaling and level management.  All
parameters follow the paper's conventions: 28-bit RNS moduli, boosted
t-digit keyswitching with seeded hints, dense or sparse ternary secrets.

The scheme is exact about its own bookkeeping (levels, scales, bases) and
approximate about values, as CKKS is by construction.  Every
ciphertext-consuming operation guards its invariants through
`repro.reliability.guards`, raising typed errors
(:class:`LevelMismatchError`, :class:`ScaleMismatchError`,
:class:`NoiseBudgetExhaustedError`) instead of silently producing garbage.
A context built with a ``ReliabilityPolicy`` in ``"degrade"`` mode repairs
what it can: operands whose scale outgrew the canonical ~q get a rescale
auto-inserted, and an op that needs levels the ciphertext no longer has
triggers an automatic bootstrap (see :meth:`CkksContext.set_bootstrapper`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2

import numpy as np

from repro.fhe.encoder import CkksEncoder
from repro.fhe.keyswitch import (
    KeySwitchHint,
    boosted_keyswitch,
    generate_hint,
    standard_keyswitch,
)
from repro.fhe.poly import EVAL, RnsPoly, batch_rescale
from repro.fhe.primes import find_ntt_primes
from repro.fhe.rns import RnsBasis
from repro.fhe.sampling import (
    ERROR_SIGMA,
    error_poly,
    ternary_secret,
)
from repro.obs import collector as obs
from repro.reliability.checksums import (
    limb_checksums,
    pair_checksums,
    verify_limbs,
)
from repro.reliability.errors import (
    FaultDetectedError,
    LevelMismatchError,
    NoiseBudgetExhaustedError,
    ParameterError,
)
from repro.reliability.guards import (
    ReliabilityPolicy,
    check_min_level,
    check_same_basis,
    check_scale_match,
)

# Relative scale mismatch allowed when adding.  Evaluation code keeps scales
# aligned *exactly* via scale-targeted plaintext encoding (see ``pmult``), so
# this tolerance only absorbs float64 round-off in the bookkeeping.
_SCALE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CkksParams:
    """Static parameters of a CKKS instantiation.

    ``max_level`` is the paper's L_max (number of 28-bit primes in the full
    chain) and ``aux_level`` the size of the special basis P used by boosted
    keyswitching.  ``digits`` is the default keyswitching digit count t;
    t=1 with aux_level == max_level reproduces Listing 1 exactly, and the
    general t matches Sec. 3.1 (hint of t+1 ciphertexts, modulus expansion
    (t+1)/t).
    """

    degree: int = 2048
    max_level: int = 8
    aux_level: int | None = None
    modulus_bits: int = 28
    digits: int = 1
    error_sigma: float = ERROR_SIGMA
    secret_hamming: int | None = None
    seed: int = 2022

    def __post_init__(self):
        if self.degree & (self.degree - 1):
            raise ParameterError("degree must be a power of two",
                                 degree=self.degree)
        if self.max_level < 1:
            raise ParameterError("need at least one modulus",
                                 max_level=self.max_level)
        if self.digits < 1 or self.digits > self.max_level:
            raise ParameterError("digits must be in [1, max_level]",
                                 digits=self.digits,
                                 max_level=self.max_level)
        aux = self.aux_level
        if aux is None:
            aux = -(-self.max_level // self.digits)  # ceil
            object.__setattr__(self, "aux_level", aux)
        if aux < 1:
            raise ParameterError("special basis needs at least one prime",
                                 aux_level=aux)

    @property
    def alpha(self) -> int:
        """Digit width in primes: ceil(L_max / t)."""
        return -(-self.max_level // self.digits)

    @property
    def slots(self) -> int:
        return self.degree // 2


class Plaintext:
    """An encoded (unencrypted) polynomial with its scale."""

    def __init__(self, poly: RnsPoly, scale: float):
        self.poly = poly
        self.scale = scale

    @property
    def level(self) -> int:
        return self.poly.level


class Ciphertext:
    """A CKKS ciphertext (c0, c1) with scale and level bookkeeping.

    Decrypts to c0 + c1*s.  ``level`` equals the number of live RNS primes,
    the paper's remaining multiplicative budget L.  ``budget`` carries the
    live worst-case :class:`~repro.fhe.noise.NoiseBudget` when the owning
    context tracks noise; ``integrity`` the per-limb checksums of (c0, c1)
    when the context seals ciphertexts (`repro.reliability.checksums`).
    """

    def __init__(self, c0: RnsPoly, c1: RnsPoly, scale: float,
                 budget=None, integrity=None):
        if c0.basis != c1.basis:
            raise LevelMismatchError(
                "ciphertext halves disagree on basis",
                c0_level=c0.level, c1_level=c1.level,
            )
        self.c0 = c0
        self.c1 = c1
        self.scale = scale
        self.budget = budget
        self.integrity = integrity

    @property
    def level(self) -> int:
        return self.c0.level

    @property
    def basis(self) -> RnsBasis:
        return self.c0.basis

    @property
    def degree(self) -> int:
        return self.c0.degree

    def copy(self) -> "Ciphertext":
        budget = self.budget.clone() if self.budget is not None else None
        return Ciphertext(self.c0.copy(), self.c1.copy(), self.scale,
                          budget=budget, integrity=self.integrity)

    def __repr__(self) -> str:
        return (
            f"Ciphertext(N={self.degree}, L={self.level}, "
            f"log_scale={np.log2(self.scale):.1f})"
        )

    def size_words(self) -> int:
        """Residue words occupied: 2 polynomials of L residues each."""
        return 2 * self.level * self.degree


@dataclass
class SecretKey:
    """Ternary secret; coefficient form kept so it can enter any basis."""

    coeffs: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def poly(self, basis: RnsBasis) -> RnsPoly:
        poly = self._cache.get(basis.moduli)
        if poly is None:
            poly = RnsPoly.from_integers(basis, self.coeffs, EVAL)
            self._cache[basis.moduli] = poly
        return poly


class CkksContext:
    """Key generation plus every homomorphic operation.

    One context owns the modulus chain (Q basis), the special basis (P), the
    encoder, and the keyswitch hints it has generated.  Methods that consume
    hints take them explicitly so tests can exercise hint reuse, exactly as
    the compiler's reuse analysis does for KSH traffic.

    ``policy`` selects how invariant violations are handled (strict typed
    errors vs graceful degradation), whether a live noise budget is
    threaded through ciphertexts, and whether results are sealed with
    per-limb checksums; see :class:`repro.reliability.ReliabilityPolicy`.
    """

    def __init__(self, params: CkksParams,
                 policy: ReliabilityPolicy | None = None):
        self.params = params
        self.policy = policy or ReliabilityPolicy()
        primes = find_ntt_primes(
            params.max_level + params.aux_level,
            params.modulus_bits,
            params.degree,
        )
        # The chain is consumed from the back by rescaling, so the q primes
        # come first; the remaining primes form the special basis P.
        self.q_basis = RnsBasis(primes[: params.max_level])
        self.aux_basis = RnsBasis(primes[params.max_level :])
        self.full_basis = self.q_basis.extend(self.aux_basis)
        self.encoder = CkksEncoder(params.degree)
        self.rng = np.random.default_rng(params.seed)
        self.default_scale = float(self.q_basis.moduli[-1])
        self._hint_seeds = iter(range(10_000_000, 2**31))
        self._bootstrapper = None
        self._degrading = False
        # Generated-hint cache (ARK-style inter-operation key reuse): a
        # hint is a pure function of (secret key, kind, digit count) given
        # this context's seed stream, so repeated requests - rotation fans
        # re-deriving the same steps, serving lanes rebuilding transform
        # pipelines - return the already-generated hint instead of
        # re-sampling uniforms.  Values keep a strong reference to the
        # secret key so the id() component of the key stays valid.
        self._hint_cache: dict[tuple, tuple[SecretKey, KeySwitchHint]] = {}

    # -- bases -------------------------------------------------------------

    def basis_at(self, level: int) -> RnsBasis:
        if not 1 <= level <= self.params.max_level:
            raise ParameterError(
                f"level {level} outside [1, {self.params.max_level}]",
                level=level,
            )
        return self.q_basis[:level]

    # -- reliability plumbing ----------------------------------------------

    def set_bootstrapper(self, bootstrapper) -> None:
        """Register the bootstrapper graceful degradation refreshes with."""
        self._bootstrapper = bootstrapper

    def seal(self, ct: Ciphertext) -> Ciphertext:
        """Attach per-limb checksums (no-op unless the policy asks)."""
        if not self.policy.checksums:
            return ct
        with obs.span("reliability.checksum.seal", "reliability"):
            ct.integrity = tuple(pair_checksums(
                ct.c0.data, ct.c1.data, ct.basis.moduli_col))
        return ct

    def verify_integrity(self, ct: Ciphertext,
                         what: str = "ciphertext") -> None:
        """Check a sealed ciphertext's limbs; raises FaultDetectedError."""
        if ct.integrity is None:
            return
        with obs.span("reliability.checksum.verify", "reliability"):
            moduli = ct.basis.moduli_col
            current = pair_checksums(ct.c0.data, ct.c1.data, moduli)
            if np.array_equal(current, ct.integrity):
                obs.count("reliability.checksum.verified", 2)
                return
            # A fault: name the damaged half and its limbs.
            verify_limbs(ct.c0.data, moduli, ct.integrity[0], f"{what}.c0")
            verify_limbs(ct.c1.data, moduli, ct.integrity[1], f"{what}.c1")

    def _finish(self, out: Ciphertext, kind: str,
                *parents: Ciphertext, seal: bool = True) -> Ciphertext:
        """Post-op bookkeeping: thread the noise budget, seal the result.

        ``seal=False`` skips the fresh reseal for ops that already carried
        their operands' seals forward (see :meth:`_carry_seal`).  A fresh
        seal first verifies every ciphertext operand: an op either
        carries its operands' seals or checks them, so a corrupted
        operand can never be laundered into a validly sealed result.
        """
        policy = self.policy
        if policy.track_noise:
            self._thread_budget(out, kind, parents)
        if policy.checksums and seal:
            for parent in parents:
                self.verify_integrity(parent, f"{kind} operand")
            self.seal(out)
        return out

    def _carry_seal(self, out: Ciphertext, a: Ciphertext, b: Ciphertext,
                    sign: int) -> bool:
        """Derive a linear op's output seal from its operands' seals.

        Limb checksums are additive mod q, so ``sum((a +- b) mod q) ==
        (sum(a) +- sum(b)) mod q`` limb by limb: the *clean-input* seal
        carries through add/sub without re-reading the data.  This is
        what keeps a corrupted operand detectable - a fresh reseal over
        already-corrupted limbs would launder the fault into a validly
        sealed result, while the carried seal mismatches the damaged
        data at the next verification boundary (keyswitch operand check,
        eviction sweep, or checkpoint).  Returns False (caller reseals
        fresh) when either operand is unsealed.
        """
        if (not self.policy.checksums or a.integrity is None
                or b.integrity is None):
            return False
        q = out.basis.moduli_col.reshape(-1)
        if sign >= 0:
            out.integrity = ((a.integrity[0] + b.integrity[0]) % q,
                             (a.integrity[1] + b.integrity[1]) % q)
        else:
            out.integrity = ((a.integrity[0] + q - b.integrity[0]) % q,
                             (a.integrity[1] + q - b.integrity[1]) % q)
        return True

    def _thread_budget(self, out, kind, parents) -> None:
        budgets = [p.budget for p in parents
                   if isinstance(p, Ciphertext) and p.budget is not None]
        if not budgets:
            return
        budget = budgets[0].clone()
        for other in budgets[1:]:
            budget.noise_bits = max(budget.noise_bits, other.noise_bits)
        if kind == "add":
            budget.add()
        elif kind == "pmult":
            budget.pmult()
        elif kind == "multiply":
            budget.cmult()
        elif kind == "keyswitch":
            budget.keyswitch()
        elif kind == "rescale":
            budget.rescale_op()
        elif kind == "bootstrap":
            budget.refresh(out.level)
        budget.levels = out.level  # structural truth wins
        out.budget = budget
        if (budget.headroom_bits <= 0 and not self.policy.degrade
                and not self._degrading):
            raise NoiseBudgetExhaustedError(
                f"{kind} left no noise headroom; decryption would fail - "
                "bootstrap first or use a 'degrade'-mode context",
                op=kind, level=out.level,
                noise_bits=round(budget.noise_bits, 1),
            )

    def _auto_bootstrap(self, ct: Ciphertext, op: str) -> Ciphertext:
        """Degrade-mode repair: refresh a depleted ciphertext in place."""
        if self._bootstrapper is None:
            raise NoiseBudgetExhaustedError(
                f"{op} exhausted the modulus chain and no bootstrapper is "
                "registered; call set_bootstrapper() (or bootstrap "
                "explicitly)",
                op=op, level=ct.level,
            )
        obs.count("reliability.auto_bootstrap")
        self._degrading = True
        try:
            with obs.span("reliability.auto_bootstrap", "reliability"):
                if ct.level > 1:
                    ct = self.drop_to_level(ct, 1)
                refreshed = self._bootstrapper.bootstrap(ct)
        finally:
            self._degrading = False
        return self._finish(refreshed, "bootstrap", ct)

    def _ensure_level(self, ct: Ciphertext, needed: int,
                      op: str) -> Ciphertext:
        """Strict: raise if the level is gone.  Degrade: bootstrap."""
        if ct.level >= needed:
            return ct
        if self.policy.degrade and not self._degrading:
            return self._auto_bootstrap(ct, op)
        check_min_level(ct, needed, op)
        return ct  # unreachable; check_min_level raised

    def _normalize_scale(self, ct: Ciphertext, op: str) -> Ciphertext:
        """Degrade-mode repair: rescale operands whose scale outgrew ~q.

        Un-rescaled products carry scale ~q^2; multiplying them again
        would push the scale past the live modulus.  Auto-inserting the
        deferred rescale restores the canonical ~q scale (each pass
        divides by one 28-bit prime), exactly what a library's
        rescale-before-multiply pass does.
        """
        threshold = 2 * self.params.modulus_bits - 2
        while log2(ct.scale) >= threshold and ct.level >= 2:
            obs.count("reliability.auto_rescale")
            with obs.span("reliability.auto_rescale", "reliability"):
                ct = self.rescale(ct)
        return ct

    def _prepare_pair(self, a: Ciphertext, b: Ciphertext,
                      op: str) -> tuple[Ciphertext, Ciphertext]:
        """Degrade-mode repairs before a ct x ct multiply."""
        if not self.policy.degrade or self._degrading:
            return a, b
        # A ct x ct multiply's rescale needs a level below it to land on.
        if a is b:
            a = b = self._normalize_scale(self._ensure_level(a, 2, op), op)
            return a, b
        a = self._normalize_scale(self._ensure_level(a, 2, op), op)
        b = self._normalize_scale(self._ensure_level(b, 2, op), op)
        if a.level != b.level:  # repairs may have desynced the bases
            target = min(a.level, b.level)
            a = self.drop_to_level(a, target)
            b = self.drop_to_level(b, target)
        return a, b

    # -- key generation ------------------------------------------------------

    def keygen(self) -> SecretKey:
        coeffs = ternary_secret(
            self.params.degree, self.rng, self.params.secret_hamming
        )
        return SecretKey(coeffs=coeffs)

    def _cached_hint(self, sk: SecretKey, kind: str, digits: int | None,
                     make) -> KeySwitchHint:
        key = (id(sk), kind, self.params.digits if digits is None else digits)
        entry = self._hint_cache.get(key)
        if entry is not None:
            obs.count("fhe.cache.hint.hit")
            return entry[1]
        obs.count("fhe.cache.hint.miss")
        hint = make()
        self._hint_cache[key] = (sk, hint)
        return hint

    def relin_hint(self, sk: SecretKey, digits: int | None = None) -> KeySwitchHint:
        """Hint for s^2 -> s (homomorphic multiplication)."""
        def make():
            s = sk.poly(self.full_basis)
            return self._make_hint(s * s, sk, digits, label="relin")
        return self._cached_hint(sk, "relin", digits, make)

    def rotation_hint(
        self, sk: SecretKey, steps: int, digits: int | None = None
    ) -> KeySwitchHint:
        """Hint for phi_k(s) -> s where phi_k rotates slots by ``steps``."""
        def make():
            k = self.rotation_exponent(steps)
            s_rot = sk.poly(self.full_basis).automorphism(k)
            return self._make_hint(s_rot, sk, digits, label=f"rot{steps}")
        return self._cached_hint(sk, f"rot{steps % self.params.slots}",
                                 digits, make)

    def conjugation_hint(self, sk: SecretKey, digits: int | None = None) -> KeySwitchHint:
        def make():
            k = 2 * self.params.degree - 1
            s_conj = sk.poly(self.full_basis).automorphism(k)
            return self._make_hint(s_conj, sk, digits, label="conj")
        return self._cached_hint(sk, "conj", digits, make)

    def standard_relin_hint(self, sk: SecretKey) -> KeySwitchHint:
        """Per-prime (BV) hint, the algorithm F1 accelerates; for comparison."""
        s = sk.poly(self.q_basis)
        return generate_hint(
            s * s, sk.poly(self.q_basis), self.q_basis, None, 1,
            self.rng, next(self._hint_seeds), self.params.error_sigma,
            label="relin-std", integrity=self.policy.checksums,
        )

    def _make_hint(self, s_old, sk, digits, label) -> KeySwitchHint:
        digits = self.params.digits if digits is None else digits
        alpha = -(-self.params.max_level // digits)
        if alpha > len(self.aux_basis):
            raise ParameterError(
                f"{digits}-digit keyswitching needs {alpha} special primes, "
                f"context has {len(self.aux_basis)}",
                digits=digits, alpha=alpha,
            )
        aux_used = (
            self.aux_basis[:alpha]
            if alpha < len(self.aux_basis)
            else self.aux_basis
        )
        full_used = self.q_basis.extend(aux_used)
        # ``s_old`` arrives over the maximal basis; because aux_used is a
        # prefix of the special basis, restriction is a row slice (valid in
        # the EVAL domain too, since the NTT acts per residue).
        s_old_used = RnsPoly(full_used, s_old.data[: len(full_used)], s_old.domain)
        return generate_hint(
            s_old_used, sk.poly(full_used), self.q_basis, aux_used,
            alpha, self.rng, next(self._hint_seeds), self.params.error_sigma,
            label=label, integrity=self.policy.checksums,
        )

    def rotation_exponent(self, steps: int) -> int:
        """Automorphism exponent 5^steps mod 2N realizing a rotation."""
        n2 = 2 * self.params.degree
        return pow(5, steps % self.params.slots, n2)

    # -- encode / encrypt / decrypt -----------------------------------------

    def encode(self, values, level: int | None = None,
               scale: float | None = None) -> Plaintext:
        level = self.params.max_level if level is None else level
        scale = self.default_scale if scale is None else scale
        poly = self.encoder.encode_poly(self.basis_at(level), values, scale)
        return Plaintext(poly, scale)

    def encrypt(self, sk: SecretKey, plaintext: Plaintext) -> Ciphertext:
        """Symmetric encryption: ct = (-a*s + m + e, a)."""
        basis = plaintext.poly.basis
        degree = self.params.degree
        a = RnsPoly.uniform_random(basis, degree, self.rng, EVAL)
        e = error_poly(basis, degree, self.rng, self.params.error_sigma)
        s = sk.poly(basis)
        c0 = plaintext.poly.to_eval() + e - a * s
        ct = Ciphertext(c0, a, plaintext.scale)
        if self.policy.track_noise:
            from repro.fhe.noise import NoiseBudget  # deferred: noise imports us

            ct.budget = NoiseBudget(
                degree=degree,
                modulus_bits_per_level=self.params.modulus_bits,
                levels=ct.level, sigma=self.params.error_sigma,
            )
        return self.seal(ct) if self.policy.checksums else ct

    def encrypt_values(self, sk: SecretKey, values,
                       level: int | None = None) -> Ciphertext:
        return self.encrypt(sk, self.encode(values, level))

    def decrypt(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decrypt to complex slot values."""
        if self.policy.checksums:
            self.verify_integrity(ct, "decrypt operand")
        s = sk.poly(ct.basis)
        m = (ct.c0 + ct.c1 * s).to_coeff()
        return self.encoder.decode(m.to_integers(), ct.scale)

    def decrypt_poly(self, sk: SecretKey, ct: Ciphertext) -> RnsPoly:
        s = sk.poly(ct.basis)
        return (ct.c0 + ct.c1 * s).to_coeff()

    # -- additive operations ---------------------------------------------------

    def _check_add(self, a: Ciphertext, b) -> None:
        check_scale_match(a, b, "add", _SCALE_TOLERANCE)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        check_same_basis(a, b, "add")
        self._check_add(a, b)
        out = Ciphertext(a.c0 + b.c0, a.c1 + b.c1, a.scale)
        carried = self._carry_seal(out, a, b, 1)
        return self._finish(out, "add", a, b, seal=not carried)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        check_same_basis(a, b, "sub")
        self._check_add(a, b)
        out = Ciphertext(a.c0 - b.c0, a.c1 - b.c1, a.scale)
        carried = self._carry_seal(out, a, b, -1)
        return self._finish(out, "add", a, b, seal=not carried)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return self._finish(Ciphertext(-a.c0, -a.c1, a.scale), "copy", a)

    def add_plain(self, a: Ciphertext, pt: Plaintext) -> Ciphertext:
        if pt.poly.basis != a.basis:
            raise LevelMismatchError(
                "plaintext encoded at a different level than the "
                "ciphertext; re-encode at the ciphertext's level",
                ct_level=a.level, pt_level=pt.level,
            )
        self._check_add(a, pt)
        out = Ciphertext(a.c0 + pt.poly.to_eval(), a.c1.copy(), a.scale)
        return self._finish(out, "add", a)

    def add_scalar(self, a: Ciphertext, value: complex) -> Ciphertext:
        pt = self.encode([value], level=a.level, scale=a.scale)
        return self.add_plain(a, pt)

    # -- multiplicative operations ---------------------------------------------

    def mul_plain(self, a: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Ciphertext x plaintext; scales multiply, no keyswitch needed."""
        if pt.poly.basis != a.basis:
            raise LevelMismatchError(
                "plaintext encoded at a different level than the "
                "ciphertext; re-encode at the ciphertext's level",
                ct_level=a.level, pt_level=pt.level,
            )
        p = pt.poly.to_eval()
        out = Ciphertext(a.c0 * p, a.c1 * p, a.scale * pt.scale)
        return self._finish(out, "mul_plain", a)

    def pmult(self, a: Ciphertext, values,
              result_scale: float | None = None,
              cache: dict | None = None, cache_key=None) -> Ciphertext:
        """Plaintext multiply + rescale with an exactly targeted result scale.

        CKKS scales drift when moduli are not exactly 2**28; summing
        branches of different depth then adds mismatched-scale values.  The
        fix used throughout this library: pick the *encoding* scale of the
        plaintext as ``result_scale * q_last / a.scale`` so the product
        rescales to ``result_scale`` exactly.  The paper's compiler does the
        equivalent bookkeeping when it schedules plaintext operands.

        ``cache``/``cache_key`` let callers that multiply by the same
        operand repeatedly (BSGS diagonals, re-applied bootstrapping
        transforms) memoize the encoded plaintext: the full key includes
        the level and encoding scale, so a hit is exactly the Plaintext a
        fresh encode would produce, and the encoder FFT + forward NTT are
        skipped.
        """
        a = self._ensure_level(a, 2, "pmult")
        if result_scale is None:
            result_scale = a.scale
        pt = self._targeted_plaintext(a, values, result_scale, cache,
                                      cache_key)
        p = pt.poly.to_eval()
        # Multiply and rescale in one op: ``a`` is verified and the
        # result sealed once, by the single _finish.  The scale is the
        # declared one exactly (float bookkeeping may be off by an ulp).
        c0, c1 = batch_rescale([a.c0 * p, a.c1 * p])
        return self._finish(Ciphertext(c0, c1, result_scale), "pmult", a)

    def _targeted_plaintext(self, a: Ciphertext, values,
                            result_scale: float, cache: dict | None,
                            cache_key) -> Plaintext:
        """``values`` encoded at ``a``'s level with the encoding scale
        that makes ``a * pt`` rescale to ``result_scale`` exactly.

        A memoized plaintext is kept in the EVAL domain, so a hit skips
        the encoder FFT and the forward NTT alike (the transform is a
        bijection: a hit multiplies by the very residues a fresh encode
        would).  Under the checksum policy each entry is sealed when it
        is stored and verified on every hit; a corrupted entry is evicted
        before the fault is raised, so a retry encodes afresh.
        """
        enc_scale = result_scale * float(a.basis.moduli[-1]) / a.scale
        if cache is None:
            return self.encode(values, level=a.level, scale=enc_scale)
        full_key = (cache_key, a.level, enc_scale)
        entry = cache.get(full_key)
        obs.count("fhe.cache.plaintext.hit" if entry is not None
                  else "fhe.cache.plaintext.miss")
        moduli = a.basis.moduli_col
        if entry is None:
            pt = self.encode(values, level=a.level, scale=enc_scale)
            pt = Plaintext(pt.poly.to_eval(), pt.scale)
            sums = (limb_checksums(pt.poly.data, moduli)
                    if self.policy.checksums else None)
            cache[full_key] = (pt, sums)
            return pt
        pt, sums = entry
        if sums is not None:
            try:
                verify_limbs(pt.poly.data, moduli, sums,
                             f"memoized plaintext {cache_key!r}")
            except FaultDetectedError:
                del cache[full_key]
                raise
        return pt

    def pmult_deferred(self, a: Ciphertext, values,
                       result_scale: float | None = None,
                       cache: dict | None = None, cache_key=None) -> Ciphertext:
        """Plaintext multiply *without* the trailing rescale.

        Same targeted-scale encoding as :meth:`pmult`, but the product is
        returned at scale ``result_scale * q_last`` so an accumulator can
        sum many such terms and rescale the sum once - the lazy-rescale
        trick the BSGS inner loop uses.  One rescale per group instead of
        one per diagonal removes almost all of the transform traffic the
        per-term rescales would pay, and rounding once (instead of once
        per term) can only shrink the accumulated rescale error.
        """
        a = self._ensure_level(a, 2, "pmult")
        if result_scale is None:
            result_scale = a.scale
        pt = self._targeted_plaintext(a, values, result_scale, cache,
                                      cache_key)
        out = self.mul_plain(a, pt)
        # Pin the product scale so every deferred term in a sum agrees
        # exactly; the caller's single rescale then lands on result_scale.
        out.scale = result_scale * float(a.basis.moduli[-1])
        return out

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 relin: KeySwitchHint) -> Ciphertext:
        """Full homomorphic multiplication with relinearization.

        (a0 + a1 s)(b0 + b1 s) = d0 + d1 s + d2 s^2; the d2 term is folded
        back to degree one by keyswitching with the s^2 -> s hint.
        """
        a, b = self._prepare_pair(a, b, "multiply")
        check_same_basis(a, b, "multiply")
        if self.policy.checksums:
            self.verify_integrity(a, "multiply operand")
            if b is not a:
                self.verify_integrity(b, "multiply operand")
        d0 = a.c0 * b.c0
        d1 = a.c0 * b.c1 + a.c1 * b.c0
        d2 = a.c1 * b.c1
        ks0, ks1 = self._apply_hint(d2, relin)
        out = Ciphertext(d0 + ks0, d1 + ks1, a.scale * b.scale)
        return self._finish(out, "multiply", a, b)

    def square(self, a: Ciphertext, relin: KeySwitchHint) -> Ciphertext:
        return self.multiply(a, a, relin)

    def _apply_hint(self, poly: RnsPoly, hint: KeySwitchHint):
        if hint.aux_count:
            aux = self.aux_basis[: hint.aux_count] if hint.aux_count < len(
                self.aux_basis
            ) else self.aux_basis
            return boosted_keyswitch(poly, hint, aux)
        return standard_keyswitch(poly, hint)

    # -- level management -------------------------------------------------------

    def rescale(self, a: Ciphertext) -> Ciphertext:
        """Drop the last prime, dividing the scale by it (trims noise)."""
        a = self._ensure_level(a, 2, "rescale")
        q_last = a.basis.moduli[-1]
        # Both halves share one stacked INTT/NTT pair (see batch_rescale).
        c0, c1 = batch_rescale([a.c0, a.c1])
        out = Ciphertext(c0, c1, a.scale / q_last)
        return self._finish(out, "rescale", a)

    def mod_drop(self, a: Ciphertext, levels: int = 1) -> Ciphertext:
        """Discard trailing primes without dividing (level alignment)."""
        if levels >= a.level:
            raise NoiseBudgetExhaustedError(
                "mod_drop would discard every live prime",
                level=a.level, dropping=levels,
            )
        c0, c1 = a.c0, a.c1
        for _ in range(levels):
            c0 = c0.drop_last_modulus()
            c1 = c1.drop_last_modulus()
        return self._finish(Ciphertext(c0, c1, a.scale), "drop", a)

    def drop_to_level(self, a: Ciphertext, level: int) -> Ciphertext:
        if level > a.level:
            raise LevelMismatchError(
                "cannot raise level by dropping; only bootstrapping "
                "restores levels",
                level=a.level, requested=level,
            )
        if level == a.level:
            return a
        return self.mod_drop(a, a.level - level)

    # -- rotations ---------------------------------------------------------------

    def rotate(self, a: Ciphertext, steps: int,
               hint: KeySwitchHint) -> Ciphertext:
        """Cyclically rotate slots left by ``steps``.

        Applies the automorphism x -> x^(5^steps) to both halves, then
        keyswitches the c1 half back to the original key.
        """
        k = self.rotation_exponent(steps)
        return self._automorphism_and_switch(a, k, hint)

    def conjugate(self, a: Ciphertext, hint: KeySwitchHint) -> Ciphertext:
        """Complex-conjugate every slot (automorphism x -> x^-1)."""
        return self._automorphism_and_switch(a, 2 * self.params.degree - 1, hint)

    def _automorphism_and_switch(self, a, exponent, hint) -> Ciphertext:
        if self.policy.checksums:
            self.verify_integrity(a, "keyswitch operand")
        c0 = a.c0.automorphism(exponent)
        c1 = a.c1.automorphism(exponent)
        ks0, ks1 = self._apply_hint(c1, hint)
        out = Ciphertext(c0 + ks0, ks1, a.scale)
        return self._finish(out, "keyswitch", a)
