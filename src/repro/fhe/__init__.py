"""Functional CKKS substrate used and accelerated by CraterLake.

This package implements, in pure Python/numpy, every algorithm the paper's
hardware accelerates: RNS polynomial arithmetic over NTT-friendly 28-bit
primes, the CKKS scheme (encode/encrypt/add/mult/rotate/rescale), standard
and boosted (t-digit hybrid) keyswitching, seeded keyswitch hints (the
software analogue of the KSHGen unit), BSGS linear transforms, polynomial
evaluation, and fully packed bootstrapping.
"""

from repro.fhe.bgv import BgvCiphertext, BgvContext, BgvParams
from repro.fhe.bootstrap import BootstrapConfig, Bootstrapper
from repro.fhe.ckks import (
    Ciphertext,
    CkksContext,
    CkksParams,
    Plaintext,
    SecretKey,
)
from repro.fhe.encoder import CkksEncoder
from repro.fhe.keyswitch import (
    KeySwitchHint,
    boosted_keyswitch,
    digit_bases,
    generate_hint,
    standard_keyswitch,
)
from repro.fhe.hoisting import HoistedRotator, hoisted_rotations
from repro.fhe.linear import LinearTransform, RealLinearTransform
from repro.fhe.noise import NoiseBudget, budget_bits, measure_noise_bits
from repro.fhe.poly import RnsPoly
from repro.fhe.polyeval import evaluate_chebyshev, evaluate_polynomial
from repro.fhe.primes import find_ntt_primes, is_prime
from repro.fhe.rns import RnsBasis
from repro.fhe.security import (
    SecurityEstimator,
    ciphertext_megabytes,
    hint_megabytes,
    max_log_q_for_security,
    security_bits,
)

__all__ = [
    "BgvCiphertext",
    "BgvContext",
    "BgvParams",
    "BootstrapConfig",
    "Bootstrapper",
    "Ciphertext",
    "CkksContext",
    "CkksParams",
    "CkksEncoder",
    "KeySwitchHint",
    "HoistedRotator",
    "LinearTransform",
    "NoiseBudget",
    "Plaintext",
    "RealLinearTransform",
    "RnsBasis",
    "RnsPoly",
    "SecretKey",
    "SecurityEstimator",
    "boosted_keyswitch",
    "ciphertext_megabytes",
    "digit_bases",
    "evaluate_chebyshev",
    "evaluate_polynomial",
    "find_ntt_primes",
    "generate_hint",
    "budget_bits",
    "hint_megabytes",
    "hoisted_rotations",
    "measure_noise_bits",
    "is_prime",
    "max_log_q_for_security",
    "security_bits",
    "standard_keyswitch",
]
