"""Keyswitching digit schedules for security targets (Sec. 3.1, Sec. 9.4).

At a fixed ring degree N, a t-digit keyswitch at level L implies
logQP = (L + ceil(L/t)) * 28 bits; the schedule picks the smallest t that
keeps (N, logQP) at the requested security.  The paper's published
schedules fall out of this rule:

* 80-bit, N=64K:  1-digit keyswitching up to L ~ 52, 2-digit above.
* 128-bit, N=64K: 1-digit for L < 32, 2-digit for 32 <= L < 43,
                  3-digit for L >= 43 (and bootstrap twice as often).
* 200-bit:        requires N=128K, with higher-digit variants.

Like bootstrap placement, the digit schedule is an emission-time
decision: the chosen t is stamped onto each emitted ``HomOp.digits``,
so the compile cache's key covers it through the IR itself
(docs/COMPILER.md).
"""

from __future__ import annotations

from repro.fhe.security import SecurityEstimator
from repro.obs import collector as obs


def digit_schedule(degree: int, security: int, max_level: int,
                   modulus_bits: int = 28, max_digits: int = 4) -> dict[int, int]:
    """Level -> digit count map for a workload's full chain."""
    est = SecurityEstimator(degree, security, modulus_bits, max_digits)
    schedule = est.digit_schedule(max_level)
    if obs.is_enabled():
        # Schedule decisions: how many levels got multi-digit keyswitching.
        for t in schedule.values():
            obs.count(f"compiler.digit_choice.t{t}")
    return schedule


def max_usable_level(degree: int, security: int,
                     modulus_bits: int = 28, max_digits: int = 4) -> int:
    """Largest level that stays secure; bounds bootstrapping's top level."""
    est = SecurityEstimator(degree, security, modulus_bits, max_digits)
    return est.max_level()
