"""Deterministic fault injection: the injector, the campaign harness, and
a limb flip before each CKKS op kind."""

import numpy as np
import pytest

from repro.reliability.errors import FaultDetectedError
from repro.reliability.faults import (
    HBM,
    LIMB,
    NTT,
    RF,
    SITES,
    FaultInjector,
)
from repro.reliability.recovery import run_recovery_campaign


def test_injector_is_deterministic():
    rng = np.random.default_rng(0)
    data = rng.integers(0, 1 << 28, size=(2, 32), dtype=np.uint64)

    outs = []
    for _ in range(2):
        work = data.copy()
        injector = FaultInjector(seed=42)
        injector.arm(LIMB)
        assert injector.maybe_corrupt(LIMB, work)
        outs.append(work)
    assert np.array_equal(outs[0], outs[1])
    assert not np.array_equal(outs[0], data)


def test_armed_fault_fires_exactly_once():
    data = np.zeros((1, 16), dtype=np.uint64)
    injector = FaultInjector(seed=1)
    injector.arm(NTT)
    assert injector.maybe_corrupt(NTT, data)
    assert not injector.maybe_corrupt(NTT, data)  # disarmed after firing


def test_disarm_drops_a_pending_arm_only():
    data = np.zeros((1, 16), dtype=np.uint64)
    injector = FaultInjector(seed=1)
    injector.arm(NTT, skip=3)
    assert injector.disarm(NTT)          # pending: dropped
    assert not injector.disarm(NTT)      # nothing left to drop
    assert not injector.maybe_corrupt(NTT, data)
    assert injector.injected[NTT] == 0
    injector.arm(LIMB)
    assert injector.maybe_corrupt(LIMB, data)
    assert not injector.disarm(LIMB)     # fired arms are already gone


def test_unarmed_sites_stay_clean():
    data = np.zeros((1, 16), dtype=np.uint64)
    injector = FaultInjector(seed=1)
    injector.arm(LIMB)
    assert not injector.maybe_corrupt(HBM, data)
    assert np.count_nonzero(data) == 0


def test_corruption_flips_bits_below_modulus_width():
    data = np.zeros((1, 16), dtype=np.uint64)
    injector = FaultInjector(seed=3)
    injector.arm(LIMB)
    injector.maybe_corrupt(LIMB, data)
    changed = data[data != 0]
    assert len(changed) == 1
    assert int(changed[0]) < 1 << 28  # single flip below bit 28


# -- campaign smoke test ----------------------------------------------------
#
# The full acceptance campaign (1000+ faults) runs in CI via
# `python -m repro.reliability`; here a small seeded campaign checks the
# harness end to end at one level deeper than the gate's run, without
# dominating the suite's runtime.

CAMPAIGN = dict(seed=2022, faults=80, degree=128, max_level=5, clean_runs=2)


@pytest.fixture(scope="module")
def campaign():
    return run_recovery_campaign(**CAMPAIGN)


def test_campaign_covers_all_sites(campaign):
    assert set(campaign.sites) == set(SITES)
    for site in SITES:
        assert campaign.sites[site].injected > 0, site


def test_campaign_zero_false_positives(campaign):
    assert campaign.false_positives == 0


def test_campaign_deterministic_detection_rates(campaign):
    # Every detector is exact: operand-at-rest and hint-transfer
    # checksums always were; the end-of-op transform checksum catches
    # any single corrupted NTT output word deterministically, and the
    # keyswitch-boundary eviction sweep covers every RF resident.
    assert campaign.detection_rate(LIMB) == 1.0
    assert campaign.detection_rate(HBM) == 1.0
    assert campaign.detection_rate(NTT) == 1.0
    assert campaign.detection_rate(RF) == 1.0


def test_campaign_reproducible(campaign):
    again = run_recovery_campaign(**CAMPAIGN)
    for site in SITES:
        assert again.sites[site].injected == campaign.sites[site].injected
        assert again.sites[site].detected == campaign.sites[site].detected


# -- hoisted rotations ------------------------------------------------------
#
# The compiler's hoisting pass makes one ModUp's raised digits a shared
# operand of a whole rotation group, so the seal must carry through the
# hoist: a limb fault there would otherwise poison every rotation of the
# group while the per-ciphertext checksums stay green.

@pytest.fixture(scope="module")
def sealed_fhe():
    from repro.fhe.ckks import CkksContext, CkksParams
    from repro.reliability.guards import ReliabilityPolicy

    ctx = CkksContext(CkksParams(degree=128, max_level=4, seed=5),
                      policy=ReliabilityPolicy(checksums=True))
    return ctx, ctx.keygen()


def test_limb_fault_in_raised_digits_is_detected(sealed_fhe):
    from repro.fhe.hoisting import HoistedRotator

    ctx, sk = sealed_fhe
    ct = ctx.encrypt_values(sk, [0.5, -0.25])
    rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
    assert rotator.integrity is not None  # sealed at construction
    hint = ctx.rotation_hint(sk, 1)
    rotator.rotate(1, hint)  # clean: silent

    injector = FaultInjector(seed=11)
    injector.arm(LIMB)
    assert injector.maybe_corrupt(LIMB, rotator.raised_digits[0])
    with pytest.raises(FaultDetectedError, match="hoisted raised digit"):
        rotator.rotate(1, hint)


def test_corrupt_source_is_caught_before_hoisting(sealed_fhe):
    from repro.fhe.hoisting import HoistedRotator

    ctx, sk = sealed_fhe
    ct = ctx.encrypt_values(sk, [0.125])
    injector = FaultInjector(seed=12)
    injector.arm(LIMB)
    assert injector.maybe_corrupt(LIMB, ct.c1.data)
    with pytest.raises(FaultDetectedError, match="hoist source"):
        HoistedRotator(ctx, ct, alpha=ctx.params.alpha)


def test_hoisted_rotation_output_is_sealed(sealed_fhe):
    from repro.fhe.hoisting import HoistedRotator

    ctx, sk = sealed_fhe
    ct = ctx.encrypt_values(sk, [0.5, 0.5])
    rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
    out = rotator.rotate(1, ctx.rotation_hint(sk, 1))
    assert out.integrity is not None  # downstream ops can keep verifying
    ctx.verify_integrity(out)


# -- one limb flip before each op kind ---------------------------------------
#
# Every op that consumes a ciphertext either verifies its operands' seals
# (a keyswitch or multiply before computing, any other op before it
# reseals its result) or carries them forward (add, sub).  A flip just
# before the op is therefore caught by the op itself, or - for add/sub -
# by the carried seal at the next verification.

def _hoisted_rotate(ctx, ct, aux):
    from repro.fhe.hoisting import HoistedRotator

    return HoistedRotator(ctx, ct, alpha=ctx.params.alpha).rotate(
        1, aux["rot1"])


CHECKING_OPS = {
    "pmult": lambda ctx, ct, h: ctx.pmult(ct, [0.5]),
    "pmult_deferred": lambda ctx, ct, h: ctx.pmult_deferred(ct, [0.5]),
    "mul_plain": lambda ctx, ct, h: ctx.mul_plain(
        ct, ctx.encode([0.5], level=ct.level)),
    "rescale": lambda ctx, ct, h: ctx.rescale(ct),
    "add_plain": lambda ctx, ct, h: ctx.add_plain(
        ct, ctx.encode([0.5], level=ct.level, scale=ct.scale)),
    "add_scalar": lambda ctx, ct, h: ctx.add_scalar(ct, 0.5),
    "negate": lambda ctx, ct, h: ctx.negate(ct),
    "mod_drop": lambda ctx, ct, h: ctx.mod_drop(ct),
    "rotate": lambda ctx, ct, h: ctx.rotate(ct, 1, h["rot1"]),
    "conjugate": lambda ctx, ct, h: ctx.conjugate(ct, h["conj"]),
    "multiply": lambda ctx, ct, h: ctx.multiply(ct, h["other"], h["relin"]),
    "hoisted_rotate": _hoisted_rotate,
}


@pytest.fixture(scope="module")
def aux(sealed_fhe):
    """The hints the keyswitching ops take, and a clean second operand."""
    ctx, sk = sealed_fhe
    return {"rot1": ctx.rotation_hint(sk, 1),
            "conj": ctx.conjugation_hint(sk),
            "relin": ctx.relin_hint(sk),
            "other": ctx.encrypt_values(sk, [0.25, 0.75])}


def _flipped(ctx, sk, seed: int, half: str):
    ct = ctx.encrypt_values(sk, [0.5, -0.25])
    injector = FaultInjector(seed=seed)
    injector.arm(LIMB)
    assert injector.maybe_corrupt(LIMB, getattr(ct, half).data)
    return ct


@pytest.mark.parametrize("half", ["c0", "c1"])
@pytest.mark.parametrize("op", list(CHECKING_OPS))
def test_limb_flip_before_an_op_is_detected_by_it(sealed_fhe, aux, op,
                                                   half):
    ctx, sk = sealed_fhe
    clean = ctx.encrypt_values(sk, [0.5, -0.25])
    CHECKING_OPS[op](ctx, clean, aux)  # clean: silent
    ct = _flipped(ctx, sk, seed=len(op), half=half)
    with pytest.raises(FaultDetectedError, match="operand|hoist source"):
        CHECKING_OPS[op](ctx, ct, aux)


@pytest.mark.parametrize("op", ["add", "sub"])
def test_limb_flip_before_add_or_sub_rides_the_carried_seal(sealed_fhe,
                                                            aux, op):
    ctx, sk = sealed_fhe
    ct = _flipped(ctx, sk, seed=7, half="c0")
    out = getattr(ctx, op)(ct, aux["other"])  # carries, does not check
    with pytest.raises(FaultDetectedError, match="limb checksum mismatch"):
        ctx.verify_integrity(out)
