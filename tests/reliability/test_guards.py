"""ReliabilityPolicy, invariant guard helpers, and the integrity switch."""

import numpy as np
import pytest

from repro.reliability import guards
from repro.reliability.errors import (
    LevelMismatchError,
    NoiseBudgetExhaustedError,
    ParameterError,
    ScaleMismatchError,
)
from repro.reliability.guards import (
    IntegrityConfig,
    ReliabilityPolicy,
    check_min_level,
    check_same_basis,
    check_scale_match,
)


class _FakeCt:
    """Just enough surface for the guard helpers (level/basis/scale)."""

    def __init__(self, level=3, basis="B", scale=2.0**28):
        self.level = level
        self.basis = basis
        self.scale = scale


# -- policy -----------------------------------------------------------------

def test_policy_defaults_to_strict():
    policy = ReliabilityPolicy()
    assert policy.mode == guards.STRICT
    assert not policy.degrade
    assert not policy.track_noise
    assert not policy.checksums


def test_degrade_mode_flag():
    assert ReliabilityPolicy(mode="degrade").degrade


def test_unknown_mode_rejected():
    with pytest.raises(ParameterError, match="unknown reliability mode"):
        ReliabilityPolicy(mode="fastest")


# -- guard helpers ----------------------------------------------------------

def test_check_same_basis_passes_and_raises():
    a, b = _FakeCt(basis="B1"), _FakeCt(basis="B1")
    check_same_basis(a, b, "add")  # no raise
    with pytest.raises(LevelMismatchError, match="different RNS bases"):
        check_same_basis(a, _FakeCt(basis="B2"), "add")


def test_check_scale_match_tolerance():
    a = _FakeCt(scale=2.0**28)
    close = _FakeCt(scale=2.0**28 * (1 + 1e-12))
    check_scale_match(a, close, "add", tolerance=1e-9)  # within tolerance
    with pytest.raises(ScaleMismatchError, match="mismatched scales"):
        check_scale_match(a, _FakeCt(scale=2.0**29), "add", tolerance=1e-9)


def test_check_min_level_raises_exhaustion():
    check_min_level(_FakeCt(level=2), 2, "rescale")  # no raise
    with pytest.raises(NoiseBudgetExhaustedError, match="bootstrap"):
        check_min_level(_FakeCt(level=1), 2, "rescale")


# -- integrity switch -------------------------------------------------------

def test_integrity_switch_default_off():
    assert guards.integrity_active() is None


def test_integrity_scope_restores_previous_state():
    assert guards.integrity_active() is None
    with guards.integrity(IntegrityConfig(ntt_recheck_every=4)) as cfg:
        assert guards.integrity_active() is cfg
        assert cfg.ntt_recheck_every == 4
    assert guards.integrity_active() is None


def test_integrity_enable_disable_roundtrip():
    cfg = guards.enable_integrity()
    try:
        assert guards.integrity_active() is cfg
    finally:
        assert guards.disable_integrity() is cfg
    assert guards.integrity_active() is None


def test_ntt_recheck_detects_injected_compute_fault():
    """End to end through the NTT layer: corrupt a transform output and
    the every-k-th re-execution check must flag it (transform checksum
    disabled here to isolate the recheck path)."""
    from repro.fhe.ntt import BatchedNttContext
    from repro.reliability.errors import FaultDetectedError
    from repro.reliability.faults import NTT, FaultInjector, install, uninstall

    ntt = BatchedNttContext.get((998244353,), 64)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 998244353, size=(1, 64), dtype=np.uint64)

    injector = FaultInjector(seed=1)
    install(injector)
    try:
        with guards.integrity(IntegrityConfig(ntt_checksum=False,
                                              ntt_recheck_every=1)):
            injector.arm(NTT)
            with pytest.raises(FaultDetectedError, match="re-execution"):
                ntt.forward(data)
    finally:
        uninstall()

    # Clean transforms under the same recheck policy stay silent.
    with guards.integrity(IntegrityConfig(ntt_recheck_every=1)):
        out = ntt.forward(data)
    assert np.array_equal(ntt.inverse(out), data)


def test_ntt_transform_checksum_detects_any_single_word_fault():
    """The O(N) end-of-op checksum is deterministic: a corrupted output
    word in either transform direction raises, wherever it lands."""
    from repro.fhe.ntt import BatchedNttContext
    from repro.reliability.errors import FaultDetectedError
    from repro.reliability.faults import NTT, FaultInjector, install, uninstall

    ntt = BatchedNttContext.get((998244353,), 64)
    rng = np.random.default_rng(7)
    data = rng.integers(0, 998244353, size=(1, 64), dtype=np.uint64)

    for seed in range(8):  # varies which word/bit the injector flips
        injector = FaultInjector(seed=seed)
        install(injector)
        try:
            with guards.integrity(IntegrityConfig(ntt_checksum=True)):
                injector.arm(NTT)
                with pytest.raises(FaultDetectedError, match="checksum"):
                    ntt.forward(data)
                injector.arm(NTT)
                with pytest.raises(FaultDetectedError, match="checksum"):
                    ntt.inverse(ntt.forward(data))
        finally:
            uninstall()

    # Clean transforms round-trip silently under the checksum.
    with guards.integrity(IntegrityConfig(ntt_checksum=True)):
        assert np.array_equal(ntt.inverse(ntt.forward(data)), data)
