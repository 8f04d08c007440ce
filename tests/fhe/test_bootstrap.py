"""Fully packed bootstrapping: the paper's headline capability, end to end.

These are the slowest tests in the suite (a real homomorphic bootstrap at
toy parameters); they are marked so `-m "not slow"` can skip them.
"""

import numpy as np
import pytest

from repro.fhe.bootstrap import BootstrapConfig, Bootstrapper
from repro.fhe.ckks import CkksContext, CkksParams

# The bootstrap-capable context is expensive to key; it is the
# session-scoped ``boot`` fixture in tests/fhe/conftest.py.


def test_config_derivation(boot):
    ctx, sk, bs = boot
    assert bs.range_bound >= 8
    assert bs.squarings >= 1
    assert bs.levels_consumed() <= ctx.params.max_level


def test_mod_raise_preserves_plaintext(boot):
    ctx, sk, bs = boot
    rng = np.random.default_rng(0)
    z = 0.02 * (rng.normal(size=ctx.params.slots))
    ct = ctx.encrypt_values(sk, z, level=1)
    raised = bs.mod_raise(ct)
    assert raised.level == ctx.params.max_level
    # Raised plaintext = m + q1*I: slots must match z modulo integer*q1/q1.
    dec = ctx.decrypt(sk, raised)  # decoded at scale q1: eps + I patterns
    # The fractional parts of the coefficient-domain plaintext carry m.
    coeffs = np.array([float(c) for c in ctx.decrypt_poly(sk, raised).to_integers()])
    q1 = ct.basis.moduli[0]
    frac = coeffs / q1 - np.rint(coeffs / q1)
    want = ctx.encoder.unembed(z) * ct.scale / q1
    assert np.max(np.abs(frac - want)) < 1e-4


def test_mod_raise_rejects_high_level(boot):
    ctx, sk, bs = boot
    z = np.zeros(ctx.params.slots)
    ct = ctx.encrypt_values(sk, z, level=2)
    with pytest.raises(ValueError):
        bs.mod_raise(ct)


@pytest.mark.slow
def test_bootstrap_refreshes_level_and_value(boot):
    ctx, sk, bs = boot
    rng = np.random.default_rng(3)
    n = ctx.params.slots
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.02
    ct = ctx.encrypt_values(sk, z, level=1)
    out = bs.bootstrap(ct)
    assert out.level > 1  # multiplicative budget refreshed (Fig. 2)
    err = np.abs(ctx.decrypt(sk, out) - z)
    assert err.max() < 5e-3


@pytest.mark.slow
def test_bootstrap_output_is_computable(boot):
    """The refreshed ciphertext supports further homomorphic compute."""
    ctx, sk, bs = boot
    rng = np.random.default_rng(4)
    n = ctx.params.slots
    z = rng.normal(size=n) * 0.02
    ct = ctx.encrypt_values(sk, z, level=1)
    out = bs.bootstrap(ct)
    sq = ctx.rescale(ctx.square(out, bs.relin_hint))
    err = np.abs(ctx.decrypt(sk, sq) - z * z)
    assert err.max() < 1e-3


@pytest.mark.slow
def test_unbounded_computation(boot):
    """Compute past the native budget: a level-1 ciphertext supports zero
    further multiplies, but bootstrap -> multiply -> deplete -> bootstrap
    continues indefinitely - the paper's 'unbounded' claim in miniature
    (three refresh cycles)."""
    ctx, sk, bs = boot
    n = ctx.params.slots
    z = np.full(n, 0.02)
    ct = ctx.encrypt_values(sk, z, level=1)
    with pytest.raises(ValueError):
        ctx.rescale(ct)  # depleted: no multiplicative budget left
    total_mults = 0
    for _ in range(3):
        ct = bs.bootstrap(ct)
        assert ct.level > 1
        while ct.level > 1:  # spend the refreshed budget back down
            ct = ctx.pmult(ct, np.full(n, 1.1))
            total_mults += 1
    want = z * 1.1**total_mults
    err = np.abs(ctx.decrypt(sk, ct) - want)
    assert err.max() < 5e-3
    assert total_mults >= 3  # impossible without refreshes


def test_custom_config_overrides():
    cfg = BootstrapConfig(taylor_degree=31, max_arg=4.0, range_bound=8)
    params = CkksParams(degree=256, max_level=15, digits=1,
                        secret_hamming=8, seed=21)
    ctx = CkksContext(params)
    sk = ctx.keygen()
    bs = Bootstrapper(ctx, sk, cfg)
    assert bs.range_bound == 8
    assert bs.squarings == int(np.ceil(np.log2(2 * np.pi * 8 / 4.0)))
