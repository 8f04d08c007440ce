"""Property test: checkpoint save -> load -> resume is exact.

Across random seeds and levels, resuming a program from a checkpoint
(in memory or through :class:`~repro.reliability.recovery.DiskStore`)
must yield ciphertexts bit-identical to the uninterrupted run, carrying
the same noise budget.  This is the determinism contract
:class:`repro.reliability.recovery.RecoveringExecutor` relies on when
it promises replayed results match fault-free execution.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.ckks import CkksContext, CkksParams
from repro.reliability import guards
from repro.reliability.recovery import (
    DiskStore,
    restore_checkpoint,
    take_checkpoint,
)

_CTX_CACHE: dict[tuple, tuple] = {}


def _context(max_level: int, track_noise: bool = False):
    """One sealed context per (level, noise tracking); hypothesis reruns
    share them."""
    key = (max_level, track_noise)
    cached = _CTX_CACHE.get(key)
    if cached is None:
        params = CkksParams(degree=128, max_level=max_level, digits=1,
                            secret_hamming=8, seed=100 + max_level)
        policy = guards.ReliabilityPolicy(checksums=True,
                                          track_noise=track_noise)
        ctx = CkksContext(params, policy=policy)
        sk = ctx.keygen()
        rot = ctx.rotation_hint(sk, 1)
        cached = _CTX_CACHE[key] = (ctx, sk, rot)
    return cached


def _run_steps(ctx, rot, state, start, stop):
    for i in range(start, stop):
        if i % 2 == 0:
            state["acc"] = ctx.rotate(state["acc"], 1, rot)
        else:
            state["acc"] = ctx.add(state["acc"], state["base"])
    return state


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       max_level=st.integers(min_value=2, max_value=4),
       split=st.integers(min_value=1, max_value=5),
       track_noise=st.booleans())
def test_checkpoint_save_load_resume_is_bit_exact(seed, max_level, split,
                                                  track_noise):
    ctx, sk, rot = _context(max_level, track_noise)
    rng = np.random.default_rng(seed)
    values = 0.5 * rng.standard_normal(ctx.params.slots)
    base_vals = 0.5 * rng.standard_normal(ctx.params.slots)
    total = 6

    def fresh_state():
        # Encryption draws from the context rng, so both runs must start
        # from byte-identical ciphertexts: copy one encryption.
        return {"acc": start_acc.copy(), "base": start_base.copy()}

    start_acc = ctx.encrypt_values(sk, values)
    start_base = ctx.encrypt_values(sk, base_vals)

    # Uninterrupted reference run.
    ref = _run_steps(ctx, rot, fresh_state(), 0, total)["acc"]

    # Interrupted run: execute to `split`, checkpoint to disk, reload in
    # a fresh store instance (as a restarted process would), resume.
    state = _run_steps(ctx, rot, fresh_state(), 0, split)
    ckpt = take_checkpoint(ctx, state, split)
    with tempfile.TemporaryDirectory() as tmp:
        DiskStore(tmp).save(ckpt)
        loaded = DiskStore(tmp).load(split)
    assert loaded.step == split
    # The noise budget survives both stores field for field.
    for restored in (restore_checkpoint(ckpt), restore_checkpoint(loaded)):
        for name, ct in state.items():
            assert (ct.budget is not None) == track_noise
            assert restored[name].budget == ct.budget
    resumed = _run_steps(ctx, rot, restore_checkpoint(loaded),
                         loaded.step, total)["acc"]

    assert np.array_equal(resumed.c0.data, ref.c0.data)
    assert np.array_equal(resumed.c1.data, ref.c1.data)
    assert resumed.scale == ref.scale
    assert resumed.basis.moduli == ref.basis.moduli
    assert resumed.budget == ref.budget


def test_disk_store_torn_write_degrades_to_stale_checkpoint():
    """Crash-mid-checkpoint regression: a payload without its manifest
    (the write order guarantees this is the only torn shape) is counted
    stale and recovery falls back to the newest *complete* checkpoint."""
    from repro.obs import collector as obs

    ctx, sk, rot = _context(3)
    rng = np.random.default_rng(7)
    state = {"acc": ctx.encrypt_values(
        sk, 0.5 * rng.standard_normal(ctx.params.slots))}
    with tempfile.TemporaryDirectory() as tmp:
        store = DiskStore(tmp)
        store.save(take_checkpoint(ctx, state, 1))
        store.save(take_checkpoint(ctx, state, 2))
        # No temporary files survive a completed save.
        leftovers = [p.name for p in Path(tmp).iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []
        assert store.steps() == [1, 2]

        # Simulate the crash window: payload committed, manifest not.
        store._path(2).with_suffix(".json").unlink()
        with obs.collecting() as c:
            assert store.steps() == [1]
            fallback = store.latest()
        assert c.counters["reliability.recovery.stale_checkpoints"] >= 1
        assert fallback is not None and fallback.step == 1
        # The stale payload is kept for post-mortems, never loaded.
        assert store._path(2).exists()

        # The torn payload half is also tolerated: manifest alone next.
        store._path(2).unlink()
        store.save(take_checkpoint(ctx, state, 2))
        assert store.steps() == [1, 2]
        restored = restore_checkpoint(store.load(2))
        assert np.array_equal(restored["acc"].c0.data,
                              state["acc"].c0.data)
