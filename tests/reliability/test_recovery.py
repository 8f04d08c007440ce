"""Checkpoint/replay recovery: the executor's escalation ladder end to end."""

import numpy as np
import pytest

from repro.core.config import ChipConfig
from repro.core.simulator import simulate
from repro.fhe.ckks import CkksContext, CkksParams
from repro.interpret import LEAD_KINDS, lower
from repro.reliability import guards
from repro.reliability.backoff import Backoff
from repro.reliability.campaign import check
from repro.reliability.errors import (
    FaultDetectedError,
    ParameterError,
    UnrecoverableFaultError,
)
from repro.reliability.recovery import (
    RecoveringExecutor,
    RecoveryPolicy,
    RingBufferStore,
    campaign_program,
    restore_checkpoint,
    run_recovery_campaign,
    sealed_copy,
    take_checkpoint,
    verified_copy,
)


@pytest.fixture(scope="module")
def rctx():
    """Small sealed-ciphertext context shared by the executor tests."""
    params = CkksParams(degree=128, max_level=4, digits=1,
                        secret_hamming=8, seed=11)
    ctx = CkksContext(params, policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    rot = ctx.rotation_hint(sk, 1)
    return ctx, sk, rot


_START_CACHE: dict[int, dict] = {}


def _state(ctx, sk, seed=0):
    """Bit-identical starting state on every call.

    Encryption draws from the context's rng, so two ``encrypt_values``
    calls never produce the same ciphertext; copy one encryption for
    every run that must be comparable bit-for-bit.
    """
    start = _START_CACHE.get(seed)
    if start is None:
        rng = np.random.default_rng(seed)
        start = _START_CACHE[seed] = {
            name: ctx.encrypt_values(
                sk, 0.5 * rng.standard_normal(ctx.params.slots))
            for name in ("acc", "base")
        }
    return {name: ct.copy() for name, ct in start.items()}


def _steps(ctx, rot, n=6):
    def rot_step(c, s):
        s["acc"] = c.rotate(s["acc"], 1, rot)

    def add_step(c, s):
        s["acc"] = c.add(s["acc"], s["base"])

    return [(f"s{i}", rot_step if i % 2 == 0 else add_step)
            for i in range(n)]


def _reference(ctx, sk, rot, n=6, seed=0):
    state = _state(ctx, sk, seed)
    for _, fn in _steps(ctx, rot, n):
        fn(ctx, state)
    return state["acc"]


def test_clean_run_is_inert(rctx):
    ctx, sk, rot = rctx
    exe = RecoveringExecutor(ctx, RecoveryPolicy(checkpoint_every=2))
    state, stats = exe.run(_steps(ctx, rot), _state(ctx, sk))
    ref = _reference(ctx, sk, rot)
    assert stats.detections == 0
    assert stats.rollbacks == 0
    assert stats.replayed_steps == 0
    assert stats.checkpoints_taken > 0
    assert stats.recovered
    assert np.array_equal(state["acc"].c0.data, ref.c0.data)
    assert np.array_equal(state["acc"].c1.data, ref.c1.data)


def test_transient_fault_rolls_back_and_replays(rctx):
    ctx, sk, rot = rctx
    steps = _steps(ctx, rot)
    fired = []

    def corrupt_once(c, s):
        if not fired:
            fired.append(True)
            s["acc"].c0.data[0, 0] ^= np.uint64(1 << 7)
        steps[3][1](c, s)

    trial = list(steps)
    trial[3] = ("s3", corrupt_once)
    exe = RecoveringExecutor(ctx, RecoveryPolicy(checkpoint_every=2))
    state, stats = exe.run(trial, _state(ctx, sk))
    ref = _reference(ctx, sk, rot)
    assert stats.detections >= 1
    assert stats.rollbacks >= 1
    assert stats.replayed_steps >= 1
    assert stats.recovered
    # Replay is deterministic: the recovered output is bit-identical to
    # the fault-free run's.
    assert np.array_equal(state["acc"].c0.data, ref.c0.data)
    assert np.array_equal(state["acc"].c1.data, ref.c1.data)


def test_fault_on_last_step_caught_at_output_commit(rctx):
    ctx, sk, rot = rctx
    steps = _steps(ctx, rot)
    last = len(steps) - 1
    fired = []

    def corrupt_after(c, s):
        steps[last][1](c, s)
        if not fired:
            fired.append(True)
            s["acc"].c0.data[0, 0] ^= np.uint64(1 << 5)

    trial = list(steps)
    trial[last] = (f"s{last}", corrupt_after)
    exe = RecoveringExecutor(ctx, RecoveryPolicy(checkpoint_every=2))
    state, stats = exe.run(trial, _state(ctx, sk))
    ref = _reference(ctx, sk, rot)
    assert stats.detections >= 1  # the output-commit verify caught it
    assert np.array_equal(state["acc"].c0.data, ref.c0.data)


def test_persistent_fault_escalates_to_unrecoverable(rctx):
    ctx, sk, rot = rctx

    def always_faults(c, s):
        raise FaultDetectedError("stuck-at fault", site="test")

    steps = _steps(ctx, rot, 4)
    trial = list(steps)
    trial[2] = ("s2", always_faults)
    policy = RecoveryPolicy(checkpoint_every=2, max_retries=2, max_restarts=1)
    exe = RecoveringExecutor(ctx, policy)
    with pytest.raises(UnrecoverableFaultError) as exc:
        exe.run(trial, _state(ctx, sk))
    # retries twice, restarts once, retries twice again, then gives up.
    assert exc.value.context["detections"] == 6
    assert exc.value.context["restarts"] == 1
    # The subclass stays catchable as its parent.
    assert isinstance(exc.value, FaultDetectedError)


def test_corrupt_checkpoint_detected_and_walked_back(rctx):
    ctx, sk, rot = rctx
    steps = _steps(ctx, rot)
    store = RingBufferStore(4)
    fired = []

    def corrupt_then(c, s):
        if not fired:
            fired.append(True)
            # Damage the newest stored checkpoint at rest, then the live
            # state: recovery must reject the poisoned rollback target
            # and walk back to an older one.
            newest = store.latest()
            newest.entries["acc"].c0.data[0, 0] ^= np.uint64(1 << 3)
            s["acc"].c0.data[0, 0] ^= np.uint64(1 << 9)
        steps[4][1](c, s)

    trial = list(steps)
    trial[4] = ("s4", corrupt_then)
    exe = RecoveringExecutor(ctx, RecoveryPolicy(checkpoint_every=2),
                             store=store)
    state, stats = exe.run(trial, _state(ctx, sk))
    ref = _reference(ctx, sk, rot)
    assert stats.detections >= 1
    assert stats.recovered
    assert np.array_equal(state["acc"].c0.data, ref.c0.data)


def test_checkpoint_refuses_corrupted_entry(rctx):
    ctx, sk, rot = rctx
    state = _state(ctx, sk)
    state["acc"].c0.data[0, 0] ^= np.uint64(1 << 4)
    with pytest.raises(FaultDetectedError):
        take_checkpoint(ctx, state, 0)


def test_restore_detects_at_rest_corruption(rctx):
    ctx, sk, _ = rctx
    state = _state(ctx, sk)
    ckpt = take_checkpoint(ctx, state, 0)
    ckpt.entries["base"].c1.data[0, 0] ^= np.uint64(1 << 2)
    with pytest.raises(FaultDetectedError, match="at rest"):
        restore_checkpoint(ckpt)


def test_snapshot_restore_roundtrip_bit_identical(rctx):
    ctx, sk, _ = rctx
    sealed = _state(ctx, sk)["acc"]
    unsealed = sealed.copy()
    unsealed.integrity = None
    for ct in (sealed, unsealed):
        snap = sealed_copy(ct)
        back = verified_copy(snap)
        assert np.array_equal(back.c0.data, ct.c0.data)
        assert np.array_equal(back.c1.data, ct.c1.data)
        assert back.scale == ct.scale
        assert back.basis.moduli == ct.basis.moduli
        assert back.c0.data is not ct.c0.data  # a genuine deep copy
        # Each copy holds its own seals, computed if ``ct`` had none.
        for copy in (snap, back):
            assert copy.integrity[0] is not sealed.integrity[0]
            assert np.array_equal(copy.integrity, sealed.integrity)


def test_executor_prices_checkpoints_and_replays(rctx):
    ctx, sk, rot = rctx
    steps = _steps(ctx, rot)
    fired = []

    def corrupt_once(c, s):
        if not fired:
            fired.append(True)
            s["acc"].c0.data[0, 0] ^= np.uint64(1 << 6)
        steps[3][1](c, s)

    trial = list(steps)
    trial[3] = ("s3", corrupt_once)
    cfg = ChipConfig()
    exe = RecoveringExecutor(ctx, RecoveryPolicy(checkpoint_every=2),
                             cfg=cfg, step_cycles=[5.0] * len(steps))
    _, stats = exe.run(trial, _state(ctx, sk))
    assert stats.checkpoint_cycles > 0
    assert stats.replay_cycles == 5.0 * stats.replayed_steps
    assert stats.overhead_cycles == (stats.checkpoint_cycles
                                     + stats.replay_cycles)


def test_policy_validation():
    with pytest.raises(ParameterError):
        RecoveryPolicy(checkpoint_every=0)
    with pytest.raises(ParameterError):
        RecoveryPolicy(max_retries=-1)
    assert RecoveryPolicy().backoff is None
    policy = RecoveryPolicy(backoff=Backoff(0.5, 2.0, 0.0))
    assert policy.backoff.pause(2) == 1.0


def test_ring_buffer_store_bounds_and_drops():
    store = RingBufferStore(2)
    from repro.reliability.recovery import Checkpoint

    for step in (1, 2, 3):
        store.save(Checkpoint(step=step, entries={}))
    assert len(store) == 2
    assert store.latest().step == 3
    assert store.drop_latest().step == 3
    assert store.latest().step == 2
    with pytest.raises(ParameterError):
        RingBufferStore(0)


# -- campaign smoke test -----------------------------------------------------


@pytest.fixture(scope="module")
def recovery_campaign():
    return run_recovery_campaign(seed=2022, faults=16, degree=128,
                                 max_level=4, clean_runs=2)


def test_campaign_steps_start_like_the_serving_programs():
    """The serving programs' steps start with a rotate or a pmult, so
    limb victims meet both kinds in the campaign too."""
    plan = lower(campaign_program(128, 4, 8))
    leads = [next(op.kind for op in s.ops if op.kind in LEAD_KINDS)
             for s in plan.steps]
    assert set(leads) == {"pmult", "rotate"}


def test_recovery_campaign_recovers_all_detected(recovery_campaign):
    r = recovery_campaign
    assert r.false_positives == 0
    for site, stats in r.sites.items():
        assert stats.injected > 0, site
        assert r.detection_rate(site) == 1.0, site
    assert r.detected == r.injected          # every injection detected
    assert r.recovered == r.detected         # every detection recovered
    assert r.aborted == 0 and r.undetected == 0
    assert r.recovery_rate == 1.0


def test_recovery_campaign_accounts_overhead(recovery_campaign):
    r = recovery_campaign
    assert r.checkpoint_cycles > 0
    assert r.replay_cycles > 0
    assert r.base_cycles_per_run > 0
    report = r.report()
    assert "recovered" in report and "cycles" in report


def test_recovery_campaign_prices_a_run_as_simulated(recovery_campaign):
    """The useful cycles the overhead is measured against are the
    simulated run of the campaign's program."""
    run = simulate(campaign_program(128, 4, 8), ChipConfig())
    assert recovery_campaign.base_cycles_per_run == run.program_cycles


def test_recovery_campaign_reproducible(recovery_campaign):
    again = run_recovery_campaign(seed=2022, faults=16, degree=128,
                                  max_level=4, clean_runs=2)
    for site, stats in recovery_campaign.sites.items():
        assert again.sites[site].injected == stats.injected
        assert again.sites[site].detected == stats.detected
        assert again.sites[site].recovered == stats.recovered
        assert again.sites[site].replayed_steps == stats.replayed_steps


def test_wrong_replay_is_a_wrong_answer_not_an_abort(monkeypatch):
    """A detected fault whose replay converges on a wrong ciphertext is
    counted as a wrong answer, so the 0-wrong-answers gate sees it."""
    restore = RecoveringExecutor._restore

    def lossy_restore(self, *args):
        state, step = restore(self, *args)
        ct = next(iter(state.values()))
        ct.c0.data[0, 0] ^= np.uint64(1)
        self.ctx.seal(ct)   # validly sealed, so replay runs clean
        return state, step

    monkeypatch.setattr(RecoveringExecutor, "_restore", lossy_restore)
    r = run_recovery_campaign(seed=2022, faults=4, degree=128, max_level=4,
                              clean_runs=1)
    assert r.detected == r.injected > 0
    assert r.wrong_answers == r.injected
    assert r.recovered == r.unrecovered == 0
    assert check(r, r.to_json()) == [
        f"gate: wrong_answers = {r.injected}, must be 0"]


def test_clean_run_differing_only_in_c1_is_a_false_positive(monkeypatch):
    """The clean phase compares both halves against the reference: a
    clean run whose output differs only in c1 is a false positive."""
    run = RecoveringExecutor.run
    calls = []

    def c1_drift(self, *args):
        state, stats = run(self, *args)
        calls.append(True)
        if len(calls) > 1:  # the first run is the reference
            for ct in {id(ct): ct for ct in state.values()}.values():
                ct.c1.data[0, 0] ^= np.uint64(1)
                self.ctx.seal(ct)
        return state, stats

    monkeypatch.setattr(RecoveringExecutor, "run", c1_drift)
    r = run_recovery_campaign(seed=2022, faults=0, degree=128, max_level=4,
                              clean_runs=2)
    assert r.false_positives == 2
