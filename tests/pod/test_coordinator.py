"""PodExecutor fault recovery: migration, retransmit, escalation.

Every test compares against a fault-free reference run of the same
plan - the recovery contract is *bit-exact* equivalence, not
approximate agreement.
"""

import numpy as np
import pytest

from repro.fhe.ckks import CkksContext, CkksParams
from repro.pod import PodConfig, PodExecutor, Transfer
from repro.pod.config import LINK_RETRIES
from repro.reliability import guards
from repro.reliability.errors import (
    ChipFailure,
    InterconnectError,
    ParameterError,
)
from repro.reliability.faults import CHIP, LINK, FaultInjector

CHIPS = 3
ROUNDS = 4


@pytest.fixture(scope="module")
def pod_fixture():
    params = CkksParams(degree=64, max_level=4, digits=1,
                        secret_hamming=8, seed=99)
    ctx = CkksContext(params,
                      policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    rot = ctx.rotation_hint(sk, 1)
    rng = np.random.default_rng(99)
    initial = {
        c: {f"v{c}": ctx.seal(ctx.encrypt_values(
            sk, 0.5 * rng.standard_normal(params.slots)))}
        for c in range(CHIPS)
    }
    return ctx, rot, initial


def make_step(c, r, rot):
    def step(ctx, st):
        v = st[f"v{c}"]
        v = ctx.rotate(v, 1, rot) if r % 2 == 0 else ctx.add(v, v)
        rx = st.get("rx")
        if rx is not None:
            v = ctx.add(v, rx)
        st[f"v{c}"] = v
    return step


def build(ctx, rot, initial, injector=None, pod=None):
    pod = pod or PodConfig(chips=CHIPS, seed=7)
    plans = {c: [(f"s{c}.{r}", make_step(c, r, rot))
                 for r in range(ROUNDS)] for c in range(CHIPS)}
    transfers = {r: [Transfer(src=r % CHIPS, dst=(r + 1) % CHIPS,
                              name=f"v{r % CHIPS}", rename="rx")]
                 for r in range(ROUNDS - 1)}
    return PodExecutor(ctx, pod, plans, initial, transfers=transfers,
                       injector=injector)


def states_equal(a, b):
    for c in range(CHIPS):
        x, y = a[c][f"v{c}"], b[c][f"v{c}"]
        if not (np.array_equal(x.c0.data, y.c0.data)
                and np.array_equal(x.c1.data, y.c1.data)):
            return False
    return True


@pytest.fixture(scope="module")
def reference(pod_fixture):
    ctx, rot, initial = pod_fixture
    return build(ctx, rot, initial).run()


def test_clean_run_is_deterministic(pod_fixture, reference):
    ctx, rot, initial = pod_fixture
    again = build(ctx, rot, initial).run()
    assert states_equal(again, reference)


@pytest.mark.parametrize("skip", range(CHIPS * ROUNDS - 2))
def test_chip_failstop_recovers_bit_exact(pod_fixture, reference, skip):
    """A chip lost at any point migrates and replays to the same bits."""
    ctx, rot, initial = pod_fixture
    inj = FaultInjector(seed=5)
    inj.arm(CHIP, skip=skip)
    ex = build(ctx, rot, initial, injector=inj)
    final = ex.run()
    assert ex.stats.chip_failures == 1
    assert ex.stats.migrations >= 1
    assert len(ex.dead) == 1
    assert states_equal(final, reference)


def test_link_corruption_detected_and_retransmitted(pod_fixture, reference):
    ctx, rot, initial = pod_fixture
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=1)
    ex = build(ctx, rot, initial, injector=inj)
    final = ex.run()
    assert ex.stats.link_faults_detected == 1
    assert ex.stats.retransmits == 1
    assert ex.stats.backoff_s > 0
    assert states_equal(final, reference)


def test_stubborn_link_fault_exhausts_then_succeeds(pod_fixture, reference):
    """A corruption burst one shy of the budget still recovers."""
    ctx, rot, initial = pod_fixture
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=0, count=LINK_RETRIES)
    ex = build(ctx, rot, initial, injector=inj)
    final = ex.run()
    assert ex.stats.link_faults_detected == LINK_RETRIES
    assert ex.stats.retransmits == LINK_RETRIES
    assert states_equal(final, reference)


def test_link_budget_exhaustion_escalates_typed(pod_fixture):
    ctx, rot, initial = pod_fixture
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=0, count=LINK_RETRIES + 1)  # every attempt corrupted
    ex = build(ctx, rot, initial, injector=inj)
    with pytest.raises(InterconnectError):
        ex.run()


def test_losing_every_chip_raises_chipfailure(pod_fixture):
    ctx, rot, initial = pod_fixture
    inj = FaultInjector(seed=5)
    ex = build(ctx, rot, initial, injector=inj)
    ex._checkpoint_all()  # run() does this before any step
    # Kill all chips by hand; the next failure has nowhere to migrate.
    ex._fail_chip(0, 0)
    ex._fail_chip(1, 0)
    with pytest.raises(ChipFailure):
        ex._fail_chip(2, 0)


def test_transfer_of_missing_value_is_parameter_error(pod_fixture):
    ctx, rot, initial = pod_fixture
    ex = build(ctx, rot, initial)
    with pytest.raises(ParameterError):
        ex._transfer(Transfer(src=0, dst=1, name="nonexistent"))


def test_plan_outside_pod_rejected(pod_fixture):
    ctx, rot, initial = pod_fixture
    with pytest.raises(ParameterError):
        PodExecutor(ctx, PodConfig(chips=2), {5: []}, initial)
