"""PodExecutor: partition shards run as the source program, and fault
recovery (migration, retransmit, escalation) is bit-exact.

Every fault test compares against a fault-free reference run of the
same pod program - the recovery contract is *bit-exact* equivalence,
not approximate agreement.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import f1plus_config
from repro.compiler.cache import compile_program
from repro.core.config import ChipConfig
from repro.fhe.ckks import CkksContext, CkksParams
from repro.interpret import lower
from repro.pod import CutEdge, PodConfig, PodExecutor, partition
from repro.pod.config import LINK_RETRIES, MODEL_PARALLEL
from repro.reliability import guards
from repro.reliability.errors import (
    ChipFailure,
    InterconnectError,
    ParameterError,
    ScheduleError,
)
from repro.reliability.faults import CHIP, LINK, FaultInjector
from repro.serve.config import ServeConfig
from repro.workloads.serving import (
    rotation_strides,
    serving_program,
    serving_weights,
)

CHIPS = 3
STEPS = 11  # the lstm pod program's steps over 3 chips: [1, 5, 5]
SERVE = ServeConfig()


@pytest.fixture(scope="module")
def fhe():
    params = CkksParams(degree=SERVE.degree, max_level=SERVE.max_level,
                        digits=1, secret_hamming=16, seed=99)
    ctx = CkksContext(params,
                      policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    rng = np.random.default_rng(99)
    batch = ctx.seal(ctx.encrypt_values(
        sk, 0.5 * rng.standard_normal(params.slots)))
    return ctx, sk, batch


def shards(ctx, sk, kind, chips, chip=None):
    """The compiled serving ``kind`` batch, partitioned model-parallel
    over ``chips`` chips of machine ``chip`` (CraterLake by default):
    the source program, the pod, each shard's lowered plan, and the
    partition."""
    chip = chip or ChipConfig()
    program = compile_program(
        serving_program(kind, SERVE.degree, SERVE.max_level,
                        SERVE.block_slots, SERVE.max_batch), chip)
    hints = {s: ctx.rotation_hint(sk, s)
             for s in rotation_strides(SERVE.block_slots)}
    weights = serving_weights(3, SERVE.slots, SERVE.block_slots)
    pod = PodConfig(chips=chips, strategy=MODEL_PARALLEL, seed=7)
    part = partition(program, chip, pod)
    plans = {s.chip: lower(s.program, hints, weights) for s in part.shards}
    return lower(program, hints, weights), pod, plans, part


@pytest.fixture(scope="module")
def pod_program(fhe):
    """The pod campaign's program, at 3 chips."""
    ctx, sk, batch = fhe
    _, pod, plans, part = shards(ctx, sk, "lstm", CHIPS)
    initial = {0: {plans[0].inputs[0]: batch}}
    return pod, plans, part.edges, initial


def build(ctx, pod_program, injector=None, transfers=None):
    pod, plans, all_transfers, initial = pod_program
    return PodExecutor(
        ctx, pod, ChipConfig(), plans, initial,
        transfers=all_transfers if transfers is None else transfers,
        injector=injector)


def states_equal(a, b):
    for c in a:
        if a[c].keys() != b[c].keys():
            return False
        for name, x in a[c].items():
            y = b[c][name]
            if not (np.array_equal(x.c0.data, y.c0.data)
                    and np.array_equal(x.c1.data, y.c1.data)
                    and x.scale == y.scale):
                return False
    return True


@pytest.fixture(scope="module")
def reference(fhe, pod_program):
    return build(fhe[0], pod_program).run()


@pytest.mark.parametrize("kind", ["logreg", "lstm"])
@pytest.mark.parametrize("chips", [2, 3, 4])
def test_partition_computes_what_its_source_computes(fhe, kind, chips):
    """Fault-free, the shards of a model-parallel partition answer bit
    for bit like the single-chip run of the program they were cut from."""
    ctx, sk, batch = fhe
    whole, pod, plans, part = shards(ctx, sk, kind, chips)
    want = whole.run(ctx, {whole.inputs[0]: batch.copy()})
    want = want[whole.outputs[0]]

    initial = {s.chip: {name: batch for name in plans[s.chip].inputs
                        if name not in s.stitched_inputs}
               for s in part.shards}
    ex = PodExecutor(ctx, pod, ChipConfig(), plans, initial,
                     transfers=part.edges)
    final = ex.run()
    got = [final[c][whole.outputs[0]] for c in plans
           if whole.outputs[0] in plans[c].outputs]
    assert len(got) == 1
    assert np.array_equal(got[0].c0.data, want.c0.data)
    assert np.array_equal(got[0].c1.data, want.c1.data)
    assert got[0].scale == want.scale


def test_clean_run_is_deterministic(fhe, pod_program, reference):
    _, plans, _, _ = pod_program
    assert sum(len(plan.steps) for plan in plans.values()) == STEPS
    ex = build(fhe[0], pod_program)
    again = ex.run()
    assert states_equal(again, reference)
    assert ex.stats.replayed_steps == 0 and ex.stats.replay_cycles == 0


@pytest.mark.parametrize("skip", range(STEPS))
def test_chip_failstop_recovers_bit_exact(fhe, pod_program, reference,
                                          skip):
    """A chip lost at any step migrates and replays to the same bits."""
    inj = FaultInjector(seed=5)
    inj.arm(CHIP, skip=skip)
    ex = build(fhe[0], pod_program, injector=inj)
    final = ex.run()
    assert ex.stats.chip_failures == 1
    assert ex.stats.migrations >= 1
    assert len(ex.dead) == 1
    # Replays are priced by the cycle model, and only replays are.
    assert (ex.stats.replay_cycles > 0) == (ex.stats.replayed_steps > 0)
    assert states_equal(final, reference)


def test_replays_are_priced_on_the_partitioned_machine(fhe):
    """A pod partitioned for F1+ charges each replayed step its F1+
    step price, in replay order."""
    ctx, sk, batch = fhe
    cfg = f1plus_config()
    _, pod, plans, part = shards(ctx, sk, "lstm", CHIPS, cfg)
    prices = {c: plan.step_cycles(cfg) for c, plan in plans.items()}
    default = {c: plan.step_cycles(ChipConfig())
               for c, plan in plans.items()}
    ran = []

    def logged(c, i, fn):
        def run(ctx_, state):
            ran.append((c, i))
            fn(ctx_, state)
        return run

    logged_plans = {
        c: replace(plan, steps=[step._replace(fn=logged(c, i, step.fn))
                                for i, step in enumerate(plan.steps)])
        for c, plan in plans.items()}
    initial = {0: {plans[0].inputs[0]: batch}}
    replayed_runs = 0
    for skip in range(STEPS):
        inj = FaultInjector(seed=5)
        inj.arm(CHIP, skip=skip)
        ran.clear()
        ex = PodExecutor(ctx, pod, cfg, logged_plans, initial,
                         transfers=part.edges, injector=inj)
        ex.run()
        seen = set()
        want = on_default = 0.0
        for c, i in ran:
            if (c, i) in seen:
                want += prices[c][i]
                on_default += default[c][i]
            seen.add((c, i))
        assert ex.stats.replay_cycles == want
        if ex.stats.replayed_steps:
            replayed_runs += 1
            assert want != on_default
    assert replayed_runs


def test_link_corruption_detected_and_retransmitted(fhe, pod_program,
                                                    reference):
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=1)
    ex = build(fhe[0], pod_program, injector=inj)
    final = ex.run()
    assert ex.stats.link_faults_detected == 1
    assert ex.stats.retransmits == 1
    assert ex.stats.backoff_s > 0
    assert states_equal(final, reference)


def test_stubborn_link_fault_exhausts_then_succeeds(fhe, pod_program,
                                                    reference):
    """A corruption burst one shy of the budget still recovers."""
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=0, count=LINK_RETRIES)
    ex = build(fhe[0], pod_program, injector=inj)
    final = ex.run()
    assert ex.stats.link_faults_detected == LINK_RETRIES
    assert ex.stats.retransmits == LINK_RETRIES
    assert states_equal(final, reference)


def test_link_budget_exhaustion_escalates_typed(fhe, pod_program):
    inj = FaultInjector(seed=5)
    inj.arm(LINK, skip=0, count=LINK_RETRIES + 1)  # every attempt corrupted
    ex = build(fhe[0], pod_program, injector=inj)
    with pytest.raises(InterconnectError):
        ex.run()


def test_losing_every_chip_raises_chipfailure(fhe, pod_program):
    ex = build(fhe[0], pod_program, injector=FaultInjector(seed=5))
    for c in range(CHIPS):
        ex._checkpoint(c)  # run() does this before any step
    # Kill all chips by hand; the next failure has nowhere to migrate.
    ex._fail_chip(0)
    ex._fail_chip(1)
    with pytest.raises(ChipFailure):
        ex._fail_chip(2)


def test_transfer_of_missing_value_is_parameter_error(fhe, pod_program):
    with pytest.raises(ParameterError, match="no step of the sender"):
        build(fhe[0], pod_program,
              transfers=[CutEdge(value="nonexistent", src=0, dst=1,
                                 words=0.0)])


def test_unfed_input_is_a_schedule_error(fhe, pod_program):
    """A stitched INPUT no transfer feeds stalls the pod: typed, not a
    spin."""
    _, _, transfers, _ = pod_program
    ex = build(fhe[0], pod_program, transfers=transfers[:-1])
    with pytest.raises(ScheduleError, match="no chip can advance"):
        ex.run()


def test_plan_outside_pod_rejected(fhe, pod_program):
    pod, plans, _, initial = pod_program
    with pytest.raises(ParameterError):
        PodExecutor(fhe[0], PodConfig(chips=2), ChipConfig(), {5: plans[0]},
                    initial)
