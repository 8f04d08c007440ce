"""The functional interpreter runs the program the cycle model prices.

`repro.interpret` lowers a :class:`~repro.ir.Program` to executor steps
over the real CKKS layer.  These tests pin the three properties the
serving, recovery and pod layers rely on:

* a clean run executes exactly the ops ``simulate`` charges, kind for
  kind (``fhe.ops.*`` == ``sim.ops.*``);
* lowering reproduces the arithmetic of the hand-written serving
  pipeline bit-for-bit;
* the step cut (one step per keyswitch or plaintext multiply) and the
  free-on-last-use state keep checkpoints to the live values.
"""

import numpy as np
import pytest

from repro.compiler import FheBuilder
from repro.core.config import ChipConfig
from repro.core.simulator import simulate
from repro.interpret import lower
from repro.ir import HomOp, Program
from repro.obs import collector as obs
from repro.pod import PodConfig, partition
from repro.reliability.errors import (
    FaultDetectedError,
    ParameterError,
    ScheduleError,
)
from repro.reliability.recovery import campaign_program
from repro.serve import ServeConfig, Server
from repro.workloads.serving import (
    SERVE_KINDS,
    rotation_strides,
    serving_program,
)


@pytest.fixture(scope="module")
def server():
    return Server(ServeConfig(seed=5))


def _kinds(counters: dict, prefix: str) -> dict[str, float]:
    return {k[len(prefix):]: v for k, v in counters.items()
            if k.startswith(prefix)}


def _run_batch(server, kind, occupancy):
    server.queue.clear()
    server.chip_free_at = server.clock.now()
    for i in range(occupancy):
        server.submit(f"t{i}", kind, np.full(16, 0.25))
    server.clock.advance(server.cfg.batch_window_s)
    assert server.pump()


@pytest.mark.parametrize("kind", SERVE_KINDS)
@pytest.mark.parametrize("occupancy", [1, 8])
def test_served_batch_runs_the_ops_simulate_charges(server, kind,
                                                    occupancy):
    plan, _ = server._plan(kind, occupancy)
    with obs.collecting() as ran:
        _run_batch(server, kind, occupancy)
    with obs.collecting() as charged:
        result = simulate(plan.program, server.chip)
    executed = _kinds(ran.counters, "fhe.ops.")
    assert executed == _kinds(charged.counters, "sim.ops.")
    assert sum(executed.values()) == len(plan.program.ops)
    # The program the server executes is the one its latency came from.
    assert server.service_seconds(kind, occupancy) \
        == result.cycles / server.chip.clock_hz


def _hand_written(server, kind, master):
    """The direct, uncached CkksContext call sequence each serving kind
    used to be written as."""
    ctx, w = server.ctx, server.weights

    def reduce(x):
        for s in rotation_strides(16):
            x = ctx.add(x, ctx.rotate(x, s, server.hints[s]))
        return x

    out = reduce(ctx.pmult(master, w["w1"]))
    if kind == "lstm":
        out = reduce(ctx.pmult(ctx.pmult(out, w["mask"]), w["w2"]))
    return out


@pytest.mark.parametrize("kind", SERVE_KINDS)
def test_lowered_serving_matches_the_hand_written_pipeline(server, kind):
    """Bit-exact against the direct CkksContext call sequence each kind
    used to be written as."""
    ctx = server.ctx
    master = ctx.encrypt_values(server.sk, np.linspace(-1, 1, 128))
    want = _hand_written(server, kind, master)

    plan, _ = server._plan(kind, 3)
    state = plan.run(ctx, server._initial_state(plan, master))
    got = state[plan.outputs[0]]
    assert np.array_equal(got.c0.data, want.c0.data)
    assert np.array_equal(got.c1.data, want.c1.data)
    assert got.scale == want.scale


def test_plan_memoizes_encoded_weights(server):
    """A plan encodes each weight once per context: its second run only
    hits the plaintext cache and answers bit for bit like the uncached
    call sequence."""
    ctx = server.ctx
    master = ctx.encrypt_values(server.sk, np.linspace(-1, 1, 128))
    plan = lower(server._plan("lstm", 2)[0].program, server.hints,
                 server.weights)
    runs = []
    for _ in range(2):
        with obs.collecting() as ran:
            state = plan.run(ctx, server._initial_state(plan, master))
        runs.append((ran.counters, state[plan.outputs[0]]))
    (first, _), (second, got) = runs
    assert first.get("fhe.cache.plaintext.miss") == 3      # w1, mask, w2
    assert "fhe.cache.plaintext.hit" not in first
    assert second.get("fhe.cache.plaintext.hit") == 3
    assert "fhe.cache.plaintext.miss" not in second
    want = _hand_written(server, "lstm", master)
    assert np.array_equal(got.c0.data, want.c0.data)
    assert np.array_equal(got.c1.data, want.c1.data)
    assert got.scale == want.scale


def test_memoized_weight_is_sealed(server):
    """Under the checksum policy a corrupted memo entry is detected on its
    next use and evicted, so the retry encodes afresh and answers right."""
    ctx = server.ctx
    assert ctx.policy.checksums
    master = ctx.encrypt_values(server.sk, np.linspace(-1, 1, 128))
    plan = lower(server._plan("lstm", 2)[0].program, server.hints,
                 server.weights)
    plan.run(ctx, server._initial_state(plan, master))
    memo = plan._encoded[ctx]
    key = next(iter(memo))
    memo[key][0].poly.data[0, 5] ^= np.uint64(1)
    with pytest.raises(FaultDetectedError, match="memoized plaintext"):
        plan.run(ctx, server._initial_state(plan, master))
    assert key not in memo
    with obs.collecting() as ran:
        state = plan.run(ctx, server._initial_state(plan, master))
    assert ran.counters.get("fhe.cache.plaintext.miss") == 1
    got = state[plan.outputs[0]]
    want = _hand_written(server, "lstm", master)
    assert np.array_equal(got.c0.data, want.c0.data)
    assert np.array_equal(got.c1.data, want.c1.data)


def test_step_cut_one_per_keyswitch_or_pmult():
    logreg = lower(serving_program("logreg", 256, 5, 16, 1))
    assert [s.name for s in logreg.steps] == [
        "score/w1", "reduce/rot8", "reduce/rot4", "reduce/rot2",
        "reduce/rot1"]
    lstm = lower(serving_program("lstm", 256, 5, 16, 1))
    assert len(lstm.steps) == 11
    assert [s.name for s in lstm.steps[5:7]] == ["mask/mask", "score2/w2"]
    assert [s.keyswitches for s in lstm.steps] == \
        [False] + [True] * 4 + [False, False] + [True] * 4
    # The pmult and its rescale are one step (one CkksContext.pmult).
    assert [op.kind for op in lstm.steps[0].ops] == \
        ["input", "pmult", "rescale"]
    assert lstm.steps[0].source == lstm.inputs[0]

    rec = lower(campaign_program(128, 4, 8))
    assert len(rec.steps) == 4           # each rotate with its add
    assert all(s.keyswitches for s in rec.steps)

    # Pod shards lower like any program; a cut never separates a pmult
    # from its rescale, and each stitched INPUT is a step input.
    part = partition(serving_program("lstm", 256, 5, 16, 8), ChipConfig(),
                     PodConfig(chips=3, strategy="model"))
    shards = [lower(shard.program) for shard in part.shards]
    assert [len(plan.steps) for plan in shards] == [1, 5, 5]
    for shard, plan in zip(part.shards, shards):
        assert set(shard.stitched_inputs) <= set(plan.inputs)
        computed = [op for op in shard.program.ops if op.kind != "output"]
        assert computed[-1].kind != "pmult"


def test_state_holds_only_live_values(server):
    """After every step the state is the one live program value plus
    the caller's own resident - what the hand-written pipeline
    checkpointed."""
    ctx = server.ctx
    master = ctx.encrypt_values(server.sk, np.zeros(128))
    plan, _ = server._plan("lstm", 2)
    state = server._initial_state(plan, master)
    for step in plan.steps:
        step.fn(ctx, state)
        assert len(state) == 2 and "base" in state
    assert plan.outputs[0] in state


@pytest.mark.parametrize("kind", SERVE_KINDS)
def test_step_prices_add_up_to_the_simulated_run(server, kind):
    """A step's price is its ops' share of the simulated critical path,
    so the prices of a full run add up to the run itself - a replay
    costs what running the steps again costs."""
    cfg = server.chip
    for occupancy in range(1, server.cfg.max_batch + 1):
        plan, prices = server._plan(kind, occupancy)
        assert prices == plan.step_cycles(cfg)
        assert len(prices) == len(plan.steps)
        assert sum(prices) == simulate(plan.program, cfg).program_cycles


def test_recovery_campaign_program_runs_the_ops_simulate_charges(fhe):
    program = campaign_program(fhe.ctx.params.degree, 6, 8)
    plan = lower(program, {1: fhe.rot1})
    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(3))
    with obs.collecting() as ran:
        plan.run(fhe.ctx, dict.fromkeys(plan.inputs, ct))
    with obs.collecting() as charged:
        simulate(program, ChipConfig())
    assert _kinds(ran.counters, "fhe.ops.") \
        == _kinds(charged.counters, "sim.ops.")


def test_interpreter_rejects_what_it_cannot_run(fhe):
    b = FheBuilder("mult", degree=fhe.ctx.params.degree, max_level=6)
    x = b.input("x", 6)
    b.output(b.mult(x, x, rescale=False))
    plan = lower(b.build())
    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(1))
    with pytest.raises(ScheduleError, match="does not execute this mult"):
        plan.run(fhe.ctx, dict.fromkeys(plan.inputs, ct))

    b = FheBuilder("rot", degree=fhe.ctx.params.degree, max_level=6)
    b.output(b.rotate(b.input("x", 6), 3))
    plan = lower(b.build())                     # no hint for amount 3
    with pytest.raises(ParameterError, match="no rotation hint"):
        plan.run(fhe.ctx, dict.fromkeys(plan.inputs, ct))
    with pytest.raises(ScheduleError, match="not in the state"):
        plan.run(fhe.ctx, {})


def test_shared_pmult_result_is_not_fused_away(fhe):
    """A pmult whose result is read twice cannot hide inside a fused
    ``ctx.pmult`` (its unrescaled product would vanish): rejected."""
    program = Program(name="shared", degree=256, max_level=4)
    program.append(HomOp(kind="input", level=4, result="x"))
    program.append(HomOp(kind="pmult", level=4, result="p",
                         operands=("x",), plaintext_id="w"))
    program.append(HomOp(kind="rescale", level=4, result="r",
                         operands=("p",)))
    program.append(HomOp(kind="add", level=4, result="s",
                         operands=("p", "p")))
    program.append(HomOp(kind="output", level=4, result="o",
                         operands=("r",)))
    plan = lower(program, plaintexts={"w": np.full(fhe.slots, 0.5)})
    ct = fhe.ctx.encrypt_values(fhe.sk, fhe.random_values(5))
    with pytest.raises(ScheduleError, match="does not execute this pmult"):
        plan.run(fhe.ctx, {"x": ct})
