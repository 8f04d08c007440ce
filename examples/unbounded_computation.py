"""Unbounded encrypted computation: the paper's headline capability.

A level-1 CKKS ciphertext cannot absorb a single further multiplication.
In **strict** mode (the default reliability policy) the library says so:
the multiply raises ``NoiseBudgetExhaustedError`` instead of silently
decrypting to garbage.  In **degrade** mode the context repairs the
situation itself - it bootstraps whenever the budget runs out and keeps
going, which is Fig. 2 of the paper executed for real at toy parameters
(takes ~1 minute).  The auto-inserted bootstraps are visible in the obs
counters and the exported Chrome trace.

The closing act runs the same kind of long chain under fault injection:
a transient bit flip lands mid-computation, the sealed-ciphertext
checksums catch it, and :class:`~repro.reliability.RecoveringExecutor`
rolls back to the last checkpoint and replays - the final answer is
bit-identical to the fault-free run.

    python examples/unbounded_computation.py
"""

import time

import numpy as np

from repro import Bootstrapper, CkksContext, CkksParams, obs
from repro.reliability import NoiseBudgetExhaustedError, ReliabilityPolicy
from repro.reliability.recovery import RecoveringExecutor, RecoveryPolicy


def main():
    params = CkksParams(degree=512, max_level=19, digits=1,
                        secret_hamming=16, seed=11)
    ctx = CkksContext(params)
    sk = ctx.keygen()
    print(f"context: N={params.degree}, chain of {params.max_level} "
          f"28-bit moduli, 1-digit boosted keyswitching")

    n = params.slots
    values = np.full(n, 0.02)
    ct = ctx.encrypt_values(sk, values, level=1)
    expected = values.copy()
    factor = np.full(n, 1.1)
    print(f"\nstart: level {ct.level} (multiplicative budget EXHAUSTED)")

    # -- strict mode: the failure is loud, typed, and actionable ------------
    try:
        ctx.pmult(ct, factor)
    except NoiseBudgetExhaustedError as err:
        print(f"strict mode refuses the multiply:\n  {err}")

    # -- degrade mode: the context bootstraps for us ------------------------
    t0 = time.time()
    ctx.policy = ReliabilityPolicy(mode="degrade")
    ctx.set_bootstrapper(Bootstrapper(ctx, sk))
    print(f"\nbootstrapper registered in {time.time() - t0:.1f}s; "
          "switching the context to 'degrade' mode")

    target_mults = 12
    t0 = time.time()
    with obs.collecting() as collector:
        for _ in range(target_mults):
            ct = ctx.pmult(ct, factor)  # no explicit bootstrap anywhere
            expected = expected * factor
        err = np.max(np.abs(ctx.decrypt(sk, ct) - expected))
    elapsed = time.time() - t0

    boots = int(collector.counters.get("reliability.auto_bootstrap", 0))
    print(f"performed {target_mults} sequential multiplications in "
          f"{elapsed:.1f}s (max err {err:.1e})")
    print(f"the context auto-inserted {boots} bootstraps "
          f"(counter reliability.auto_bootstrap), ending at level {ct.level}")

    spans = collector.span_totals().get("reliability.auto_bootstrap")
    if spans:
        count, seconds = spans
        print(f"trace shows {count} auto-bootstrap spans "
              f"totalling {seconds:.1f}s")

    print("\na ciphertext that started with budget for zero multiplies "
          "ran arbitrarily deep -")
    print("computation depth is unbounded, exactly the paper's claim.")

    recovery_demo()


def recovery_demo():
    """A transient fault mid-chain: detect, roll back, replay, match."""
    print("\n-- fault recovery " + "-" * 54)
    params = CkksParams(degree=128, max_level=4, digits=1,
                        secret_hamming=8, seed=7)
    ctx = CkksContext(params, policy=ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    rot = ctx.rotation_hint(sk, 1)

    rng = np.random.default_rng(0)
    start = {name: ctx.encrypt_values(
                 sk, 0.5 * rng.standard_normal(ctx.params.slots))
             for name in ("acc", "base")}

    def fresh():
        return {name: ct.copy() for name, ct in start.items()}

    def rot_step(c, s):
        s["acc"] = c.rotate(s["acc"], 1, rot)

    def add_step(c, s):
        s["acc"] = c.add(s["acc"], s["base"])

    steps = [(f"op{i}", rot_step if i % 2 == 0 else add_step)
             for i in range(8)]

    # Fault-free reference.
    reference = fresh()
    for _, fn in steps:
        fn(ctx, reference)

    # Same chain, but a cosmic ray flips one limb word at step 5.
    fired = []

    def faulty_step(c, s):
        if not fired:
            fired.append(True)
            s["acc"].c0.data[0, 3] ^= np.uint64(1 << 17)
        add_step(c, s)

    trial = list(steps)
    trial[5] = ("op5", faulty_step)

    exe = RecoveringExecutor(ctx, RecoveryPolicy(checkpoint_every=2))
    state, stats = exe.run(trial, fresh())

    exact = (np.array_equal(state["acc"].c0.data, reference["acc"].c0.data)
             and np.array_equal(state["acc"].c1.data,
                                reference["acc"].c1.data))
    print(f"injected 1 transient bit flip at step 5 of {len(steps)}")
    print(f"detected {stats.detections} fault(s), rolled back "
          f"{stats.rollbacks} time(s), replayed {stats.replayed_steps} step(s) "
          f"from the step-{4} checkpoint")
    print(f"final ciphertext bit-identical to the fault-free run: {exact}")
    print("the chain self-healed: unbounded computation survives transient "
          "hardware faults.")


if __name__ == "__main__":
    main()
