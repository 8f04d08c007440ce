"""Multi-tenant encrypted serving, end to end: the `repro.serve` demo.

Eight tenants share one CraterLake-class chip.  Each submits small
scoring queries (a mix of logreg and the deeper lstm kind) that the
front-end packs - up to eight queries per CKKS ciphertext, one 16-slot
block each - and runs through the real homomorphic pipeline under the
full reliability stack.  Along the way this script injects one stubborn
chip fault (persistent enough to defeat in-executor checkpoint replay,
so the serve-level retry with backoff has to absorb it) and lets one
tenant send garbage until its circuit breaker opens.

What to watch in the output:

* the per-tenant table: every honest tenant's queries complete with
  answers matching the plaintext reference; the poison tenant's traffic
  is quarantined (breaker sheds) without touching anyone else;
* the fault line: the injected fault is detected, retried, and the
  affected batch still completes with a bit-clean answer;
* p50/p99: tail latency stays bounded because degradation (smaller,
  eager batches) kicks in before shedding under backlog.

    python examples/serving_demo.py
"""

import numpy as np

from repro.analysis import format_table
from repro.reliability import faults as rfaults
from repro.reliability.errors import ReproError
from repro.serve import ServeConfig, Server
from repro.serve.loadgen import STUBBORN
from repro.workloads.serving import slot_reference

SEED = 7
TENANTS = 8
ROUNDS = 12           # each tenant offers one query per round
POISON = "t7"         # sends NaNs until the breaker quarantines it
FAULT_BATCH = 3       # which dispatch gets the stubborn fault


def make_fault_factory(injector):
    """Arm one stubborn limb fault on FAULT_BATCH's first attempt."""
    def factory(batch_id, attempt, steps):
        if batch_id != FAULT_BATCH or attempt > 0:
            return steps
        fired = [0]
        first = steps[0]

        def faulted(ctx, state):
            if fired[0] < STUBBORN:
                fired[0] += 1
                injector.arm(rfaults.LIMB)
                injector.maybe_corrupt(rfaults.LIMB,
                                       state[first.source].c0.data)
            first.fn(ctx, state)

        return [first._replace(fn=faulted)] + list(steps[1:])
    return factory


def main():
    rng = np.random.default_rng(SEED)
    injector = rfaults.FaultInjector(seed=SEED)
    cfg = ServeConfig(seed=SEED, verify_responses=True)
    server = Server(cfg, fault_factory=make_fault_factory(injector))
    clock = server.clock

    stats = {f"t{i}": {"ok": 0, "shed": 0, "worst": 0.0}
             for i in range(TENANTS)}
    with rfaults.injecting(injector):
        for rnd in range(ROUNDS):
            for i in range(TENANTS):
                tenant = f"t{i}"
                kind = "lstm" if (i + rnd) % 3 == 0 else "logreg"
                payload = rng.uniform(-1, 1, cfg.block_slots)
                if tenant == POISON:
                    payload[0] = np.nan
                try:
                    server.submit(tenant, kind, payload)
                except ReproError:
                    stats[tenant]["shed"] += 1
                clock.advance(3e-5)       # ~33k offered qps
                while server.pump():
                    pass
        # Drain: run the clock forward until the queue empties.
        while server.queue:
            clock.advance_to(server.next_wake(clock.now()))
            while server.pump():
                pass

    # Audit every completed answer against the plaintext reference.
    by_batch = {b.batch_id: b for b in server.batches}
    for resp in server.responses:
        if not resp.ok:
            continue
        batch = by_batch[resp.batch_id]
        vec, layout = server.packer.pack(batch.requests)
        ref = slot_reference(batch.kind, vec, server.weights,
                             cfg.block_slots)
        i = batch.requests.index(resp.request)
        err = abs(resp.value - ref[layout.readout_slot(i)])
        t = stats[resp.request.tenant]
        t["ok"] += 1
        t["worst"] = max(t["worst"], err)

    rows = []
    for tenant in sorted(stats):
        s = stats[tenant]
        breaker = server.breakers.get(tenant)
        rows.append([
            tenant, s["ok"], s["shed"],
            f"{s['worst']:.1e}" if s["ok"] else "-",
            breaker.state if breaker else "closed",
        ])
    print(format_table(
        ["tenant", "completed", "shed", "worst |err|", "breaker"], rows,
        title=f"{TENANTS} tenants sharing one chip "
              f"({ROUNDS} rounds, poison={POISON})"))

    lat = server.latencies()
    p = lambda q: lat[min(len(lat) - 1, int(q * (len(lat) - 1)))] * 1e3
    t = server.tally
    print(f"\nlatency: p50={p(.5):.3f}ms p99={p(.99):.3f}ms "
          f"over {t['completed']} completions")
    print(f"faults: {t['faults_recovered']} recovered in-executor, "
          f"{t['retries']} serve-level retries "
          f"(batch {FAULT_BATCH} survived a stubborn limb fault)")
    print(f"shed: {t['shed']} total "
          f"(invalid={t['shed.invalid']}, breaker={t['shed.breaker']})")
    print(f"dispatches: {t['dispatches']} "
          f"({t['degraded_dispatches']} degraded), "
          f"queue peak {server.max_queue_seen}/{cfg.queue_depth}")

    honest = [f"t{i}" for i in range(TENANTS) if f"t{i}" != POISON]
    assert all(stats[t]["worst"] < 1e-3 for t in honest)
    assert server.tally["retries"] >= 1, "the stubborn fault must retry"
    assert stats[POISON]["shed"] > 0, "poison tenant must be shed"
    print("\nall honest tenants served correct answers; "
          "the poison tenant was quarantined.")


if __name__ == "__main__":
    main()
