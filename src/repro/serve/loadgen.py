"""Seeded load generation and the serving fault campaign.

The campaign is the serving layer's end-to-end proof, the same role the
recovery campaign plays one layer down: drive a :class:`Server` with a
seeded open-loop arrival process (Poisson inter-arrivals, a tenant mix,
a kind mix, per-request deadlines), arm chip faults on a seeded subset
of batches, let one tenant send poison payloads, and then *audit*:

* zero wrong answers - every completed response matches the numpy slot
  reference (and, with ``verify_responses``, a bit-exact clean replay);
* every injected fault either recovered (in-executor replay or a
  serve-level retry) or surfaced as a typed failure - never silence;
* the queue never exceeded its bound, and the terminal-outcome tallies
  reconcile exactly against the obs counters
  (``offered == admitted + shed``, ``admitted == completed + expired +
  failed``);
* the whole run is bit-reproducible from its seed (asserted by running
  it twice in tests, and by the committed baseline in CI).

Everything runs on virtual time: two machines produce the same
timeline, latencies and report for the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.obs import collector as obs
from repro.reliability import faults as _faults
from repro.reliability.errors import (
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    ParameterError,
)
from repro.serve.clock import VirtualClock
from repro.serve.config import PAYLOAD_LIMIT, ServeConfig
from repro.serve.request import COMPLETED, EXPIRED, FAILED
from repro.serve.server import Server
from repro.workloads.serving import SERVE_KINDS, slot_reference

# Fault persistence tiers (corruptions the fault re-applies on replay):
# TRANSIENT is absorbed by the executor's checkpoint ladder; STUBBORN
# (one more firing than retries+restarts tolerate) defeats the executor
# and forces a serve-level retry on a fresh one.
TRANSIENT = 1
STUBBORN = 4


@dataclass
class LoadSpec:
    """One campaign's offered load, all of it seeded."""

    requests: int = 500
    qps: float = 300000.0
    tenants: int = 8
    lstm_fraction: float = 0.35
    deadline_lo_s: float = 4e-3
    deadline_hi_s: float = 1.2e-2
    # A slice of latency-critical traffic with deadlines comparable to
    # one batch's service time: under backlog these are correctly shed
    # at admission (DeadlineExceeded) instead of wasting a queue slot.
    tight_fraction: float = 0.12
    tight_lo_s: float = 6e-5
    tight_hi_s: float = 2.5e-4
    # One tenant sends garbage (NaNs / oversized values) at this rate -
    # the breaker's diet.  None disables.
    poison_tenant: str | None = "t7"
    poison_fraction: float = 0.5
    # Fraction of dispatched batches that get a fault armed, cycling
    # through the four sites; this fraction of *those* are stubborn
    # (defeat the executor, forcing a serve-level retry).
    fault_rate: float = 0.15
    stubborn_fraction: float = 0.3
    seed: int = 2022


@dataclass
class CampaignResult:
    """Everything the serving campaign measured (and must reconcile)."""

    spec: LoadSpec
    cfg: ServeConfig
    offered: int = 0
    admitted: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    expired: int = 0
    failed: int = 0
    retries: int = 0
    dispatches: int = 0
    degraded_dispatches: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)
    faults_recovered: int = 0
    breaker_opens: int = 0
    wrong_answers: int = 0
    max_queue_seen: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    elapsed_s: float = 0.0
    utilization: float = 0.0
    achieved_qps: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def injected_total(self) -> int:
        return sum(self.faults_injected.values())

    # The campaign gates of `repro.reliability.campaign.check`.  A serving
    # fault can be caught by the executor, the clean replay or the slot
    # audit, so detections are not kept per site; what matters is that
    # none reaches an answer (``wrong_answers``) or fails a request.
    sites: ClassVar[dict] = {}
    false_positives: ClassVar[int] = 0

    @property
    def unrecovered(self) -> int:
        return self.failed

    def report(self) -> str:
        from repro.analysis.report import format_table

        outcome_rows = [
            ["completed", self.completed],
            ["expired", self.expired],
            ["failed (typed)", self.failed],
            *[[f"shed.{k}", v] for k, v in sorted(self.shed.items())],
        ]
        table = format_table(
            ["outcome", "requests"], outcome_rows,
            title=f"Serving campaign (seed={self.spec.seed}, "
                  f"{self.offered} offered @ {self.spec.qps:.0f} qps, "
                  f"{self.spec.tenants} tenants)")
        lines = [
            table, "",
            f"latency: p50={self.p50_ms:.3f}ms p99={self.p99_ms:.3f}ms "
            f"mean={self.mean_ms:.3f}ms over {self.completed} completions",
            f"chip: {self.utilization:.1%} utilized, "
            f"{self.dispatches} dispatches "
            f"({self.degraded_dispatches} degraded), "
            f"achieved {self.achieved_qps:.0f} qps "
            f"in {self.elapsed_s * 1e3:.1f}ms virtual",
            f"faults: {self.injected_total} injected "
            f"({', '.join(f'{k}:{v}' for k, v in sorted(self.faults_injected.items()))}), "
            f"{self.faults_recovered} recovered in-executor, "
            f"{self.retries} serve-level retries, "
            f"{self.failed} typed failures",
            f"tenants: {self.breaker_opens} breaker opens; "
            f"queue peaked at {self.max_queue_seen}/{self.cfg.queue_depth}",
            f"wrong answers: {self.wrong_answers}",
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "spec": {
                "requests": self.spec.requests, "qps": self.spec.qps,
                "tenants": self.spec.tenants,
                "lstm_fraction": self.spec.lstm_fraction,
                "fault_rate": self.spec.fault_rate,
                "stubborn_fraction": self.spec.stubborn_fraction,
                "poison_fraction": self.spec.poison_fraction,
                "seed": self.spec.seed,
            },
            "cfg": {
                "degree": self.cfg.degree,
                "block_slots": self.cfg.block_slots,
                "max_batch": self.cfg.max_batch,
                "queue_depth": self.cfg.queue_depth,
            },
            "offered": self.offered, "admitted": self.admitted,
            "shed": dict(sorted(self.shed.items())),
            "completed": self.completed, "expired": self.expired,
            "failed": self.failed, "retries": self.retries,
            "dispatches": self.dispatches,
            "degraded_dispatches": self.degraded_dispatches,
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "faults_recovered": self.faults_recovered,
            "breaker_opens": self.breaker_opens,
            "wrong_answers": self.wrong_answers,
            "max_queue_seen": self.max_queue_seen,
            "p50_ms": round(self.p50_ms, 6),
            "p99_ms": round(self.p99_ms, 6),
        }


class _FaultPlanner:
    """Deterministic per-batch fault plan, armed via step wrapping.

    For each new batch id the planner draws (faulty?, site, step,
    persistence) from its own rng - independent of arrival randomness,
    so the fault schedule is stable under load-spec tweaks.  Faults fire
    only on serve attempt 0: the serve-level retry (fresh executor,
    clean steps) must then succeed, which is exactly the property the
    campaign wants to exercise.
    """

    def __init__(self, spec: LoadSpec, injector: _faults.FaultInjector):
        self.spec = spec
        self.injector = injector
        self.rng = np.random.default_rng(spec.seed + 101)
        self.plans: dict[int, tuple[str, int, int] | None] = {}
        self.injected: dict[str, int] = dict.fromkeys(_faults.SITES, 0)
        self._site_cursor = 0

    def _plan_for(self, batch_id: int, n_steps: int):
        if batch_id not in self.plans:
            if self.rng.random() >= self.spec.fault_rate:
                self.plans[batch_id] = None
            else:
                site = _faults.SITES[self._site_cursor % len(_faults.SITES)]
                self._site_cursor += 1
                step = int(self.rng.integers(n_steps))
                persist = (STUBBORN
                           if self.rng.random() < self.spec.stubborn_fraction
                           else TRANSIENT)
                self.plans[batch_id] = (site, step, persist)
        return self.plans[batch_id]

    def __call__(self, batch_id: int, attempt: int, steps):
        plan = self._plan_for(batch_id, len(steps))
        if plan is None or attempt > 0:
            return steps
        site, step_idx, persist = plan
        if site in (_faults.NTT, _faults.HBM):
            # Keyswitch-internal sites need a keyswitch to fire in; snap
            # to the nearest step that runs one.
            ks_steps = [i for i, s in enumerate(steps) if s.keyswitches]
            step_idx = min(ks_steps, key=lambda i: abs(i - step_idx))
        fired = [0]
        injector = self.injector
        step = steps[step_idx]

        def with_fault(ctx_, state_):
            if fired[0] < persist:
                fired[0] += 1
                self.injected[site] += 1
                if site in (_faults.LIMB, _faults.RF):
                    # limb: the step's working ciphertext; rf: the quiet
                    # register-file resident.
                    target = state_[step.source if site == _faults.LIMB
                                    else "base"]
                    half = target.c0 if fired[0] % 2 else target.c1
                    injector.arm(site)
                    injector.maybe_corrupt(site, half.data)
                else:
                    injector.arm(site, skip=0)
            step.fn(ctx_, state_)

        out = list(steps)
        out[step_idx] = step._replace(fn=with_fault)
        return out

    def sweep_unfired(self) -> None:
        """Drop arms whose opportunity never came (aborted runs)."""
        for site in _faults.SITES:
            self.injector.disarm(site)


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def run_campaign(spec: LoadSpec | None = None,
                 cfg: ServeConfig | None = None) -> CampaignResult:
    """Drive one seeded serving campaign end to end; see module docs."""
    spec = spec or LoadSpec()
    cfg = cfg or ServeConfig(seed=spec.seed, verify_responses=True)

    own_collector = not obs.is_enabled()
    collector = obs.enable() if own_collector else obs.active()
    collector.meta.update({"campaign": "serving", "seed": spec.seed,
                           "requests": spec.requests, "qps": spec.qps,
                           "tenants": spec.tenants})

    injector = _faults.FaultInjector(seed=spec.seed + 1)
    planner = _FaultPlanner(spec, injector)
    clock = VirtualClock()
    server = Server(cfg, clock=clock,
                    fault_factory=planner if spec.fault_rate > 0 else None)

    rng = np.random.default_rng(spec.seed)
    submitted = 0
    t_next = rng.exponential(1.0 / spec.qps)

    def one_arrival():
        tenant = f"t{int(rng.integers(spec.tenants))}"
        kind = SERVE_KINDS[1] if rng.random() < spec.lstm_fraction \
            else SERVE_KINDS[0]
        payload = rng.uniform(-1.0, 1.0, cfg.block_slots)
        if (spec.poison_tenant is not None
                and tenant == spec.poison_tenant
                and rng.random() < spec.poison_fraction):
            # Garbage in one of two flavours; both tenant-attributable.
            if rng.random() < 0.5:
                payload[int(rng.integers(cfg.block_slots))] = np.nan
            else:
                payload = payload * (PAYLOAD_LIMIT * 10.0)
        if rng.random() < spec.tight_fraction:
            deadline = float(rng.uniform(spec.tight_lo_s, spec.tight_hi_s))
        else:
            deadline = float(rng.uniform(spec.deadline_lo_s,
                                         spec.deadline_hi_s))
        try:
            server.submit(tenant, kind, payload, deadline_s=deadline)
        except (Overloaded, DeadlineExceeded, CircuitOpen,
                ParameterError):
            pass  # typed + counted by the server; nothing else to do

    with _faults.injecting(injector):
        while submitted < spec.requests or server.queue:
            wake = server.next_wake(clock.now())
            if submitted < spec.requests and t_next <= wake:
                clock.advance_to(t_next)
                one_arrival()
                submitted += 1
                t_next = clock.now() + rng.exponential(1.0 / spec.qps)
            elif wake != float("inf"):
                clock.advance_to(wake)
            else:
                break  # queue empty, all arrivals in: quiescent
            while server.pump():
                planner.sweep_unfired()

    elapsed = max(clock.now(), server.chip_free_at)

    # -- audit: wrong answers vs the numpy slot reference -------------------
    wrong = 0
    tol = 1e-3
    by_batch = {b.batch_id: b for b in server.batches}
    for resp in server.responses:
        if resp.status != COMPLETED:
            continue
        batch = by_batch[resp.batch_id]
        vec, layout = server.packer.pack(batch.requests)
        ref = slot_reference(batch.kind, vec, server.weights,
                             cfg.block_slots)
        i = batch.requests.index(resp.request)
        if abs(resp.value - ref[layout.readout_slot(i)]) > tol:
            wrong += 1

    # -- assemble + reconcile ----------------------------------------------
    t = server.tally
    result = CampaignResult(
        spec=spec, cfg=cfg,
        offered=t["offered"], admitted=t["admitted"],
        shed={k.split(".", 1)[1]: v for k, v in t.items()
              if k.startswith("shed.")},
        completed=t["completed"], expired=t["expired"],
        failed=t["failed"], retries=t["retries"],
        dispatches=t["dispatches"],
        degraded_dispatches=t["degraded_dispatches"],
        faults_injected={k: v for k, v in planner.injected.items() if v},
        faults_recovered=t["faults_recovered"],
        breaker_opens=sum(br.stats.opens
                          for br in server.breakers.values()),
        wrong_answers=wrong,
        max_queue_seen=server.max_queue_seen,
        elapsed_s=elapsed,
        utilization=server.utilization(elapsed),
        phase_seconds=dict(server.phase_seconds),
    )
    lat = server.latencies()
    result.p50_ms = _percentile(lat, 0.50) * 1e3
    result.p99_ms = _percentile(lat, 0.99) * 1e3
    result.mean_ms = (sum(lat) / len(lat) * 1e3) if lat else 0.0
    result.achieved_qps = (result.completed / elapsed) if elapsed else 0.0
    obs.gauge("serve.qps", result.achieved_qps)
    obs.gauge("serve.utilization", result.utilization)
    result.counters = {k: v for k, v in collector.counters.items()
                       if k.startswith("serve.")}
    if own_collector:
        obs.disable()

    reconcile(result, server)
    return result


def reconcile(result: CampaignResult, server: Server) -> None:
    """Assert the campaign's core invariants; raises AssertionError.

    This is deliberately assert-based (not logged-and-ignored): a
    serving layer whose own books do not balance has a bug, and the
    campaign exists to catch it.
    """
    t = server.tally
    c = result.counters
    # Tallies and obs counters agree key-for-key.
    for key, val in t.items():
        counted = c.get(f"serve.{key}", 0.0)
        assert counted == val, (
            f"obs counter serve.{key}={counted} != tally {val}")
    # Conservation: every offered request has exactly one terminal state.
    assert result.offered == result.admitted + result.shed_total
    assert result.admitted == (result.completed + result.expired
                               + result.failed)
    # The queue bound held, always.
    assert result.max_queue_seen <= server.cfg.queue_depth
    # Correctness: nothing completed with a wrong answer.
    assert result.wrong_answers == 0, (
        f"{result.wrong_answers} completed responses deviate from the "
        "slot reference")
