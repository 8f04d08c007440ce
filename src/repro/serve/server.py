"""The serving front-end: admission, EDF dispatch, retries, degradation.

One :class:`Server` owns the CKKS context, the compiled-schedule cache,
the bounded request queue, the per-tenant circuit breakers and the
(simulated) chip.  Its contract, end to end:

* **Admission** (:meth:`Server.submit`) is where every cheap rejection
  happens, in strict order: breaker -> payload validity -> deadline
  feasibility -> queue bound.  Each rejection is a *typed* error
  (:class:`CircuitOpen`, :class:`ParameterError`,
  :class:`DeadlineExceeded`, :class:`Overloaded`) and a counted shed
  reason; nothing invalid or hopeless ever occupies a queue slot.
* **Dispatch** (:meth:`Server.pump`) is earliest-deadline-first over the
  queue: the most urgent request picks the batch's workload kind, then
  same-kind requests fill the ciphertext in deadline order.  Requests
  whose deadline lapsed while queued are cancelled (counted
  ``serve.expired``) before any batch forms - the chip never burns
  cycles on an answer nobody can use.
* **Degradation before shedding**: past a backlog watermark the server
  stops waiting out the batch window and halves the packing target.
  Smaller batches genuinely cost less in-model (the weight plaintexts
  stream per occupied block), so latency flattens while throughput
  dips - and only when that is not enough does admission shed.
* **Execution** runs the batch's compiled program - the one the chip
  simulator prices, lowered to steps by `repro.interpret` - under a
  :class:`~repro.reliability.recovery.RecoveringExecutor` with the full
  PR 2/3 detection stack armed (hint verify, NTT checksums, the RF
  eviction sweep).  Transient chip faults are absorbed by checkpoint
  replay; faults that defeat the executor surface as
  ``UnrecoverableFaultError`` and trigger serve-level retries with
  exponential backoff + seeded jitter, on a *fresh* executor from the
  batch's master snapshot.  Chip faults are shared-fate: they never
  count against any tenant's breaker.
* **Accounting** is exact and virtual-clock-only: every batch's service
  time comes from the chip simulator (compiled once per (kind,
  occupancy) through the memory compile cache, then reused), per-phase
  cycles from ``SimResult.tag_cycles``, and per-request chip seconds
  are the batch's share divided by occupancy.  The obs counters this
  module emits reconcile exactly against the server's own tallies -
  the campaign asserts it.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.cache import compile_program, default_cache
from repro.core.config import ChipConfig
from repro.interpret import lower
from repro.obs import collector as obs
from repro.reliability import guards
from repro.reliability.backoff import RETRY_BACKOFF
from repro.reliability.errors import (
    ChipFailure,
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    ParameterError,
    UnrecoverableFaultError,
)
from repro.reliability.recovery import (
    RecoveringExecutor,
    RecoveryPolicy,
    RingBufferStore,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.clock import VirtualClock
from repro.serve.config import (
    DEGRADE_BATCH_DIVISOR,
    EXECUTOR_RESTARTS,
    EXECUTOR_RETRIES,
    ServeConfig,
)
from repro.serve.packing import SlotPacker
from repro.serve.request import (
    COMPLETED,
    EXPIRED,
    FAILED,
    SHED,
    SHED_BREAKER,
    SHED_CAPACITY,
    SHED_DEADLINE,
    SHED_INVALID,
    SHED_OVERLOAD,
    BatchRecord,
    Request,
    Response,
)
from repro.workloads.serving import (
    check_kind,
    rotation_strides,
    serving_program,
    serving_weights,
)


class Server:
    """One serving front-end over one simulated chip - or, with a
    :class:`~repro.pod.config.PodConfig`, over a pod of them.

    A *data-parallel* pod is K independent lanes: batches dispatch onto
    the earliest-free alive chip, :meth:`fail_chip` degrades capacity
    (N-1 ETAs, typed shedding once empty).  A *model-parallel* pod is
    **one logical lane with pipelined occupancy**: a batch's latency is
    the pod's fill time (:attr:`~repro.pod.simulator.PodResult.
    batch_cycles`), but the lane frees after one steady-state beat
    (``cycles_per_batch`` - the slowest overlapped stage), so
    back-to-back batches stream through the pipeline and serving
    throughput reflects the overlap win.  :meth:`fail_chip` on a model
    pod repartitions the pipeline over the survivors (service times are
    re-simulated); the last chip's death empties the lane set."""

    def __init__(self, cfg: ServeConfig | None = None,
                 clock: VirtualClock | None = None,
                 chip: ChipConfig | None = None,
                 fault_factory=None, pod=None):
        from repro.fhe.ckks import CkksContext, CkksParams

        self.cfg = cfg or ServeConfig()
        self.clock = clock or VirtualClock()
        self.chip = chip or ChipConfig()
        # Optional repro.pod.PodConfig: batches dispatch onto the
        # earliest-free alive chip (data-parallel lanes; each batch is
        # one ciphertext, so a lane is a whole chip) or, model-parallel,
        # onto one pipelined pod lane.  None = the single-chip server of
        # PR 7, bit-for-bit.
        self.pod = pod
        self._model_pod = pod is not None and pod.strategy == "model"
        # Hook for fault campaigns: fault_factory(batch_id, attempt,
        # steps) -> steps, free to wrap step fns and arm the injector.
        self.fault_factory = fault_factory
        self._rng = np.random.default_rng(self.cfg.seed + 7)  # jitter only

        # -- real CKKS substrate (shared by every batch) -------------------
        c = self.cfg
        params = CkksParams(degree=c.degree, max_level=c.max_level,
                            digits=1,
                            secret_hamming=max(8, c.degree // 16),
                            seed=c.seed)
        self.ctx = CkksContext(
            params, policy=guards.ReliabilityPolicy(checksums=True))
        self.sk = self.ctx.keygen()
        self.hints = {s: self.ctx.rotation_hint(self.sk, s)
                      for s in rotation_strides(c.block_slots)}
        self.weights = serving_weights(c.seed + 1, c.slots, c.block_slots)
        self.packer = SlotPacker(c.slots, c.block_slots, c.max_batch)
        self._plans = {}            # (kind, occupancy) -> (plan, prices)
        self._service = {}          # (kind, occupancy) -> (seconds, tags)

        # -- serving state -------------------------------------------------
        self.queue: list[Request] = []
        self.breakers: dict[str, CircuitBreaker] = {}
        self.responses: list[Response] = []
        self.batches: list[BatchRecord] = []
        # A model-parallel pod is a single logical lane (the pipeline);
        # its physical chips are tracked in pod_failed, not in `alive`.
        lanes = 1 if (pod is None or self._model_pod) else pod.chips
        self.chips_free_at = [0.0] * lanes  # per-lane residency
        self.alive: set[int] = set(range(lanes))
        self.pod_failed: set[int] = set()   # model pod: dead physical chips
        self.busy_s = 0.0           # chip seconds actually occupied
        self.phase_seconds: dict[str, float] = {}  # tag -> chip seconds
        self._next_request_id = 0
        self.max_queue_seen = 0

        # Tallies mirrored into obs counters; the campaign reconciles
        # the two exactly, so every mutation must count both or neither.
        self.tally = {
            "offered": 0, "admitted": 0, "shed": 0, "completed": 0,
            "expired": 0, "failed": 0, "retries": 0, "dispatches": 0,
            "degraded_dispatches": 0, "faults_recovered": 0,
            "verify_mismatches": 0,
            "shed.overload": 0, "shed.deadline": 0, "shed.breaker": 0,
            "shed.invalid": 0, "shed.capacity": 0,
            "pod.chip_failures": 0,
        }

    # -- small helpers -----------------------------------------------------

    @property
    def chip_free_at(self) -> float:
        """Earliest virtual time any alive chip frees up (``inf`` once
        the pod has lost every chip)."""
        if not self.alive:
            return float("inf")
        return min(self.chips_free_at[k] for k in self.alive)

    @chip_free_at.setter
    def chip_free_at(self, t: float) -> None:
        """Set the earliest-free alive lane (single-chip: lane 0)."""
        lane = (min(self.alive, key=lambda k: (self.chips_free_at[k], k))
                if self.alive else 0)
        self.chips_free_at[lane] = t

    def fail_chip(self, chip: int) -> None:
        """Fail-stop one pod chip: it takes no further batches.

        Admission immediately recomputes ETAs against the surviving
        capacity (fewer lanes -> slower drain -> earlier deadline
        sheds); once the last chip is gone every submit sheds with a
        typed :class:`ChipFailure`.  The serving layer has no shard
        state to migrate - each batch lives on exactly one chip - so
        N-1 degradation here is purely a capacity event.
        """
        if self._model_pod:
            # Pipelined pod lane: the chip is a *stage host*, not a
            # lane.  The survivors repartition (degraded N-1 pipeline),
            # so every memoized service time is stale - drop the cache
            # and re-simulate on demand; the lane itself only dies with
            # the last chip.
            if chip in self.pod_failed or not 0 <= chip < self.pod.chips:
                raise ParameterError(
                    "cannot fail a chip that is not alive", chip=chip,
                    alive=sorted(set(range(self.pod.chips))
                                 - self.pod_failed))
            self.pod_failed.add(chip)
            self._count("pod.chip_failures")
            if len(self.pod_failed) == self.pod.chips:
                self.alive.discard(0)
            else:
                self._service.clear()
            obs.gauge("serve.pod.alive",
                      float(self.pod.chips - len(self.pod_failed)))
            return
        if chip not in self.alive:
            raise ParameterError("cannot fail a chip that is not alive",
                                 chip=chip, alive=sorted(self.alive))
        self.alive.discard(chip)
        self._count("pod.chip_failures")
        obs.gauge("serve.pod.alive", float(len(self.alive)))

    def _count(self, key: str, n: int = 1) -> None:
        self.tally[key] += n
        obs.count(f"serve.{key}", n)

    def _breaker(self, tenant: str) -> CircuitBreaker:
        br = self.breakers.get(tenant)
        if br is None:
            br = self.breakers[tenant] = CircuitBreaker(
                tenant, self.cfg.breaker_threshold,
                self.cfg.breaker_cooldown_s)
        return br

    def _shed(self, reason: str) -> None:
        self._count("shed")
        self._count(f"shed.{reason}")

    def _plan(self, kind: str, occupancy: int):
        """The batch's compiled program lowered to executor steps, with
        each step's cycle price.  Compiled once per (kind, occupancy)
        through the memory compile cache and simulated once: the same
        run prices the steps and, on one chip, gives the service time
        and the per-phase cycles."""
        key = (kind, occupancy)
        if key not in self._plans:
            c = self.cfg
            with obs.paused():
                program = compile_program(
                    serving_program(kind, c.degree, c.max_level,
                                    c.block_slots, occupancy),
                    self.chip, cache=default_cache())
            plan = lower(program, self.hints, self.weights)
            sim, prices = plan.price(self.chip)
            self._plans[key] = (plan, prices)
            if not self._model_pod:
                seconds = sim.cycles / self.chip.clock_hz
                self._service[key] = (seconds, seconds, sim.tag_cycles)
        return self._plans[key]

    @staticmethod
    def _initial_state(plan, master) -> dict:
        """The packed batch under the program's input name, plus
        ``base``: a register-file resident the program never reads -
        the ``rf`` fault site's target, caught by the eviction sweep."""
        return {plan.inputs[0]: master.copy(), "base": master.copy()}

    def service_seconds(self, kind: str, occupancy: int) -> float:
        """Clean (fault-free) service *latency* of one batch.

        Compiled through the process-wide memory compile cache and
        simulated once per (kind, occupancy) - on one chip, the
        simulation :meth:`_plan` prices the steps with; every later
        batch of the same shape reuses the memoized schedule -
        compile-once, run-many.  Runs under ``obs.paused()`` so internal
        compiler and simulator counters do not pollute the serving
        metrics the campaign reconciles.  On a model-parallel pod this
        is the pipeline *fill* time (the batch walks every stage); the
        lane's steady-state occupancy is :meth:`throughput_seconds`.
        """
        key = (kind, occupancy)
        if key not in self._service:
            c = self.cfg
            with obs.paused():
                if self._model_pod:
                    from repro.pod.simulator import simulate_pod

                    prog = serving_program(kind, c.degree, c.max_level,
                                           c.block_slots, occupancy)
                    res = simulate_pod(
                        prog, self.chip, self.pod,
                        failed_chips=tuple(sorted(self.pod_failed)),
                        cache=default_cache())
                    tags: dict[str, float] = {}
                    for stage in res.chip_results.values():
                        for tag, cyc in stage.tag_cycles.items():
                            tags[tag] = tags.get(tag, 0.0) + cyc
                    self._service[key] = (res.batch_seconds,
                                          res.seconds_per_batch, tags)
                else:
                    self._plan(kind, occupancy)
        return self._service[key][0]

    def throughput_seconds(self, kind: str, occupancy: int) -> float:
        """Steady-state lane occupancy of one batch: equals
        :meth:`service_seconds` on a single chip or a data-parallel
        lane; the slowest overlapped pipeline stage on a model-parallel
        pod (each dispatched batch holds the lane for one pipeline beat,
        not the whole fill)."""
        self.service_seconds(kind, occupancy)
        return self._service[(kind, occupancy)][1]

    def _tag_seconds(self, kind: str, occupancy: int) -> dict[str, float]:
        self.service_seconds(kind, occupancy)
        tags = self._service[(kind, occupancy)][2]
        hz = self.chip.clock_hz
        return {tag: cyc / hz for tag, cyc in tags.items()}

    # -- admission ---------------------------------------------------------

    def submit(self, tenant: str, kind: str, payload,
               deadline_s: float | None = None) -> Request:
        """Admit one request or raise the typed rejection.

        Rejection order is cheapest-first and every path is counted:
        breaker (no validation spent on a quarantined tenant), payload
        validity (tenant-attributable - feeds the breaker), deadline
        feasibility (an ETA no better than the deadline is shed *now*,
        not discovered at dispatch), then the hard queue bound.
        """
        now = self.clock.now()
        self._count("offered")
        br = self._breaker(tenant)
        if not br.allow(now):
            self._shed(SHED_BREAKER)
            raise CircuitOpen(
                "tenant breaker is open", tenant=tenant,
                next_probe_at=br.next_probe_at())
        probe = br.probing
        try:
            if deadline_s is not None and deadline_s <= 0:
                raise ParameterError("deadline must be positive",
                                     deadline_s=deadline_s)
            check_kind(kind)
            vec = self.packer.validate_payload(payload)
        except ParameterError:
            # Tenant-attributable garbage: counts toward the breaker.
            br.record_failure(now)
            self._shed(SHED_INVALID)
            raise
        if probe:
            # The probe's question is "does this tenant send valid
            # traffic again?" - answered right here at validation, so
            # the breaker closes without waiting on chip execution
            # (whose failures are shared-fate, not tenant signal).
            br.record_success()

        if not self.alive:
            # The pod lost its last chip: nothing can ever execute, so
            # shedding here is the only honest answer.
            self._shed(SHED_CAPACITY)
            raise ChipFailure("pod has no alive chips; request shed",
                              tenant=tenant, chips=len(self.chips_free_at))

        deadline = now + (deadline_s if deadline_s is not None
                          else self.cfg.default_deadline_s)
        eta = self._eta(kind, now)
        if now + eta > deadline:
            self._shed(SHED_DEADLINE)
            raise DeadlineExceeded(
                "deadline infeasible at admission", tenant=tenant,
                eta_s=eta, deadline_s=deadline - now)
        if len(self.queue) >= self.cfg.queue_depth:
            self._shed(SHED_OVERLOAD)
            raise Overloaded("request queue is at depth",
                             queue_depth=self.cfg.queue_depth)

        req = Request(id=self._next_request_id, tenant=tenant, kind=kind,
                      payload=vec, submitted=now, deadline=deadline,
                      probe=probe)
        self._next_request_id += 1
        self.queue.append(req)
        self.max_queue_seen = max(self.max_queue_seen, len(self.queue))
        self._count("admitted")
        obs.gauge("serve.queue_depth", float(len(self.queue)))
        return req

    def _eta(self, kind: str, now: float) -> float:
        """Time-to-answer estimate for a request admitted at ``now``:
        current chip residency, the backlog drained at full batches
        across every alive chip, one batch window, its own batch's
        service time, and the worst-case retry/backoff budget.

        The retry budget term is what makes the feasibility check
        honest under faults: without it a request admitted with exactly
        service-time slack expires the moment its batch retries once -
        chip time burned for an answer nobody can use.
        """
        busy = max(0.0, self.chip_free_at - now)
        lanes = max(1, len(self.alive))
        # The backlog drains at the lane's *throughput* (one pipeline
        # beat per batch on a model pod); the request's own batch then
        # pays the full service latency (pipeline fill).
        drain = (len(self.queue) / self.cfg.max_batch) \
            * self.throughput_seconds(kind, self.cfg.max_batch) / lanes
        return (busy + drain + self.cfg.batch_window_s
                + self.service_seconds(kind, 1)
                + self.cfg.retry_budget_s())

    # -- dispatch ----------------------------------------------------------

    def pump(self) -> bool:
        """Run one dispatch decision at the current virtual time.

        Returns True when a batch was dispatched (callers loop until the
        server goes quiescent).  Safe to call any time; does nothing
        while the chip is busy or the queue is empty.
        """
        now = self.clock.now()
        self._expire_queued(now)
        if not self.queue or self.chip_free_at > now:
            return False

        backlog = len(self.queue)
        degraded = backlog >= self.cfg.degrade_watermark \
            * self.cfg.queue_depth
        target = self.cfg.max_batch
        if degraded:
            target = max(1, target // DEGRADE_BATCH_DIVISOR)

        # EDF: the most urgent request picks the batch's kind, then
        # same-kind requests fill the ciphertext in deadline order.
        order = sorted(self.queue, key=lambda r: (r.deadline, r.id))
        kind = order[0].kind
        batch = [r for r in order if r.kind == kind][:target]

        if (not degraded and len(batch) < target
                and now < order[0].submitted + self.cfg.batch_window_s):
            return False  # hold for the window; next_wake() covers it
        for r in batch:
            self.queue.remove(r)
        obs.gauge("serve.queue_depth", float(len(self.queue)))
        self._execute_batch(batch, kind, degraded, now)
        return True

    def _expire_queued(self, now: float) -> None:
        """Cancel queued requests whose deadline already lapsed."""
        expired = [r for r in self.queue if r.deadline <= now]
        for r in expired:
            self.queue.remove(r)
            self._finish(Response(request=r, status=EXPIRED,
                                  error="DeadlineExceeded",
                                  completed_at=now))
        if expired:
            obs.gauge("serve.queue_depth", float(len(self.queue)))

    def next_wake(self, now: float) -> float:
        """Earliest virtual time strictly after ``now`` at which pump()
        could act: the chip freeing up, a batch window expiring, or a
        queued deadline lapsing (expiry sweep).  ``inf`` when only a new
        arrival could change anything."""
        if not self.queue:
            return float("inf")
        candidates = [
            self.chip_free_at,
            min(r.submitted for r in self.queue) + self.cfg.batch_window_s,
            min(r.deadline for r in self.queue),
        ]
        future = [t for t in candidates if t > now]
        return min(future) if future else float("inf")

    # -- execution ---------------------------------------------------------

    def _execute_batch(self, batch: list[Request], kind: str,
                       degraded: bool, t0: float) -> None:
        """Encrypt once, run under recovery, retry at serve level."""
        c = self.cfg
        occupancy = len(batch)
        record = BatchRecord(batch_id=len(self.batches), kind=kind,
                             requests=list(batch), dispatched_at=t0,
                             degraded=degraded)
        service_s = self.service_seconds(kind, occupancy)
        steady_s = self.throughput_seconds(kind, occupancy)
        plan, step_cycles = self._plan(kind, occupancy)
        steps = plan.steps

        vec, layout = self.packer.pack(batch)
        master = self.ctx.encrypt_values(self.sk, vec)

        # `duration` is the batch's wall latency (fill time per attempt
        # on a model pod); `occupancy_s` is how long the lane stays
        # claimed (one pipeline beat per attempt) - identical floats on
        # a single chip or data-parallel lane, where service == steady.
        duration = 0.0
        occupancy_s = 0.0
        state = stats = None
        retries = faults_recovered = 0
        last_error = "UnrecoverableFaultError"
        for attempt in range(c.max_retries + 1):
            run_steps = steps
            if self.fault_factory is not None:
                run_steps = self.fault_factory(record.batch_id, attempt,
                                               steps)
            duration += service_s
            occupancy_s += steady_s
            try:
                state, stats = self._run_attempt(run_steps, plan,
                                                 step_cycles, master)
                faults_recovered += stats.detections
                overhead = self._overhead_s(stats)
                duration += overhead
                occupancy_s += overhead
                if c.verify_responses \
                        and not self._verify(state, plan, master):
                    # A fault slipped past every in-executor detector.
                    # Every op checks or carries its operands' seals, so
                    # on the seeded campaigns this does not fire; the
                    # clean replay is the court of last resort: treat
                    # the attempt as faulted and retry.  The replay
                    # itself costs a clean service pass of chip time.
                    self._count("verify_mismatches")
                    duration += service_s
                    occupancy_s += steady_s
                    state = None
                    last_error = "FaultDetectedError"
            except UnrecoverableFaultError:
                # The attempt's executor stats are lost with the raise;
                # its chip time (service_s) is already in `duration`.
                state = None
                last_error = "UnrecoverableFaultError"
            if state is not None:
                break
            if attempt < c.max_retries:
                retries += 1
                self._count("retries")
                pause = RETRY_BACKOFF.pause(attempt + 1, self._rng)
                duration += pause
                occupancy_s += pause
                obs.count("serve.backoff_s", pause)

        completed_at = t0 + duration
        # Earliest-free alive lane takes the batch (id-tiebroken so the
        # schedule is deterministic); single-chip servers have lane 0.
        # A pipelined pod lane frees after its occupancy, which is
        # earlier than the batch's completion - the next batch streams
        # in behind this one.
        lane = min(self.alive, key=lambda k: (self.chips_free_at[k], k))
        self.chips_free_at[lane] = t0 + occupancy_s
        record.chip = lane
        self.busy_s += occupancy_s
        record.service_s = service_s * (retries + 1)
        record.overhead_s = duration - record.service_s
        record.retries = retries
        for tag, sec in self._tag_seconds(kind, occupancy).items():
            self.phase_seconds[tag] = \
                self.phase_seconds.get(tag, 0.0) + sec * (retries + 1)

        self._count("dispatches")
        if degraded:
            self._count("degraded_dispatches")
        if faults_recovered:
            self._count("faults_recovered", faults_recovered)
        self.batches.append(record)

        if state is None:
            # Every retry exhausted: the whole batch fails, typed.
            for i, req in enumerate(batch):
                self._finish(Response(
                    request=req, status=FAILED,
                    error=last_error,
                    completed_at=completed_at, retries=retries,
                    faults_recovered=faults_recovered,
                    batch_id=record.batch_id, batch_occupancy=occupancy,
                    chip_seconds=occupancy_s / occupancy))
            return

        decoded = self.ctx.decrypt(self.sk, state[plan.outputs[0]])
        values = self.packer.unpack(decoded, layout)
        for i, req in enumerate(batch):
            if completed_at > req.deadline:
                # Dispatched in time, finished late (retries/backoff):
                # the answer exists but the deadline contract is missed.
                self._finish(Response(
                    request=req, status=EXPIRED, error="DeadlineExceeded",
                    completed_at=completed_at, retries=retries,
                    faults_recovered=faults_recovered,
                    batch_id=record.batch_id, batch_occupancy=occupancy,
                    chip_seconds=occupancy_s / occupancy))
                continue
            self._finish(Response(
                request=req, status=COMPLETED, value=values[i],
                completed_at=completed_at, retries=retries,
                faults_recovered=faults_recovered,
                batch_id=record.batch_id, batch_occupancy=occupancy,
                chip_seconds=occupancy_s / occupancy))

    def _run_attempt(self, run_steps, plan, step_cycles, master):
        """One executor run from the batch's master ciphertext."""
        policy = RecoveryPolicy(
            checkpoint_every=self.cfg.checkpoint_every,
            max_retries=EXECUTOR_RETRIES,
            max_restarts=EXECUTOR_RESTARTS,
            backoff=RETRY_BACKOFF)
        pauses: list[float] = []
        exe = RecoveringExecutor(
            self.ctx, policy, store=RingBufferStore(4), cfg=self.chip,
            step_cycles=step_cycles,
            sleep=pauses.append,  # virtual: charged to batch duration
            rng=self._rng)
        integ = guards.IntegrityConfig(boundary_hook=exe.evict_sweep)
        with guards.integrity(integ):
            return exe.run(run_steps, self._initial_state(plan, master))

    def _overhead_s(self, stats) -> float:
        """Executor resilience cost in (virtual) seconds."""
        return (stats.overhead_cycles / self.chip.clock_hz
                + stats.backoff_seconds)

    def _verify(self, state, plan, master) -> bool:
        """Clean replay from the master ciphertext, compared bit-exactly.

        The recovery contract says a replayed program is bit-identical
        to a fault-free run; this is the serving layer holding it to
        that - the campaign's zero-wrong-answers check.
        """
        exe = RecoveringExecutor(
            self.ctx, RecoveryPolicy(checkpoint_every=len(plan.steps) + 1),
            store=RingBufferStore(2), cfg=self.chip)
        with obs.paused():
            clean, _ = exe.run(plan.steps, self._initial_state(plan, master))
        out = plan.outputs[0]
        got, want = state[out], clean[out]
        return (np.array_equal(got.c0.data, want.c0.data)
                and np.array_equal(got.c1.data, want.c1.data))

    def _finish(self, resp: Response) -> None:
        self.responses.append(resp)
        self._count(resp.status if resp.status != SHED else "shed")

    # -- end-of-run summary -------------------------------------------------

    def utilization(self, elapsed_s: float) -> float:
        return self.busy_s / elapsed_s if elapsed_s > 0 else 0.0

    def latencies(self) -> list[float]:
        return sorted(r.latency_s for r in self.responses if r.ok)
