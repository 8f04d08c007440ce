"""Pod-coordinated functional execution with chip/link fault recovery.

The :class:`PodExecutor` runs real CKKS work (the `repro.fhe` layer)
across K logical chips, each running its shard of a model-parallel
:func:`~repro.pod.partition.partition` (the programs ``simulate_pod``
prices) lowered by :func:`repro.interpret.lower`.  Execution is
dataflow-triggered: a chip runs its next step once every value the
step's INPUT ops bind has arrived; of several ready chips the
lowest-numbered runs first (runs are bit-reproducible), and when none
is ready the executor raises a ``ScheduleError`` instead of spinning.
Each :class:`~repro.pod.partition.CutEdge` is one transfer, sent right
after the sender step that produces its value; the receiver's stitched
INPUT binds it under the producer's name.  Two failure domains:

* **chip fail-stop** (``reliability.faults.CHIP`` site) - a chip stops
  as it is handed a step, which is never acknowledged: detected by
  construction.  Every logical chip hosted there migrates to the
  least-loaded survivor, restores from its own last checkpoint (each
  chip takes one every :data:`~repro.pod.config.CHECKPOINT_STEPS` of
  its steps, as `repro.reliability.recovery` sealed copies), replays
  the missing steps, and re-applies the receive log: sealed copies of
  the payloads delivered since that checkpoint, each anchored to the
  step it arrived before - classic message-logging recovery, so replay
  never needs a sender to rewind.  Replay is deterministic, so recovery
  is bit-exact.
* **link corruption** (``reliability.faults.LINK`` site) - a cross-chip
  transfer is damaged in flight.  Transfers travel as sealed copies
  (:func:`~repro.reliability.recovery.sealed_copy`); the receiver
  re-verifies the per-limb seals
  (:func:`~repro.reliability.recovery.verified_copy`), so any flipped
  bit raises and the payload is never accepted.  The sender retransmits
  from its intact copy with seeded exponential backoff
  (:data:`~repro.reliability.backoff.RETRY_BACKOFF`) up to
  :data:`~repro.pod.config.LINK_RETRIES` times, then escalates with
  :class:`~repro.reliability.errors.InterconnectError`.

Two runs with the same inputs and injector state are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import ChipConfig
from repro.ir import INPUT, OUTPUT
from repro.obs import collector as obs
from repro.pod.config import CHECKPOINT_STEPS, LINK_RETRIES, PodConfig
from repro.reliability.backoff import RETRY_BACKOFF
from repro.reliability.errors import (
    ChipFailure,
    FaultDetectedError,
    InterconnectError,
    ParameterError,
    ScheduleError,
)
from repro.reliability.faults import CHIP, LINK, FaultInjector
from repro.reliability.recovery import (
    Checkpoint,
    restore_checkpoint,
    sealed_copy,
    take_checkpoint,
    verified_copy,
)

if TYPE_CHECKING:
    from repro.fhe.ckks import Ciphertext
    from repro.interpret import Plan
    from repro.pod.partition import CutEdge


@dataclass
class PodStats:
    """What one pod execution did and survived."""

    chip_failures: int = 0
    migrations: int = 0          # logical chips re-homed after a failure
    replayed_steps: int = 0      # steps re-executed from a checkpoint
    replay_cycles: float = 0.0   # simulated price of those steps
    link_faults_detected: int = 0
    retransmits: int = 0
    backoff_s: float = 0.0       # virtual retransmit backoff accumulated
    checkpoints: int = 0
    # Links (src, dst) that delivered at least one corrupted attempt -
    # campaign coverage evidence, not a counter.
    faulted_links: set = field(default_factory=set)


class PodExecutor:
    """Dataflow-triggered fault-tolerant execution over K logical chips:
    ``plans`` maps each to its lowered shard, ``initial_state`` to the
    values its caller binds; ``cfg``, the machine the shards were
    partitioned for, prices replayed steps."""

    def __init__(self, ctx, pod: PodConfig, cfg: ChipConfig,
                 plans: dict[int, Plan], initial_state: dict[int, dict],
                 transfers: list[CutEdge] = (),
                 injector: FaultInjector | None = None):
        for c in plans:
            if not 0 <= c < pod.chips:
                raise ParameterError("plan for a chip outside the pod",
                                     chip=c, chips=pod.chips)
        self.ctx = ctx
        self.pod = pod
        self.cfg = cfg
        self.plans = plans
        self.injector = injector
        self.rng = np.random.default_rng(pod.seed)
        self._logical = sorted(plans)
        made = {(c, op.result): i for c, plan in plans.items()
                for i, step in enumerate(plan.steps) for op in step.ops
                if op.kind != OUTPUT}
        self._sends: dict[tuple[int, int], list[CutEdge]] = {}
        for t in transfers:
            if (t.src, t.value) not in made:
                raise ParameterError(
                    "transfer of a value no step of the sender produces",
                    src=t.src, value=t.value)
            self._sends.setdefault((t.src, made[t.src, t.value]), []).append(t)
        # Executor owns its state: callers can reuse initial ciphertexts
        # across runs (the campaign does, per trial).
        self.states = {
            c: {name: ct.copy()
                for name, ct in initial_state.get(c, {}).items()}
            for c in self._logical
        }
        self.hosted_on = {c: c for c in range(pod.chips)}  # logical -> phys
        self.dead: set[int] = set()
        self.done = {c: 0 for c in self._logical}  # steps completed
        self.stats = PodStats()
        self._ckpts: dict[int, Checkpoint] = {}
        # Receive log since each chip's last checkpoint: (steps the
        # receiver had done on arrival, name, the wire copy).
        self._rx_log: dict[int, list[tuple[int, str, Ciphertext]]] = {
            c: [] for c in self._logical}

    # -- failure handling ---------------------------------------------------

    def _hosted(self, phys: int) -> list[int]:
        return [c for c in self._logical if self.hosted_on[c] == phys]

    def _fail_chip(self, phys: int) -> None:
        """Fail-stop ``phys``: migrate its logical chips to the
        least-loaded survivor and replay them from their checkpoints."""
        self.dead.add(phys)
        self.stats.chip_failures += 1
        obs.count("pod.chip_failures")
        survivors = [p for p in range(self.pod.chips) if p not in self.dead]
        if not survivors:
            raise ChipFailure(
                "pod lost its last chip; no survivor to migrate onto",
                chip=phys)
        for c in self._hosted(phys):
            self.hosted_on[c] = min(
                survivors, key=lambda p: (len(self._hosted(p)), p))
            self.stats.migrations += 1
            obs.count("pod.migrations")
            ckpt = self._ckpts[c]
            with obs.span("pod.restore", "pod"):
                self.states[c] = restore_checkpoint(ckpt)
            self._replay(c, ckpt.step, self.done[c])

    def _replay(self, c: int, start: int, end: int) -> None:
        """Re-run ``c``'s steps ``[start, end)``, re-applying each logged
        receipt before the step it arrived before."""
        plan = self.plans[c]
        prices = plan.step_cycles(self.cfg)
        for i in range(start, end + 1):
            for anchor, name, wire in self._rx_log[c]:
                if anchor == i:
                    self.states[c][name] = verified_copy(wire)
            if i < end:
                with obs.span("pod.replay_step", "pod"):
                    plan.steps[i].fn(self.ctx, self.states[c])
                self.stats.replayed_steps += 1
                self.stats.replay_cycles += prices[i]
                obs.count("pod.replayed_steps")

    # -- transfers ----------------------------------------------------------

    def _transfer(self, t: CutEdge) -> None:
        sent = sealed_copy(self.states[t.src][t.value])  # sender-side
        attempts = LINK_RETRIES + 1
        for attempt in range(attempts):
            wire = sent.copy()  # the only copy a link fault can touch
            if self.injector is not None:
                half = wire.c0 if self.rng.random() < 0.5 else wire.c1
                self.injector.maybe_corrupt(LINK, half.data)
            try:
                received = verified_copy(wire)  # re-verifies the seals
            except FaultDetectedError:
                self.stats.link_faults_detected += 1
                self.stats.faulted_links.add((t.src, t.dst))
                obs.count("pod.link_faults_detected")
                if attempt + 1 < attempts:
                    self.stats.retransmits += 1
                    self.stats.backoff_s += RETRY_BACKOFF.pause(
                        attempt + 1, self.rng)
                    obs.count("pod.retransmits")
                continue
            self.states[t.dst][t.value] = received
            self._rx_log[t.dst].append((self.done[t.dst], t.value, wire))
            obs.count("pod.transfers")
            return
        raise InterconnectError(
            "link retransmit budget exhausted; transfer never arrived "
            "intact", src=t.src, dst=t.dst, value=t.value,
            retries=LINK_RETRIES)

    # -- main loop ----------------------------------------------------------

    def _checkpoint(self, c: int) -> None:
        with obs.span("pod.checkpoint", "pod"):
            self._ckpts[c] = take_checkpoint(
                self.ctx, self.states[c], step=self.done[c],
                label=f"pod-chip{c}")
        self._rx_log[c] = []  # receipts now inside the checkpoint
        self.stats.checkpoints += 1
        obs.count("pod.checkpoints")

    def _missing(self, c: int) -> list[str]:
        """Values chip ``c``'s next step binds that have not arrived."""
        return [op.result for op in self.plans[c].steps[self.done[c]].ops
                if op.kind == INPUT and op.result not in self.states[c]]

    def run(self) -> dict[int, dict]:
        """Execute every plan to completion; returns the final states.

        Raises :class:`ChipFailure` only when the last chip dies,
        :class:`InterconnectError` only when a transfer exhausts its
        retransmit budget, and :class:`ScheduleError` when no chip can
        advance - everything survivable is survived.
        """
        for c in self._logical:
            self._checkpoint(c)  # step-0 baseline: any death can restore
        while True:
            pending = [c for c in self._logical
                       if self.done[c] < len(self.plans[c].steps)]
            if not pending:
                return self.states
            c = next((c for c in pending if not self._missing(c)), None)
            if c is None:
                raise ScheduleError(
                    "no chip can advance: every pending step waits for "
                    "a value no transfer delivers",
                    waiting={c: self._missing(c) for c in pending})
            i = self.done[c]
            if self.injector is not None and self.injector.fires(CHIP):
                self._fail_chip(self.hosted_on[c])
            with obs.span("pod.step", "pod"):
                self.plans[c].steps[i].fn(self.ctx, self.states[c])
            obs.count("pod.steps")
            for t in self._sends.get((c, i), ()):
                self._transfer(t)
            self.done[c] = i + 1
            if self.done[c] % CHECKPOINT_STEPS == 0:
                self._checkpoint(c)
