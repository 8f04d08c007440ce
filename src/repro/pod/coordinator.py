"""Pod-coordinated functional execution with chip/link fault recovery.

The :class:`PodExecutor` runs real CKKS work (the `repro.fhe` layer)
across K logical chips in lock-step rounds, surviving the pod's two new
failure domains:

* **chip fail-stop** (``reliability.faults.CHIP`` site) - a chip stops
  mid-round.  The coordinator observes the loss (fail-stop is detected
  by construction: the lock-step barrier never hears back), migrates
  every logical chip hosted there onto the least-loaded survivor,
  restores the lost state from the last *pod-coordinated checkpoint*
  (all chips checkpoint at the same round barrier, reusing
  `repro.reliability.recovery`'s sealed copies), replays the missing
  steps, and re-applies the coordinator's receive log (sealed copies of
  every cross-chip payload delivered since that checkpoint - classic
  message-logging recovery, so replay never needs a sender to rewind).
  Replay is deterministic, so recovery is bit-exact.
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

Execution state is a per-logical-chip dict of named ciphertexts; a step
is ``(name, fn)`` with ``fn(ctx, state)`` mutating its chip's dict (a
chip's IR program lowered by :func:`repro.interpret.lower` gives one
step per round), and cross-chip dataflow is declared as
:class:`Transfer` records bound to round boundaries.  Everything is seeded; two runs with the same inputs
and injector state produce bit-identical final ciphertexts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.obs import collector as obs
from repro.pod.config import CHECKPOINT_ROUNDS, LINK_RETRIES, PodConfig
from repro.reliability.backoff import RETRY_BACKOFF
from repro.reliability.errors import (
    ChipFailure,
    FaultDetectedError,
    InterconnectError,
    ParameterError,
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

Step = tuple[str, Callable]


@dataclass(frozen=True)
class Transfer:
    """One cross-chip ciphertext movement at a round boundary."""

    src: int                 # logical sending chip
    dst: int                 # logical receiving chip
    name: str                # key in the sender's state dict
    rename: str | None = None  # key in the receiver's (default: name)


@dataclass
class PodStats:
    """What one pod execution did and survived."""

    rounds: int = 0
    steps: int = 0
    transfers: int = 0
    chip_failures: int = 0
    migrations: int = 0          # logical chips re-homed after a failure
    replayed_steps: int = 0      # steps re-executed from a checkpoint
    link_faults_detected: int = 0
    retransmits: int = 0
    backoff_s: float = 0.0       # virtual retransmit backoff accumulated
    checkpoints: int = 0
    restores: int = 0
    # Links (src, dst) that delivered at least one corrupted attempt -
    # campaign coverage evidence, not a counter.
    faulted_links: set = field(default_factory=set)


class PodExecutor:
    """Lock-step fault-tolerant execution over K logical chips."""

    def __init__(self, ctx, pod: PodConfig,
                 plans: dict[int, list[Step]],
                 initial_state: dict[int, dict],
                 transfers: dict[int, list[Transfer]] | None = None,
                 injector: FaultInjector | None = None):
        for c in plans:
            if not 0 <= c < pod.chips:
                raise ParameterError("plan for a chip outside the pod",
                                     chip=c, chips=pod.chips)
        self.ctx = ctx
        self.pod = pod
        self.plans = {c: list(steps) for c, steps in plans.items()}
        self.transfers = {r: list(ts) for r, ts in (transfers or {}).items()}
        self.injector = injector
        self.rng = np.random.default_rng(pod.seed)
        # Executor owns its state: callers can reuse initial ciphertexts
        # across runs (the campaign does, per trial).
        self.states = {
            c: {name: ct.copy() for name, ct in entries.items()}
            for c, entries in initial_state.items()
        }
        self.hosted_on = {c: c for c in range(pod.chips)}  # logical -> phys
        self.dead: set[int] = set()
        self.done = {c: 0 for c in range(pod.chips)}  # steps completed
        self.stats = PodStats()
        self._ckpts: dict[int, Checkpoint] = {}
        # Receive log: sealed copies of payloads delivered since the last
        # pod checkpoint, keyed by receiving chip - replayed after a
        # restore so recovery never needs a sender to rewind.
        self._rx_log: dict[int, list[tuple[int, str, Ciphertext]]] = {
            c: [] for c in range(pod.chips)}
        self._logical = sorted(self.plans)
        self._round = 0

    # -- failure handling ---------------------------------------------------

    def _survivors(self) -> list[int]:
        return [p for p in range(self.pod.chips) if p not in self.dead]

    def _hosted(self, phys: int) -> list[int]:
        return [c for c in self._logical if self.hosted_on[c] == phys]

    def _fail_chip(self, phys: int, round_no: int) -> None:
        """Fail-stop ``phys``: migrate its logical chips to the
        least-loaded survivor and replay them from the pod checkpoint."""
        self.dead.add(phys)
        self.stats.chip_failures += 1
        obs.count("pod.chip_failures")
        survivors = self._survivors()
        if not survivors:
            raise ChipFailure(
                "pod lost its last chip; no survivor to migrate onto",
                chip=phys, round=round_no)
        for c in self._hosted(phys):
            host = min(survivors, key=lambda p: (len(self._hosted(p)), p))
            self.hosted_on[c] = host
            self.stats.migrations += 1
            obs.count("pod.migrations")
            # The dead chip's live state went with it: rebuild from the
            # last coordinated checkpoint, replay the missing steps, and
            # re-apply logged receipts at their original boundaries.
            ckpt = self._ckpts[c]
            with obs.span("pod.restore", "pod"):
                self.states[c] = restore_checkpoint(ckpt)
            self.stats.restores += 1
            self._replay(c, ckpt.step, self.done[c])

    def _replay(self, c: int, start: int, end: int) -> None:
        receipts = self._rx_log[c]
        for i in range(start, end):
            fn = self.plans[c][i][1]
            with obs.span("pod.replay_step", "pod"):
                fn(self.ctx, self.states[c])
            self.stats.replayed_steps += 1
            obs.count("pod.replayed_steps")
            for round_no, key, wire in receipts:
                if round_no == i:
                    self.states[c][key] = verified_copy(wire)
        # Receipts delivered after the chip's last step (its plan ended
        # but the pod kept routing to it) have no step to anchor to;
        # re-apply them in arrival order.
        for round_no, key, wire in receipts:
            if round_no >= end:
                self.states[c][key] = verified_copy(wire)

    # -- transfers ----------------------------------------------------------

    def _transfer(self, t: Transfer) -> None:
        sender = self.states[t.src]
        if t.name not in sender:
            raise ParameterError("transfer of a value the sender lacks",
                                 src=t.src, name=t.name)
        sent = sealed_copy(sender[t.name])  # sealed, sender-side
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
            key = t.rename or t.name
            self.states[t.dst][key] = received
            self._rx_log[t.dst].append((self._round, key, wire))
            self.stats.transfers += 1
            obs.count("pod.transfers")
            return
        raise InterconnectError(
            "link retransmit budget exhausted; transfer never arrived "
            "intact", src=t.src, dst=t.dst, name=t.name,
            retries=LINK_RETRIES)

    # -- main loop ----------------------------------------------------------

    def _checkpoint_all(self) -> None:
        with obs.span("pod.checkpoint", "pod"):
            for c in self._logical:
                self._ckpts[c] = take_checkpoint(
                    self.ctx, self.states[c], step=self.done[c],
                    label=f"pod-chip{c}")
                self._rx_log[c] = []  # receipts now inside the checkpoint
                self.stats.checkpoints += 1
                obs.count("pod.checkpoints")

    def run(self) -> dict[int, dict]:
        """Execute every plan to completion; returns the final states.

        Raises :class:`ChipFailure` only when the last chip dies, and
        :class:`InterconnectError` only when a transfer exhausts its
        retransmit budget - everything survivable is survived.
        """
        rounds = max((len(s) for s in self.plans.values()), default=0)
        self._checkpoint_all()  # round-0 baseline: any death can restore
        for r in range(rounds):
            self._round = r
            self.stats.rounds += 1
            for c in self._logical:
                if self.done[c] > r or r >= len(self.plans[c]):
                    continue
                phys = self.hosted_on[c]
                if self.injector is not None and phys not in self.dead \
                        and self.injector.fires(CHIP):
                    self._fail_chip(phys, r)
                fn = self.plans[c][r][1]
                with obs.span("pod.step", "pod"):
                    fn(self.ctx, self.states[c])
                self.done[c] = r + 1
                self.stats.steps += 1
                obs.count("pod.steps")
            for t in self.transfers.get(r, ()):  # round-boundary dataflow
                self._transfer(t)
            if (r + 1) % CHECKPOINT_ROUNDS == 0:
                self._checkpoint_all()
        return self.states
