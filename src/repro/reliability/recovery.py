"""Checkpoint/replay recovery: detected faults become resumed computation.

The detection substrate (per-limb checksums, hint verification, NTT
transform checksums) turns silent corruption into
:class:`~repro.reliability.errors.FaultDetectedError` - but a deep
bootstrapped program that *aborts* on every transient still wastes
minutes of work.  This module closes the loop: sealed ciphertext state is
snapshotted at schedule boundaries, and a :class:`RecoveringExecutor`
rolls a faulted program back to the last valid checkpoint, replays only
the affected ops, and escalates (older checkpoint -> full restart ->
:class:`UnrecoverableFaultError`) when replay keeps failing.

Layering: this package sits *below* the fhe layer, so everything touching
:class:`~repro.fhe.ckks.Ciphertext` does deferred imports, mirroring
`repro.reliability.faults`.

Three pieces:

* **Checkpoints** (:class:`Checkpoint`) - named :func:`sealed_copy`
  ciphertexts: deep copies of the RNS limbs, scale, NoiseBudget and
  their own per-limb seals.  Checkpoint creation verifies each entry's
  seal first, so a corrupted ciphertext can never be enshrined as a
  rollback target; restoration (:func:`verified_copy`) re-verifies, so
  a checkpoint corrupted *at rest* is itself detected and skipped.
* **Stores** (:class:`RingBufferStore`, :class:`DiskStore`) - where
  checkpoints live: a bounded in-memory ring for long-running programs,
  or ``.npz`` + JSON sidecar files for cross-process resume.
* **The executor** (:class:`RecoveryPolicy`, :class:`RecoveringExecutor`)
  - runs a list of named steps over a dict of named ciphertexts,
  checkpointing every ``checkpoint_every`` steps and recovering from
  ``FaultDetectedError`` per the policy.  Replay is deterministic: the
  homomorphic ops between checkpoints use no randomness, so a clean
  replay is bit-identical to a clean first execution (asserted by the
  recovery campaign against fault-free references).

Checkpoint and replay cost is threaded into the cycle model: a
checkpoint writes ``2*L*N`` residue words through the HBM stream
(:func:`checkpoint_cycles`, the one checkpoint price; the simulator has
none of its own), replayed steps re-pay their simulated cycles
(:meth:`repro.interpret.Plan.step_cycles`), and both are accumulated
into :class:`RecoveryStats` and emitted as obs counters
(``reliability.recovery.*``) so the overhead of resilience is
measurable, not assumed.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import collector as obs
from repro.reliability.backoff import Backoff
from repro.reliability.campaign import SiteStats, SiteTotals, render
from repro.reliability.checksums import pair_checksums
from repro.reliability.errors import (
    FaultDetectedError,
    ParameterError,
    UnrecoverableFaultError,
)

if TYPE_CHECKING:
    from repro.fhe.ckks import Ciphertext


# -- sealed copies ------------------------------------------------------------


def sealed_copy(ct: Ciphertext) -> Ciphertext:
    """Deep copy of ``ct`` holding its own copy of the per-limb seals.

    An unsealed ``ct`` (its context does not checksum) is sealed here,
    so every stored copy can be re-verified later.
    """
    copy = ct.copy()
    if ct.integrity is None:
        copy.integrity = tuple(pair_checksums(
            ct.c0.data, ct.c1.data, ct.basis.moduli_col))
    else:
        copy.integrity = (ct.integrity[0].copy(), ct.integrity[1].copy())
    return copy


def verified_copy(ct: Ciphertext) -> Ciphertext:
    """Re-checksum a stored :func:`sealed_copy` and hand out a fresh one.

    A copy corrupted at rest raises ``FaultDetectedError`` instead of
    becoming a poisoned rollback target.
    """
    current = pair_checksums(ct.c0.data, ct.c1.data, ct.basis.moduli_col)
    if not np.array_equal(current, ct.integrity):
        obs.count("reliability.recovery.bad_checkpoint")
        raise FaultDetectedError(
            "checkpoint failed its own seal on restore; the "
            "snapshot was corrupted at rest",
        )
    return sealed_copy(ct)


@dataclass
class Checkpoint:
    """Sealed program state at one schedule boundary."""

    step: int                 # next step index to execute after restore
    entries: dict[str, Ciphertext]  # sealed_copy of each named value
    label: str = ""
    cycles: float = 0.0       # cycle-model cost charged for writing it

    def size_words(self) -> int:
        return sum(ct.size_words() for ct in self.entries.values())


def take_checkpoint(ctx, state: dict, step: int,
                    label: str = "") -> Checkpoint:
    """Seal a copy of every ciphertext in ``state`` after verifying it.

    The verification is what keeps rollback targets trustworthy: a limb
    corrupted *before* the boundary raises ``FaultDetectedError`` here,
    at the checkpoint, and the executor rolls back to the previous valid
    one instead of enshrining poisoned state.
    """
    with obs.span("reliability.recovery.checkpoint", "reliability"):
        obs.count("reliability.recovery.checkpoints")
        entries = {}
        for name, ct in state.items():
            ctx.verify_integrity(ct, f"checkpoint entry {name!r}")
            entries[name] = sealed_copy(ct)
        return Checkpoint(step=step, entries=entries, label=label)


def restore_checkpoint(ckpt: Checkpoint) -> dict:
    """Materialize every entry; raises if the checkpoint itself is bad."""
    with obs.span("reliability.recovery.restore", "reliability"):
        obs.count("reliability.recovery.restores")
        return {name: verified_copy(ct) for name, ct in ckpt.entries.items()}


def checkpoint_cycles(ckpt: Checkpoint, cfg) -> float:
    """Cycle-model cost of writing ``ckpt`` through the HBM stream."""
    return ckpt.size_words() / cfg.hbm_words_per_cycle


# -- checkpoint stores -------------------------------------------------------


class RingBufferStore:
    """Last-``capacity`` checkpoints in memory; the long-running default."""

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ParameterError("ring buffer needs capacity >= 1",
                                 capacity=capacity)
        self._ring: deque[Checkpoint] = deque(maxlen=capacity)

    def save(self, ckpt: Checkpoint) -> None:
        self._ring.append(ckpt)

    def latest(self) -> Checkpoint | None:
        return self._ring[-1] if self._ring else None

    def drop_latest(self) -> Checkpoint | None:
        """Discard the newest checkpoint (escalation: it may be suspect)."""
        return self._ring.pop() if self._ring else None

    def checkpoints(self) -> list[Checkpoint]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class DiskStore:
    """Checkpoints as ``.npz`` files with a JSON metadata sidecar.

    One file per checkpoint (``<prefix>_<step>.npz``): arrays under
    ``<name>.c0`` / ``<name>.c1`` / ``<name>.sum0`` / ``<name>.sum1``
    keys, scalar bookkeeping in the sidecar.  Loaded entries keep their
    stored seals, and :func:`restore_checkpoint` re-verifies every one,
    so on-disk corruption is detected, not decrypted.

    Writes follow the payload-then-manifest discipline the compile cache
    uses: both files land under temporary names and are atomically
    renamed, payload first, manifest last.  The manifest's existence is
    the commit point - a crash mid-checkpoint leaves either nothing or a
    manifest-less payload, and :meth:`steps` counts the latter as a
    *stale* checkpoint (``reliability.recovery.stale_checkpoints``)
    instead of handing restore a torn ``.npz``.
    """

    def __init__(self, directory, prefix: str = "ckpt"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix

    def _path(self, step: int) -> Path:
        return self.directory / f"{self.prefix}_{step:06d}.npz"

    def save(self, ckpt: Checkpoint) -> Path:
        arrays = {}
        meta: dict[str, object] = {"step": ckpt.step, "label": ckpt.label,
                                   "cycles": ckpt.cycles, "entries": {}}
        for name, ct in ckpt.entries.items():
            arrays[f"{name}.c0"] = ct.c0.data
            arrays[f"{name}.c1"] = ct.c1.data
            arrays[f"{name}.sum0"], arrays[f"{name}.sum1"] = ct.integrity
            budget = ct.budget
            meta["entries"][name] = {
                "moduli": list(ct.basis.moduli),
                "domain0": ct.c0.domain, "domain1": ct.c1.domain,
                "scale": ct.scale,
                "budget_noise_bits": budget and budget.noise_bits,
                "budget_sigma": budget and budget.sigma,
                "budget_mod_bits": budget and budget.modulus_bits_per_level,
            }
        path = self._path(ckpt.step)
        manifest = path.with_suffix(".json")
        tmp_npz = path.with_suffix(".npz.tmp")
        tmp_json = manifest.with_suffix(".json.tmp")
        with open(tmp_npz, "wb") as fh:  # np.savez would append ".npz"
            np.savez(fh, **arrays)
        os.replace(tmp_npz, path)
        tmp_json.write_text(json.dumps(meta))
        os.replace(tmp_json, manifest)
        return path

    def steps(self) -> list[int]:
        """Committed checkpoint steps (payload *and* manifest present).

        Payloads without a manifest are half-written casualties of a
        crash; they are counted (not loaded, not deleted - post-mortems
        may want them) and excluded, so recovery falls back to the
        newest *complete* checkpoint.
        """
        complete = []
        for p in self.directory.glob(f"{self.prefix}_*.npz"):
            if p.with_suffix(".json").exists():
                complete.append(int(p.stem[len(self.prefix) + 1:]))
            else:
                obs.count("reliability.recovery.stale_checkpoints")
        return sorted(complete)

    def load(self, step: int) -> Checkpoint:
        from repro.fhe.ckks import Ciphertext  # deferred: fhe sits above
        from repro.fhe.noise import NoiseBudget
        from repro.fhe.poly import RnsPoly
        from repro.fhe.rns import RnsBasis

        path = self._path(step)
        meta = json.loads(path.with_suffix(".json").read_text())
        entries = {}
        with np.load(path) as arrays:
            for name, info in meta["entries"].items():
                basis = RnsBasis(tuple(info["moduli"]))
                ct = Ciphertext(
                    RnsPoly(basis, arrays[f"{name}.c0"], info["domain0"]),
                    RnsPoly(basis, arrays[f"{name}.c1"], info["domain1"]),
                    info["scale"],
                    integrity=(arrays[f"{name}.sum0"],
                               arrays[f"{name}.sum1"]),
                )
                if info["budget_noise_bits"] is not None:
                    ct.budget = NoiseBudget(
                        degree=ct.degree,
                        modulus_bits_per_level=info["budget_mod_bits"],
                        levels=ct.level, sigma=info["budget_sigma"],
                        noise_bits=info["budget_noise_bits"])
                entries[name] = ct
        return Checkpoint(step=meta["step"], entries=entries,
                          label=meta["label"], cycles=meta["cycles"])

    def latest(self) -> Checkpoint | None:
        steps = self.steps()
        return self.load(steps[-1]) if steps else None

    def drop_latest(self) -> Checkpoint | None:
        steps = self.steps()
        if not steps:
            return None
        ckpt = self.load(steps[-1])
        self._path(steps[-1]).unlink()
        self._path(steps[-1]).with_suffix(".json").unlink()
        return ckpt


# -- recovery policy and executor --------------------------------------------


@dataclass
class RecoveryPolicy:
    """How a program reacts when an integrity check fires mid-run.

    ``checkpoint_every``: steps between checkpoints (the granularity
    knob: smaller means cheaper replays, more checkpoint traffic).
    ``max_retries``: replays from checkpoints before escalating to a full
    restart; each failed retry *discards the newest checkpoint* - if
    replay from a checkpoint keeps faulting, the checkpoint itself is
    suspect, so escalation walks backwards through the ring.
    ``max_restarts``: full-program restarts (from the verified initial
    state) before giving up with :class:`UnrecoverableFaultError`.
    ``backoff``: the :class:`~repro.reliability.backoff.Backoff` pause
    before each replay - pointless for deterministic replays, essential
    when the fault source is a flaky external resource; ``None``
    disables it (the default keeps tests fast).  The serving front-end
    (`repro.serve`) passes its seeded rng so jittered schedules stay
    reproducible.  Where the pause *happens* is the executor's ``sleep``
    hook: ``time.sleep`` by default, a virtual clock under simulation.
    Checkpoints always verify every entry's seal (an unverified
    checkpoint taken between a corruption and its detection would poison
    every rollback to it).
    """

    checkpoint_every: int = 4
    max_retries: int = 3
    max_restarts: int = 1
    backoff: Backoff | None = None

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ParameterError("checkpoint_every must be >= 1",
                                 checkpoint_every=self.checkpoint_every)
        if self.max_retries < 0 or self.max_restarts < 0:
            raise ParameterError("retry/restart counts must be >= 0",
                                 max_retries=self.max_retries,
                                 max_restarts=self.max_restarts)


@dataclass
class RecoveryStats:
    """What resilience cost for one program run."""

    steps: int = 0                # distinct steps completed
    detections: int = 0           # FaultDetectedErrors caught
    rollbacks: int = 0            # checkpoint restores performed
    restarts: int = 0             # full-program restarts
    replayed_steps: int = 0       # step executions beyond the first
    checkpoints_taken: int = 0
    checkpoint_words: float = 0.0
    checkpoint_cycles: float = 0.0
    replay_cycles: float = 0.0
    backoff_seconds: float = 0.0
    recovered: bool = True        # False only when the run raised

    @property
    def overhead_cycles(self) -> float:
        return self.checkpoint_cycles + self.replay_cycles


class RecoveringExecutor:
    """Run named steps over named ciphertexts, recovering from faults.

    ``steps`` is a list of ``(name, fn)`` pairs; each ``fn(ctx, state)``
    mutates the ``state`` dict of ciphertexts in place (pure homomorphic
    ops - no randomness - so replay is deterministic).  ``step_cycles``
    optionally prices each step in simulated cycles so replay overhead
    lands in the cycle model; ``cfg`` (a ChipConfig) prices checkpoint
    writes the same way.

    The escalation ladder on ``FaultDetectedError``:

    1. roll back to the newest stored checkpoint and replay (up to
       ``max_retries`` times, discarding the newest checkpoint after
       each failed attempt - it may itself hold undetected corruption);
    2. restart the whole program from the verified initial snapshot
       (up to ``max_restarts`` times);
    3. raise :class:`UnrecoverableFaultError` carrying the history.
    """

    def __init__(self, ctx, policy: RecoveryPolicy | None = None,
                 store=None, cfg=None,
                 step_cycles: list[float] | None = None,
                 sleep=None, rng=None):
        self.ctx = ctx
        self.policy = policy or RecoveryPolicy()
        self.store = store if store is not None else RingBufferStore()
        self.cfg = cfg
        self.step_cycles = step_cycles
        # Backoff pauses go through this hook: ``time.sleep`` for real
        # deployments, a virtual clock's ``sleep`` under the serving
        # simulation (no wall-clock calls in deterministic campaigns).
        self._sleep = sleep if sleep is not None else time.sleep
        self._rng = rng  # jitter source for policy.backoff
        # Live view of the running program's state dict: the residents
        # :meth:`evict_sweep` verifies mid-keyswitch.
        self._state: dict | None = None

    def _checkpoint(self, state: dict, step: int,
                    stats: RecoveryStats) -> Checkpoint:
        ckpt = take_checkpoint(self.ctx, state, step, label=f"step{step}")
        if self.cfg is not None:
            ckpt.cycles = checkpoint_cycles(ckpt, self.cfg)
            stats.checkpoint_cycles += ckpt.cycles
        stats.checkpoints_taken += 1
        stats.checkpoint_words += ckpt.size_words()
        obs.count("reliability.recovery.checkpoint_words",
                  ckpt.size_words())
        self.store.save(ckpt)
        return ckpt

    def _restore(self, ckpt: Checkpoint | None,
                 initial: Checkpoint, stats: RecoveryStats) -> tuple:
        """Restore the newest usable checkpoint, walking back as needed."""
        while ckpt is not None:
            try:
                state = restore_checkpoint(ckpt)
                stats.rollbacks += 1
                obs.count("reliability.recovery.rollbacks")
                return state, ckpt.step
            except FaultDetectedError:
                # The checkpoint itself is damaged: discard, walk back.
                self.store.drop_latest()
                ckpt = self.store.latest()
        state = restore_checkpoint(initial)
        stats.rollbacks += 1
        obs.count("reliability.recovery.rollbacks")
        return state, initial.step

    def evict_sweep(self) -> None:
        """Verify every resident of the running program's state.

        Install as the integrity ``boundary_hook``: a keyswitch's working
        set displaces the register file, so each resident's words are
        about to be written back - a corrupted one raises
        ``FaultDetectedError`` here, inside the step, and the executor
        rolls back.  A no-op before :meth:`run` starts.
        """
        if self._state is None:
            return
        with obs.span("reliability.rf.evict_verify", "reliability"):
            for name, ct in self._state.items():
                self.ctx.verify_integrity(ct, f"rf evictee {name!r}")

    def run(self, steps, state: dict) -> tuple[dict, RecoveryStats]:
        """Execute ``steps`` over ``state``; returns (final state, stats).

        ``state`` is consumed (the executor works on restored copies
        after any rollback); the returned dict is the surviving state.
        """
        policy = self.policy
        stats = RecoveryStats()
        self._state = state
        initial = take_checkpoint(self.ctx, state, 0, label="initial")
        executed: set[int] = set()
        # Retries are scoped to the faulting step: earlier steps replaying
        # cleanly after a rollback is expected, not progress against the
        # fault, so only repeated failures *at the same step* escalate.
        fault_counts: dict[int, int] = {}
        i = 0
        total = len(steps)
        while i <= total:
            name = steps[i][0] if i < total else "<output-commit>"
            try:
                if i == total:
                    # Output commit: the final state is about to leave the
                    # recovery domain, so verify every entry's seal - a
                    # fault after the last checkpoint would otherwise
                    # escape undetected into the program's results.
                    for entry_name, ct in state.items():
                        self.ctx.verify_integrity(
                            ct, f"output {entry_name!r}")
                    break
                fn = steps[i][1]
                fn(self.ctx, state)
                if i in executed:
                    stats.replayed_steps += 1
                    obs.count("reliability.recovery.replayed_steps")
                    if self.step_cycles is not None:
                        stats.replay_cycles += self.step_cycles[i]
                else:
                    executed.add(i)
                    stats.steps += 1
                i += 1
                if i < total and i % policy.checkpoint_every == 0:
                    self._checkpoint(state, i, stats)
            except FaultDetectedError as err:
                stats.detections += 1
                obs.count("reliability.recovery.detections")
                retries = fault_counts[i] = fault_counts.get(i, 0) + 1
                if retries <= policy.max_retries:
                    pause = (policy.backoff.pause(retries, self._rng)
                             if policy.backoff is not None else 0.0)
                    if pause:
                        stats.backoff_seconds += pause
                        self._sleep(pause)
                    if retries > 1:
                        # The same step faulted again: the newest
                        # checkpoint is suspect; fall back to an older one.
                        self.store.drop_latest()
                    state, i = self._restore(self.store.latest(), initial,
                                             stats)
                    self._state = state
                elif stats.restarts < policy.max_restarts:
                    stats.restarts += 1
                    obs.count("reliability.recovery.restarts")
                    fault_counts.clear()
                    while self.store.drop_latest() is not None:
                        pass
                    state = restore_checkpoint(initial)
                    self._state = state
                    i = 0
                    # Restart replays everything already executed once.
                else:
                    stats.recovered = False
                    obs.count("reliability.recovery.unrecoverable")
                    raise UnrecoverableFaultError(
                        "fault persisted through checkpoint replays and "
                        "full restarts",
                        step=name, step_index=i,
                        detections=stats.detections,
                        restarts=stats.restarts,
                        max_retries=policy.max_retries,
                    ) from err
        return state, stats


# -- recovery-aware fault campaign -------------------------------------------


@dataclass
class RecoveryCampaignResult(SiteTotals):
    """What the recovery-aware campaign measured."""

    params: dict                   # run_recovery_campaign's arguments
    sites: dict[str, SiteStats]
    false_positives: int
    base_cycles_per_run: float     # simulated cycles of a fault-free run
    checkpoint_cycles: float       # total resilience cost across all trials
    replay_cycles: float
    total_seconds: float
    check_seconds: float  # wall time inside the detectors (_CHECK_SPANS)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def aborted(self) -> int:
        """Trials whose recovery raised: the unrecovered total."""
        return self.unrecovered

    @property
    def recovery_rate(self) -> float:
        return self.recovered / self.detected if self.detected else 0.0

    @property
    def overhead_fraction(self) -> float:
        """Resilience cycles over useful (fault-free program) cycles."""
        useful = self.base_cycles_per_run * max(1, self.injected)
        return (self.checkpoint_cycles + self.replay_cycles) / useful

    def to_json(self) -> dict:
        return {
            "params": self.params,
            "sites": {site: s.to_json(_SITE_FIELDS)
                      for site, s in self.sites.items()},
            "false_positives": self.false_positives,
            "base_cycles_per_run": self.base_cycles_per_run,
            "checkpoint_cycles": self.checkpoint_cycles,
            "replay_cycles": self.replay_cycles,
        }

    def report(self) -> str:
        p = self.params
        return render(
            f"Recovery campaign (seed={p['seed']}, "
            f"{p['ops_per_run']} ops/run)",
            self.sites,
            ["injected", "detected", "recovered", "wrong", "unrecovered",
             "undetected", "rec rate", "steps/rec"],
            [
                f"totals: {self.recovered} recovered / "
                f"{self.wrong_answers} wrong / {self.unrecovered} "
                f"unrecovered / {self.undetected} undetected of "
                f"{self.injected} injected ({self.recovery_rate:.1%} of "
                "detected faults recovered)",
                f"clean runs: {p['clean_runs']}, "
                f"{self.false_positives} false positives",
                f"replay overhead: {self.replay_cycles:,.0f} cycles "
                f"replayed + {self.checkpoint_cycles:,.0f} cycles of "
                f"checkpoint traffic ({self.overhead_fraction:.2%} of "
                f"{self.base_cycles_per_run * max(1, self.injected):,.0f} "
                "useful cycles)",
                f"detection overhead: {self.check_seconds * 1e3:.1f} ms "
                f"of {self.total_seconds * 1e3:.1f} ms wall time "
                f"({self.check_seconds / self.total_seconds:.1%})",
            ])


_SITE_FIELDS = ("injected", "detected", "recovered", "wrong", "unrecovered",
                "benign", "replayed_steps")

# The detectors' spans: their summed wall time is the campaign's
# detection overhead.
_CHECK_SPANS = ("reliability.checksum.seal", "reliability.checksum.verify",
                "reliability.ntt.recheck", "reliability.ntt.checksum",
                "reliability.hint.verify", "reliability.rf.evict_verify")


def campaign_program(degree: int, max_level: int, ops_per_run: int):
    """The campaign's program: one pmult, then alternate rotate and add.

    ``acc`` is multiplied by the plaintext ``"w"`` (and rescaled), then
    rotated by one slot and ``base`` added back, for ``ops_per_run``
    ops.  The serving programs' steps start with a rotate or a pmult, so
    the campaign's do too: each pmult or rotate begins an executor step
    (`repro.interpret`), and every step crosses a detector boundary
    (operand verify; for a rotate also the hint load, NTT checksums and
    the eviction sweep).  ``base`` enters at the pmult's output level
    and is the quiet register-file resident whose corruption sits
    undetected until the next sweep.
    """
    from repro.compiler.dsl import FheBuilder  # deferred: it imports us

    b = FheBuilder("recovery-campaign", degree=degree, max_level=max_level)
    acc = b.input("acc", max_level)
    base = b.input("base", max_level - 1)
    acc = b.pmult(acc, "w")
    for i in range(ops_per_run):
        acc = b.rotate(acc, 1) if i % 2 == 0 else b.add(acc, base)
    b.output(acc)
    return b.build()


def run_recovery_campaign(seed: int = 2022, faults: int = 1000,
                          degree: int = 128, max_level: int = 4,
                          ops_per_run: int = 8, checkpoint_every: int = 3,
                          clean_runs: int = 8,
                          policy: RecoveryPolicy | None = None,
                          ) -> RecoveryCampaignResult:
    """Inject one seeded fault per trial and measure end-to-end recovery.

    Each trial runs :func:`campaign_program` (a pmult step, then
    ``ops_per_run`` rotate/add ops, one executor step per rotate and its
    add) under a
    :class:`RecoveringExecutor` with one corruption armed at a random
    step: ``limb`` faults hit the working accumulator, ``rf``
    faults a quiet register-file resident, ``ntt``/``hbm`` faults fire
    inside a keyswitch.  The trial's final ciphertext is compared
    bit-for-bit against the fault-free reference; recovered means the
    detectors fired *and* the replayed output matches exactly, and any
    other output counts as a wrong answer, detected or not.

    A clean phase first proves the recovery machinery is inert on
    uncorrupted runs (zero detections, bit-identical output, only
    checkpoint overhead).  Everything flows from ``seed``.
    """
    from repro.core.config import ChipConfig
    from repro.fhe.ckks import CkksContext, CkksParams
    from repro.interpret import lower
    from repro.reliability import faults as _faults
    from repro.reliability import guards

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = CkksParams(degree=degree, max_level=max_level, digits=1,
                        secret_hamming=max(8, degree // 16), seed=seed)
    ctx = CkksContext(params, policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    cfg = ChipConfig()
    plan = lower(campaign_program(degree, max_level, ops_per_run),
                 hints={1: ctx.rotation_hint(sk, 1)},
                 plaintexts={"w": 0.5 * rng.standard_normal(params.slots)})
    acc_name, base_name = plan.inputs
    out_name = plan.outputs[0]

    own_collector = not obs.is_enabled()
    collector = obs.enable() if own_collector else obs.active()
    collector.meta.update({"campaign": "recovery", "seed": seed,
                           "faults": faults, "degree": degree,
                           "ops_per_run": ops_per_run,
                           "checkpoint_every": checkpoint_every})

    acc = ctx.encrypt_values(
        sk, 0.5 * rng.standard_normal(params.slots))
    base = ctx.encrypt_values(
        sk, 0.5 * rng.standard_normal(params.slots), level=max_level - 1)
    master = take_checkpoint(ctx, {acc_name: acc, base_name: base}, 0,
                             label="trial-start")

    steps = plan.steps
    step_cycles = plan.step_cycles(cfg)
    keyswitch_steps = [i for i, s in enumerate(steps) if s.keyswitches]
    policy = policy or RecoveryPolicy(checkpoint_every=checkpoint_every)

    def executor():
        return RecoveringExecutor(ctx, policy, store=RingBufferStore(4),
                                  cfg=cfg, step_cycles=step_cycles)

    def run_once(exe, trial_steps):
        integ = guards.IntegrityConfig(boundary_hook=exe.evict_sweep)
        with guards.integrity(integ):
            return exe.run(trial_steps, restore_checkpoint(master))

    # -- fault-free reference (and clean-phase false-positive check) --------
    exe = executor()
    state, ref_stats = run_once(exe, steps)
    if ref_stats.detections:
        raise FaultDetectedError(
            "reference run detected faults with no injector installed")
    reference = sealed_copy(state[out_name])

    def matches(out) -> bool:
        return (np.array_equal(out.c0.data, reference.c0.data)
                and np.array_equal(out.c1.data, reference.c1.data))

    false_positives = 0
    for _ in range(clean_runs):
        exe = executor()
        state, stats = run_once(exe, steps)
        if stats.detections or not matches(state[out_name]):
            false_positives += 1
            obs.count("reliability.recovery.campaign.false_positives")

    # -- injection trials ---------------------------------------------------
    sites = {site: SiteStats() for site in _faults.SITES}
    checkpoint_cycles = replay_cycles = 0.0
    injector = _faults.FaultInjector(seed=seed + 1)

    with _faults.injecting(injector):
        for trial in range(faults):
            site = _faults.SITES[trial % len(_faults.SITES)]
            stats_site = sites[site]
            fault_step = int(rng.integers(len(steps)))
            if site in (_faults.NTT, _faults.HBM):
                # Keyswitch-internal faults need a keyswitch to fire in.
                fault_step = min(keyswitch_steps,
                                 key=lambda i: abs(i - fault_step))
            corrupt_c0 = bool(rng.random() < 0.5)
            skip = int(rng.integers(4)) if site == _faults.NTT else 0
            fired = [False]

            def with_fault(step, _site=site, _skip=skip, _c0=corrupt_c0):
                def wrapped(ctx_, state_):
                    if not fired[0]:
                        fired[0] = True
                        if _site in (_faults.LIMB, _faults.RF):
                            target = state_[step.source
                                            if _site == _faults.LIMB
                                            else base_name]
                            half = target.c0 if _c0 else target.c1
                            injector.arm(_site)
                            injector.maybe_corrupt(_site, half.data)
                        else:
                            injector.arm(_site, skip=_skip)
                    step.fn(ctx_, state_)
                return step._replace(fn=wrapped)

            trial_steps = list(steps)
            trial_steps[fault_step] = with_fault(steps[fault_step])

            exe = executor()
            injected_before = injector.injected[site]
            try:
                state, stats = run_once(exe, trial_steps)
            except UnrecoverableFaultError:
                stats = None
            injector.disarm(site)  # unfired arms are not faults
            if injector.injected[site] == injected_before:
                continue  # the opportunity never arose; not an injection
            stats_site.injected += 1

            if stats is None:  # every escalation exhausted
                stats_site.detected += 1
                stats_site.unrecovered += 1
                obs.count(f"reliability.recovery.campaign.aborted.{site}")
                continue
            checkpoint_cycles += stats.checkpoint_cycles
            replay_cycles += stats.replay_cycles
            if stats.detections:
                stats_site.detected += 1
            if not matches(state[out_name]):
                # A wrong answer, detected or not.  A detected fault whose
                # replay converged on one failed to recover even though
                # the executor reported success.
                stats_site.wrong += 1
                outcome = "wrong" if stats.detections else "undetected"
                obs.count(f"reliability.recovery.campaign.{outcome}.{site}")
            elif stats.detections:
                stats_site.recovered += 1
                stats_site.replayed_steps += stats.replayed_steps
                obs.count(f"reliability.recovery.campaign.recovered.{site}")
            else:
                stats_site.benign += 1

    counters = dict(collector.counters)
    totals = collector.span_totals()
    check_seconds = sum(totals[name][1] for name in _CHECK_SPANS
                        if name in totals)
    if own_collector:
        obs.disable()

    return RecoveryCampaignResult(
        params=dict(seed=seed, faults=faults, degree=degree,
                    max_level=max_level, ops_per_run=ops_per_run,
                    checkpoint_every=checkpoint_every,
                    clean_runs=clean_runs),
        sites=sites, false_positives=false_positives,
        base_cycles_per_run=sum(step_cycles),
        checkpoint_cycles=checkpoint_cycles, replay_cycles=replay_cycles,
        total_seconds=time.perf_counter() - t0,
        check_seconds=check_seconds, counters=counters,
    )
