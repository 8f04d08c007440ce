"""Seeded pod fault campaign: chip fail-stop + link corruption.

The pod runs the compiled serving ``lstm`` batch at ``ServeConfig()``
defaults, partitioned model-parallel (:func:`~repro.pod.partition.partition`),
on a :class:`~repro.pod.coordinator.PodExecutor`.  Like the reliability
and serving campaigns, one seed drives everything, each trial arms
exactly one fault (alternating the two pod failure domains), and the
gates are absolute -

* **100% detection**: every injected chip loss is observed when its
  step goes unacknowledged, and every injected link corruption is
  caught by the receiver's seal check;
* **0 wrong answers**: every trial's final ciphertexts are bit-identical
  to a fault-free reference execution (recovery is replay, replay is
  deterministic);
* **0 unrecovered**: no survivable fault escalates out of the executor.

Stubborn link faults (every fourth link trial) corrupt consecutive
retransmits of the same transfer - still inside the pod's
``LINK_RETRIES`` budget, so the executor absorbs them; the campaign
reports them separately because they exercise the backoff path.

Run it from the command line::

    PYTHONPATH=src python -m repro.pod --campaign
    PYTHONPATH=src python -m repro.pod --campaign --check

``--check`` compares the result against ``tests/pod/baseline.json``
with the check every campaign shares (`repro.reliability.campaign`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.pod.config import MODEL_PARALLEL, PodConfig
from repro.pod.coordinator import PodExecutor
from repro.reliability.campaign import SiteStats, SiteTotals, render
from repro.reliability.errors import (
    ChipFailure,
    InterconnectError,
    ParameterError,
)
from repro.reliability.faults import CHIP, LINK, FaultInjector


@dataclass
class PodCampaignResult(SiteTotals):
    """One pod campaign's aggregate outcome (JSON-stable)."""

    seed: int
    chips: int
    trials: int
    clean_trials: int
    sites: dict[str, SiteStats]
    distinct_links: int          # links that saw >= 1 corruption
    distinct_chips_failed: int
    false_positives: int
    stubborn_faults: int
    migrations: int
    replayed_steps: int
    replay_cycles: float
    retransmits: int
    backoff_s: float
    checkpoints: int
    total_seconds: float

    @property
    def events(self) -> int:
        """Faults actually injected."""
        return self.injected

    def to_json(self) -> dict:
        return {
            "seed": self.seed, "events": self.events, "chips": self.chips,
            "trials": self.trials,
            "clean_trials": self.clean_trials,
            "sites": {site: s.to_json(("injected", "detected"))
                      for site, s in self.sites.items()},
            "distinct_links": self.distinct_links,
            "distinct_chips_failed": self.distinct_chips_failed,
            "false_positives": self.false_positives,
            "wrong_answers": self.wrong_answers,
            "unrecovered": self.unrecovered,
            "stubborn_faults": self.stubborn_faults,
            "migrations": self.migrations,
            "replayed_steps": self.replayed_steps,
            "replay_cycles": self.replay_cycles,
            "retransmits": self.retransmits,
            "checkpoints": self.checkpoints,
        }

    def report(self) -> str:
        return render(
            f"Pod fault campaign (seed={self.seed}, {self.chips} chips)",
            self.sites, ["injected", "detected", "rate"],
            [
                f"trials: {self.trials} faulted + {self.clean_trials} clean "
                f"({self.events} faults injected)",
                f"coverage: {self.distinct_links} distinct links corrupted, "
                f"{self.distinct_chips_failed} distinct chips fail-stopped, "
                f"{self.stubborn_faults} stubborn (multi-retransmit) faults",
                f"recovery: {self.migrations} shard migrations, "
                f"{self.replayed_steps} steps replayed "
                f"({self.replay_cycles:,.0f} cycles), "
                f"{self.retransmits} retransmits "
                f"({self.backoff_s * 1e3:.2f} ms virtual backoff), "
                f"{self.checkpoints} chip checkpoints",
                f"verdict: {self.wrong_answers} wrong answers, "
                f"{self.unrecovered} unrecovered, "
                f"{self.false_positives} clean-run false positives "
                f"({self.total_seconds:.1f}s wall)",
            ])


#: The serving kind the pod runs: the deepest, so every chip gets steps.
KIND = "lstm"


def _states_equal(got: dict[int, dict], want: dict[int, dict],
                  outputs: dict[int, list[str]]) -> bool:
    """Bit-exact comparison of every chip's output values."""
    for c, names in outputs.items():
        for name in names:
            a, b = got[c][name], want[c][name]
            if not (np.array_equal(a.c0.data, b.c0.data)
                    and np.array_equal(a.c1.data, b.c1.data)
                    and a.scale == b.scale):
                return False
    return True


def run_pod_campaign(seed: int = 2022, events: int = 520, chips: int = 4,
                     clean_trials: int = 5) -> PodCampaignResult:
    """Inject >= ``events`` seeded pod faults and measure the outcome.

    Every trial runs the pod program over ``chips`` chips from the same
    encrypted batch, arms exactly one fault - chip fail-stop on even
    trials, link corruption on odd (every fourth link trial stubborn:
    the corruption persists across retransmits) - and compares every
    chip's outputs bit-for-bit against a fault-free reference.  Driven
    entirely by ``seed``: reruns are identical.
    """
    from repro.compiler.cache import compile_program
    from repro.core.config import ChipConfig
    from repro.fhe.ckks import CkksContext, CkksParams
    from repro.interpret import lower
    from repro.pod.partition import partition
    from repro.reliability import guards
    from repro.serve.config import ServeConfig
    from repro.workloads.serving import (
        rotation_strides,
        serving_program,
        serving_weights,
    )

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    c = ServeConfig()
    chip = ChipConfig()
    pod = PodConfig(chips=chips, strategy=MODEL_PARALLEL, seed=seed)
    part = partition(compile_program(
        serving_program(KIND, c.degree, c.max_level, c.block_slots,
                        c.max_batch), chip), chip, pod)
    if not part.edges:
        raise ParameterError("the pod program has no cut edge to corrupt",
                             chips=chips)
    params = CkksParams(degree=c.degree, max_level=c.max_level, digits=1,
                        secret_hamming=max(8, c.degree // 16), seed=seed)
    ctx = CkksContext(params,
                      policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    hints = {s: ctx.rotation_hint(sk, s)
             for s in rotation_strides(c.block_slots)}
    weights = serving_weights(seed + 1, c.slots, c.block_slots)
    plans = {s.chip: lower(s.program, hints, weights) for s in part.shards}
    outputs = {k: plan.outputs for k, plan in plans.items()}
    batch = ctx.seal(ctx.encrypt_values(
        sk, 0.5 * rng.standard_normal(params.slots)))
    initial = {s.chip: {name: batch for name in plans[s.chip].inputs
                        if name not in s.stitched_inputs}
               for s in part.shards}

    def fresh_executor(injector=None) -> PodExecutor:
        return PodExecutor(ctx, pod, chip, plans, initial,
                           transfers=part.edges, injector=injector)

    # -- reference + clean phase: no injector, outputs must agree -----------
    reference = fresh_executor().run()
    false_positives = 0
    for _ in range(clean_trials):
        ex = fresh_executor()
        final = ex.run()
        if ex.stats.chip_failures or ex.stats.link_faults_detected \
                or not _states_equal(final, reference, outputs):
            false_positives += 1

    # Opportunity counts in a clean run, for arming skips.
    chip_opps = sum(len(plan.steps) for plan in plans.values())
    link_opps = len(part.edges)

    sites = {CHIP: SiteStats(), LINK: SiteStats()}
    faulted_links: set[tuple[int, int]] = set()
    failed_chips: set[int] = set()
    stubborn = 0
    migrations = replayed = retransmits = checkpoints = 0
    replay_cycles = backoff_s = 0.0
    injector = FaultInjector(seed=seed + 1)
    trials = 0
    link_trials = 0

    while sum(s.injected for s in sites.values()) < events:
        site = CHIP if trials % 2 == 0 else LINK
        trials += 1
        count = 1
        if site == CHIP:
            injector.arm(CHIP, skip=int(rng.integers(chip_opps)))
        else:
            link_trials += 1
            if link_trials % 4 == 0:
                count = 2  # stubborn: survives the first retransmit
                stubborn += 1
            injector.arm(LINK, skip=int(rng.integers(link_opps)),
                         count=count)

        before = injector.injected[site]
        ex = fresh_executor(injector)
        try:
            final = ex.run()
        except (ChipFailure, InterconnectError):
            final = None
            sites[site].unrecovered += 1
        # An arm whose skip outran the run's opportunities never fired;
        # that trial injected nothing and counts for nothing.
        unfired = injector.disarm(site)
        injected = injector.injected[site] - before
        sites[site].injected += injected
        if site == CHIP:
            sites[site].detected += min(injected, ex.stats.chip_failures)
            failed_chips |= ex.dead
        else:
            sites[site].detected += min(injected,
                                        ex.stats.link_faults_detected)
            faulted_links |= ex.stats.faulted_links
            if unfired and count == 2:
                stubborn -= 1  # armed burst never (fully) exercised
        migrations += ex.stats.migrations
        replayed += ex.stats.replayed_steps
        replay_cycles += ex.stats.replay_cycles
        retransmits += ex.stats.retransmits
        backoff_s += ex.stats.backoff_s
        checkpoints += ex.stats.checkpoints
        if final is not None and injected \
                and not _states_equal(final, reference, outputs):
            sites[site].wrong += 1

    return PodCampaignResult(
        seed=seed, chips=chips, trials=trials,
        clean_trials=clean_trials, sites=sites,
        distinct_links=len(faulted_links),
        distinct_chips_failed=len(failed_chips),
        false_positives=false_positives, stubborn_faults=stubborn,
        migrations=migrations, replayed_steps=replayed,
        replay_cycles=replay_cycles, retransmits=retransmits,
        backoff_s=backoff_s, checkpoints=checkpoints,
        total_seconds=time.perf_counter() - t0,
    )


