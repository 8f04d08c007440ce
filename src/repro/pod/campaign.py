"""Seeded pod fault campaign: chip fail-stop + link corruption.

Mirrors the reliability and serving campaigns: one seed drives
everything, each trial arms exactly one fault (alternating the two pod
failure domains), and the gates are absolute -

* **100% detection**: every injected chip loss is observed at the
  lock-step barrier and every injected link corruption is caught by the
  receiver's seal check;
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

from repro.pod.config import PodConfig
from repro.pod.coordinator import PodExecutor, Transfer
from repro.reliability.campaign import SiteStats, SiteTotals, render
from repro.reliability.errors import ChipFailure, InterconnectError
from repro.reliability.faults import CHIP, LINK, FaultInjector


@dataclass
class PodCampaignResult(SiteTotals):
    """One pod campaign's aggregate outcome (JSON-stable)."""

    seed: int
    chips: int
    rounds: int
    trials: int
    clean_trials: int
    sites: dict[str, SiteStats]
    distinct_links: int          # links that saw >= 1 corruption
    distinct_chips_failed: int
    false_positives: int
    stubborn_faults: int
    migrations: int
    replayed_steps: int
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
            "rounds": self.rounds, "trials": self.trials,
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
                f"{self.replayed_steps} steps replayed, "
                f"{self.retransmits} retransmits "
                f"({self.backoff_s * 1e3:.2f} ms virtual backoff), "
                f"{self.checkpoints} pod checkpoints",
                f"verdict: {self.wrong_answers} wrong answers, "
                f"{self.unrecovered} unrecovered, "
                f"{self.false_positives} clean-run false positives "
                f"({self.total_seconds:.1f}s wall)",
            ])


def chip_programs(chips: int, rounds: int, degree: int,
                  max_level: int) -> tuple[dict, dict]:
    """Each chip's program, plus the transfers wiring them together.

    Every round, a chip rotates its value by one slot and, if a
    neighbour sent it a value at the previous boundary, adds that in
    (the receipt is an INPUT op: it arrives from off-chip).  Two
    transfers per round boundary on rotating links, so every ring link
    carries (and can corrupt) traffic over a campaign.  Returns
    ``(programs, transfers)``; transfers name the sender's and the
    receiver's program values.
    """
    from repro.compiler.dsl import FheBuilder

    senders = {r: (r % chips, (r + 2) % chips) for r in range(rounds - 1)}
    value_after: dict[tuple[int, int], str] = {}   # (chip, round) -> name
    receipt: dict[tuple[int, int], str] = {}       # (chip, boundary) -> name
    programs = {}
    for c in range(chips):
        b = FheBuilder(f"pod-chip{c}", degree=degree, max_level=max_level)
        v = b.input(f"v{c}", max_level)
        for r in range(rounds):
            v = b.rotate(v, 1)
            if r and any((s + 1) % chips == c for s in senders[r - 1]):
                rx = b.input(f"rx_r{r - 1}", max_level)
                receipt[c, r - 1] = rx.name
                v = b.add(v, rx)
            value_after[c, r] = v.name
        b.output(v)
        programs[c] = b.build()
    transfers = {
        r: [Transfer(src=s, dst=(s + 1) % chips, name=value_after[s, r],
                     rename=receipt[(s + 1) % chips, r]) for s in pair]
        for r, pair in senders.items()
    }
    return programs, transfers


def _states_equal(got: dict[int, dict], want: dict[int, dict],
                  outputs: dict[int, str]) -> bool:
    """Bit-exact comparison of every chip's output value."""
    for c, name in outputs.items():
        a, b = got[c][name], want[c][name]
        if not (np.array_equal(a.c0.data, b.c0.data)
                and np.array_equal(a.c1.data, b.c1.data)
                and a.scale == b.scale):
            return False
    return True


def run_pod_campaign(seed: int = 2022, events: int = 520, chips: int = 4,
                     rounds: int = 4, degree: int = 64,
                     max_level: int = 4,
                     clean_trials: int = 5) -> PodCampaignResult:
    """Inject >= ``events`` seeded pod faults and measure the outcome.

    Every trial executes the same K-chip plan (:func:`chip_programs`,
    one executor step per round, lowered by `repro.interpret`) from the
    same encrypted inputs,
    arms exactly one fault - chip fail-stop on even trials, link
    corruption on odd (every fourth link trial stubborn: the corruption
    persists across retransmits) - and compares the final ciphertexts
    bit-for-bit against a fault-free reference.  Driven entirely by
    ``seed``: reruns are identical.
    """
    from repro.fhe.ckks import CkksContext, CkksParams
    from repro.interpret import lower
    from repro.reliability import guards

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = CkksParams(degree=degree, max_level=max_level, digits=1,
                        secret_hamming=max(8, degree // 16), seed=seed)
    ctx = CkksContext(params,
                      policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    pod = PodConfig(chips=chips, seed=seed)

    programs, transfers = chip_programs(chips, rounds, degree, max_level)
    lowered = {c: lower(p, hints={1: ctx.rotation_hint(sk, 1)})
               for c, p in programs.items()}
    plans = {c: plan.steps for c, plan in lowered.items()}
    outputs = {c: plan.outputs[0] for c, plan in lowered.items()}
    initial = {}
    for c, plan in lowered.items():
        vals = 0.5 * rng.standard_normal(params.slots)
        initial[c] = {plan.inputs[0]: ctx.seal(ctx.encrypt_values(sk, vals))}

    def fresh_executor(injector=None) -> PodExecutor:
        return PodExecutor(ctx, pod, plans, initial, transfers=transfers,
                           injector=injector)

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
    chip_opps = chips * rounds                   # one fires() per step
    link_opps = sum(len(ts) for ts in transfers.values())

    sites = {CHIP: SiteStats(), LINK: SiteStats()}
    faulted_links: set[tuple[int, int]] = set()
    failed_chips: set[int] = set()
    stubborn = 0
    migrations = replayed = retransmits = checkpoints = 0
    backoff_s = 0.0
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
        retransmits += ex.stats.retransmits
        backoff_s += ex.stats.backoff_s
        checkpoints += ex.stats.checkpoints
        if final is not None and injected \
                and not _states_equal(final, reference, outputs):
            sites[site].wrong += 1

    return PodCampaignResult(
        seed=seed, chips=chips, rounds=rounds, trials=trials,
        clean_trials=clean_trials, sites=sites,
        distinct_links=len(faulted_links),
        distinct_chips_failed=len(failed_chips),
        false_positives=false_positives, stubborn_faults=stubborn,
        migrations=migrations, replayed_steps=replayed,
        retransmits=retransmits, backoff_s=backoff_s,
        checkpoints=checkpoints,
        total_seconds=time.perf_counter() - t0,
    )
