"""Deterministic, seeded fault injection and the detection campaign.

ARK and BTS both observe that deep bootstrap pipelines with on-the-fly
data generation make *silent state corruption* the dominant correctness
risk: a single flipped residue word anywhere in the datapath decrypts to
plausible-looking garbage.  This module measures how much of that risk
the cheap defenses in `repro.reliability.checksums` and
`repro.reliability.guards` actually retire.

Four injection sites, mirroring where data lives on a CraterLake-style
chip:

* ``limb``  - residue words of a ciphertext operand (register-file or
  scratch data corrupted at rest, caught by operand checksums verified
  at keyswitch boundaries);
* ``ntt``   - an NTT pass output *inside* a keyswitch (a compute
  fault, caught deterministically by the end-of-op transform checksum -
  see ``BatchedNttContext.verify_transform``);
* ``rf``    - residue words of a random register-file *resident* (a
  live ciphertext not consumed next; caught by the eviction sweep the
  keyswitch boundary hook runs over the resident pool, modeling
  verify-on-evict of the words the keyswitch working set displaces);
* ``hbm``   - keyswitch-hint rows as they are loaded (a transfer fault,
  caught by hint checksums verified on arrival).

The :class:`FaultInjector` is installed like an obs collector (module
switch, :func:`injecting` scope) and is consulted from the NTT and
keyswitch hot paths; with no injector installed those checks are a
single ``is None`` test.  All randomness flows from one seed, so a
campaign is exactly reproducible.

Run the acceptance campaigns from the command line::

    PYTHONPATH=src python -m repro.reliability --faults 1000
    PYTHONPATH=src python -m repro.reliability --recovery --faults 1000
    PYTHONPATH=src python -m repro.reliability --check

``--recovery`` runs the checkpoint/replay campaign
(`repro.reliability.recovery`) instead of the detection campaign;
``--check`` runs both at the pinned ``GATE_*`` arguments and compares
them against ``tests/reliability/baseline.json``.  Every run exits
nonzero unless the absolute gates of `repro.reliability.campaign.check`
hold: 100% detection per site, 0 wrong answers, 0 unrecovered faults
and 0 false positives.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import collector as obs
from repro.reliability import guards
from repro.reliability.campaign import (
    SiteStats,
    SiteTotals,
    add_cli_flags,
    finish,
    render,
)
from repro.reliability.checksums import limb_checksums
from repro.reliability.errors import FaultDetectedError, ParameterError

if TYPE_CHECKING:
    from repro.reliability.recovery import RecoveryCampaignResult

LIMB = "limb"
NTT = "ntt"
RF = "rf"
HBM = "hbm"
SITES = (LIMB, NTT, RF, HBM)

# Pod-level failure domains (`repro.pod`): whole-chip fail-stop and
# interconnect-link corruption.  Kept out of ``SITES`` deliberately -
# the single-chip campaigns round-robin ``SITES`` by trial index, so
# extending that tuple would silently reshuffle every committed
# baseline.  ``ALL_SITES`` is the validation universe.
CHIP = "chip"
LINK = "link"
POD_SITES = (CHIP, LINK)
ALL_SITES = SITES + POD_SITES


class FaultInjector:
    """Seeded single-bit corruptions at configurable per-site rates.

    Two operating modes, usable together:

    * **rate mode** - every call to :meth:`maybe_corrupt` fires with the
      site's configured probability (``rates[site]``);
    * **armed mode** - :meth:`arm` schedules exactly one corruption at
      the site's (skip+1)-th upcoming opportunity, which is what the
      campaign uses to attribute detections to injections one-to-one.

    Corruption flips one uniformly chosen bit (below ``max_bit``) of one
    uniformly chosen word of the target array, in place.
    """

    def __init__(self, seed: int = 2022,
                 rates: dict[str, float] | None = None, max_bit: int = 28):
        for site in (rates or {}):
            if site not in ALL_SITES:
                raise ParameterError(f"unknown fault site {site!r}",
                                     known=ALL_SITES)
        self.rng = np.random.default_rng(seed)
        self.rates = dict.fromkeys(ALL_SITES, 0.0)
        self.rates.update(rates or {})
        self.max_bit = max_bit
        self.injected = dict.fromkeys(ALL_SITES, 0)
        self._armed: dict[str, list[int]] = {}

    def arm(self, site: str, skip: int = 0, count: int = 1) -> None:
        """Schedule corruption at ``site``'s (skip+1)-th opportunity.

        ``count`` > 1 models a *stubborn* fault: the corruption repeats
        for that many consecutive opportunities (e.g. a link that keeps
        flipping bits across retransmits) before the arm clears.
        """
        self._armed[site] = [skip, count]

    def disarm(self, site: str) -> bool:
        """Drop ``site``'s pending arm; True if one was still pending
        (its opportunity never came, so nothing was injected)."""
        return self._armed.pop(site, None) is not None

    @property
    def pending(self) -> bool:
        return bool(self._armed)

    def _armed_fires(self, site: str) -> bool:
        pending = self._armed[site]
        if pending[0] > 0:
            pending[0] -= 1
            return False
        pending[1] -= 1
        if pending[1] <= 0:
            del self._armed[site]
        return True

    def maybe_corrupt(self, site: str, data: np.ndarray) -> bool:
        """Corrupt ``data`` in place if this opportunity fires."""
        if site in self._armed:
            if not self._armed_fires(site):
                return False
        elif not (self.rates[site] and self.rng.random() < self.rates[site]):
            return False
        # Index through unravel_index rather than reshape(-1): reshape
        # returns a *copy* for non-contiguous inputs, which would consume
        # the arm while silently dropping the corruption.  For contiguous
        # arrays this picks the identical word (both use C order).
        word = int(self.rng.integers(data.size))
        bit = np.uint64(1) << np.uint64(self.rng.integers(self.max_bit))
        data[np.unravel_index(word, data.shape)] ^= bit
        self.injected[site] += 1
        obs.count(f"reliability.faults.injected.{site}")
        return True

    def fires(self, site: str) -> bool:
        """Data-less fault opportunity: does ``site`` fire here?

        Same arm/rate semantics as :meth:`maybe_corrupt` but without a
        payload to damage - used for fail-stop events (a pod chip dying
        has no array to flip a bit in, the chip simply stops).
        """
        if site in self._armed:
            if not self._armed_fires(site):
                return False
        elif not (self.rates[site] and self.rng.random() < self.rates[site]):
            return False
        self.injected[site] += 1
        obs.count(f"reliability.faults.injected.{site}")
        return True


# -- module-level switch (same shape as the obs collector) -------------------

_injector: FaultInjector | None = None


def install(injector: FaultInjector) -> FaultInjector:
    global _injector
    _injector = injector
    return injector


def uninstall() -> FaultInjector | None:
    global _injector
    injector, _injector = _injector, None
    return injector


def active_injector() -> FaultInjector | None:
    return _injector


@contextmanager
def injecting(injector: FaultInjector):
    """Scoped installation; restores the previous injector on exit."""
    global _injector
    previous = _injector
    _injector = injector
    try:
        yield injector
    finally:
        _injector = previous


# -- campaign ----------------------------------------------------------------


@dataclass
class CampaignResult(SiteTotals):
    """Per-site detection rates plus the cost of the detection machinery."""

    params: dict                  # run_campaign's arguments
    sites: dict[str, SiteStats]
    false_positives: int
    total_seconds: float
    check_seconds: float  # wall time inside checksum/recheck machinery
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def overhead_fraction(self) -> float:
        return self.check_seconds / self.total_seconds if self.total_seconds else 0.0

    def to_json(self) -> dict:
        return {
            "params": self.params,
            "sites": {site: s.to_json(("injected", "detected"))
                      for site, s in self.sites.items()},
            "false_positives": self.false_positives,
        }

    def report(self) -> str:
        return render(
            f"Fault-injection campaign (seed={self.params['seed']})",
            self.sites, ["injected", "detected", "rate"],
            [
                f"clean run: {self.params['clean_ops']} keyswitch ops, "
                f"{self.false_positives} false positives",
                f"detection overhead: {self.check_seconds * 1e3:.1f} ms of "
                f"{self.total_seconds * 1e3:.1f} ms "
                f"({self.overhead_fraction:.1%} of campaign wall time)",
            ])


_CHECK_SPANS = ("reliability.checksum.seal", "reliability.checksum.verify",
                "reliability.ntt.recheck", "reliability.ntt.checksum",
                "reliability.hint.verify", "reliability.rf.evict_verify")


def _check_seconds(collector) -> float:
    totals = collector.span_totals()
    return sum(totals[name][1] for name in _CHECK_SPANS if name in totals)


def run_campaign(seed: int = 2022, faults: int = 1000, degree: int = 256,
                 max_level: int = 6, pool_size: int = 8,
                 clean_ops: int = 64) -> CampaignResult:
    """Inject ``faults`` seeded corruptions and measure what gets caught.

    Builds one CKKS context with checksum sealing on, a pool of
    ``pool_size`` resident ciphertexts, and one rotation hint; then
    round-robins the four sites, arming exactly one corruption per trial
    and consuming a ciphertext through a keyswitch (the detection
    boundary).  Register-file residents are covered by the eviction
    sweep installed as the keyswitch boundary hook; NTT butterflies by
    the end-of-op transform checksum.  A clean phase first proves the
    detectors are silent on uncorrupted data.

    Everything is driven by ``seed``; two runs with the same arguments
    produce identical numbers.
    """
    # Deferred: the fhe layer imports reliability modules at module level,
    # so the campaign (which needs a live CKKS context) imports it lazily.
    from repro.fhe.ckks import CkksContext, CkksParams

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = CkksParams(degree=degree, max_level=max_level, digits=1,
                        secret_hamming=max(8, degree // 16), seed=seed)
    policy = guards.ReliabilityPolicy(checksums=True)
    ctx = CkksContext(params, policy=policy)
    sk = ctx.keygen()
    rot = ctx.rotation_hint(sk, 1)

    own_collector = not obs.is_enabled()
    collector = obs.enable() if own_collector else obs.active()
    collector.meta.setdefault("campaign", "detection")
    collector.meta.update(seed=seed, faults=faults, degree=degree)

    def fresh(i: int):
        vals = 0.5 * rng.standard_normal(params.slots)
        return ctx.encrypt_values(sk, vals)

    pool = [fresh(i) for i in range(pool_size)]

    def evict_sweep():
        # Keyswitch boundary: its working set displaces the register
        # file, so every resident's words are about to be written back -
        # verify each seal on the way out.
        with obs.span("reliability.rf.evict_verify", "reliability"):
            for resident in pool:
                ctx.verify_integrity(resident, "rf evictee")

    integrity = guards.IntegrityConfig(boundary_hook=evict_sweep)

    stats = {site: SiteStats() for site in SITES}
    false_positives = 0
    injector = FaultInjector(seed=seed + 1)

    try:
        with guards.integrity(integrity):
            # -- clean phase: the detectors must stay silent ----------------
            for i in range(clean_ops):
                try:
                    ctx.rotate(pool[i % pool_size], 1, rot)
                except FaultDetectedError:
                    false_positives += 1
                    obs.count("reliability.campaign.false_positives")

            # -- injection phase -------------------------------------------
            with injecting(injector):
                for trial in range(faults):
                    site = SITES[trial % len(SITES)]
                    idx = int(rng.integers(pool_size))
                    victim = pool[idx]
                    half = victim.c0 if rng.random() < 0.5 else victim.c1
                    snapshot = half.data.copy()
                    detected = False

                    if site in (LIMB, RF):
                        injector.arm(site)
                        injector.maybe_corrupt(site, half.data)
                        stats[site].injected += 1
                        if site == LIMB:
                            # Corrupted operand consumed at the very next
                            # keyswitch: full operand verification.
                            try:
                                ctx.rotate(victim, 1, rot)
                            except FaultDetectedError:
                                detected = True
                        else:
                            # Corrupted *resident*: some other ciphertext's
                            # keyswitch displaces the register file, and the
                            # boundary hook's eviction sweep checks every
                            # resident's seal on the way out.
                            other = pool[(idx + 1) % pool_size]
                            try:
                                ctx.rotate(other, 1, rot)
                            except FaultDetectedError:
                                detected = True
                    else:
                        # Compute (ntt) / transfer (hbm) faults fire inside
                        # the keyswitch of an otherwise clean rotation.
                        skip = int(rng.integers(8)) if site == NTT else 0
                        injector.arm(site, skip=skip)
                        try:
                            ctx.rotate(victim, 1, rot)
                        except FaultDetectedError:
                            detected = True
                        # The op may offer fewer opportunities than ``skip``;
                        # an unfired arm is not an injection.
                        if injector.disarm(site):
                            continue
                        stats[site].injected += 1

                    if detected:
                        stats[site].detected += 1
                        obs.count(f"reliability.campaign.detected.{site}")
                    else:
                        obs.count(f"reliability.campaign.undetected.{site}")
                    half.data[:] = snapshot  # heal the pool for the next trial
                    ctx.seal(victim)
    finally:
        counters = dict(collector.counters) if collector else {}
        check_s = _check_seconds(collector) if collector else 0.0
        if own_collector:
            obs.disable()

    return CampaignResult(
        params=dict(seed=seed, faults=faults, degree=degree,
                    max_level=max_level, pool_size=pool_size,
                    clean_ops=clean_ops),
        sites=stats, false_positives=false_positives,
        total_seconds=time.perf_counter() - t0,
        check_seconds=check_s, counters=counters,
    )


# What ``--check`` and ``--emit-baseline`` run: both campaigns, small
# enough for CI.  The baseline records these arguments as well, so a
# change here shows up as a baseline difference.
GATE_DETECTION = dict(seed=2022, faults=200, degree=128, max_level=4,
                      pool_size=6, clean_ops=32)
GATE_RECOVERY = dict(seed=2022, faults=120, degree=128, max_level=4,
                     ops_per_run=8, checkpoint_every=3, clean_runs=4)


@dataclass
class GateResult(SiteTotals):
    """The detection and recovery campaigns as one campaign result, the
    shape of ``tests/reliability/baseline.json``."""

    detection: CampaignResult
    recovery: RecoveryCampaignResult

    @property
    def sites(self) -> dict[str, SiteStats]:
        return {f"{part}.{site}": s
                for part, r in (("detection", self.detection),
                                ("recovery", self.recovery))
                for site, s in r.sites.items()}

    @property
    def false_positives(self) -> int:
        return (self.detection.false_positives
                + self.recovery.false_positives)

    def to_json(self) -> dict:
        return {"detection": self.detection.to_json(),
                "recovery": self.recovery.to_json()}

    def report(self) -> str:
        return f"{self.detection.report()}\n\n{self.recovery.report()}"


def parser():
    import argparse

    p = argparse.ArgumentParser(
        prog="python -m repro.reliability",
        description="Seeded fault-injection campaigns over the CKKS "
                    "substrate (detection by default)",
        epilog="--check and --emit-baseline run both campaigns at the "
               "pinned GATE_DETECTION and GATE_RECOVERY arguments; the "
               "sizing flags apply to single-campaign runs.")
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--faults", type=int, default=1000)
    p.add_argument("--degree", type=int, default=256)
    p.add_argument("--max-level", type=int, default=6)
    p.add_argument("--recovery", action="store_true",
                   help="run the checkpoint/replay recovery campaign "
                        "instead of the detection campaign")
    add_cli_flags(p, "reliability")
    return p


def main(argv: list[str] | None = None) -> int:
    from repro.reliability import recovery as _recovery

    args = parser().parse_args(argv)
    if args.check or args.emit_baseline:
        result = GateResult(
            run_campaign(**GATE_DETECTION),
            _recovery.run_recovery_campaign(**GATE_RECOVERY))
    else:
        run = _recovery.run_recovery_campaign if args.recovery \
            else run_campaign
        result = run(seed=args.seed, faults=args.faults,
                     degree=args.degree, max_level=args.max_level)
    return finish(result, args)


if __name__ == "__main__":
    # ``python -m`` executes this file as ``__main__``, a *second* instance
    # of the module; the fhe hot paths consult the canonical one's injector
    # switch, so delegate to it.
    from repro.reliability.faults import main as _canonical_main

    raise SystemExit(_canonical_main())
