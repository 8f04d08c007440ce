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

The first exits nonzero unless limb-corruption detection >= 95% and a
clean run produced zero false positives; ``--recovery`` runs the
checkpoint/replay campaign (`repro.reliability.recovery`); ``--check``
reruns both at the parameters pinned in ``tests/reliability/
baseline.json`` and exits nonzero if any site's detection or recovery
rate regressed below the committed baseline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.obs import collector as obs
from repro.reliability import guards
from repro.reliability.checksums import limb_checksums
from repro.reliability.errors import FaultDetectedError, ParameterError

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
class SiteStats:
    injected: int = 0
    detected: int = 0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.injected if self.injected else 0.0


@dataclass
class CampaignResult:
    """Per-site detection rates plus the cost of the detection machinery."""

    seed: int
    faults: int
    sites: dict[str, SiteStats]
    clean_ops: int
    false_positives: int
    total_seconds: float
    check_seconds: float  # wall time inside checksum/recheck machinery
    counters: dict[str, float] = field(default_factory=dict)

    def detection_rate(self, site: str) -> float:
        return self.sites[site].detection_rate

    @property
    def overhead_fraction(self) -> float:
        return self.check_seconds / self.total_seconds if self.total_seconds else 0.0

    def report(self) -> str:
        from repro.analysis.report import format_table

        rows = [
            [site, s.injected, s.detected, f"{s.detection_rate:.1%}"]
            for site, s in self.sites.items()
        ]
        table = format_table(
            ["site", "injected", "detected", "rate"], rows,
            title=f"Fault-injection campaign (seed={self.seed})",
        )
        lines = [
            table,
            "",
            f"clean run: {self.clean_ops} keyswitch ops, "
            f"{self.false_positives} false positives",
            f"detection overhead: {self.check_seconds * 1e3:.1f} ms of "
            f"{self.total_seconds * 1e3:.1f} ms "
            f"({self.overhead_fraction:.1%} of campaign wall time)",
        ]
        return "\n".join(lines)


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
                        if injector._armed.pop(site, None) is None:
                            stats[site].injected += 1
                        else:
                            continue

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
        seed=seed, faults=faults, sites=stats, clean_ops=clean_ops,
        false_positives=false_positives,
        total_seconds=time.perf_counter() - t0,
        check_seconds=check_s, counters=counters,
    )


DEFAULT_BASELINE = "tests/reliability/baseline.json"


def check_against_baseline(baseline_path) -> int:
    """Rerun both campaigns at the baseline's pinned parameters and fail
    (nonzero) if any site's detection or recovery rate regressed."""
    import json
    from pathlib import Path

    from repro.reliability import recovery as _recovery

    baseline = json.loads(Path(baseline_path).read_text())
    failures = []

    det_base = baseline["detection"]
    det = run_campaign(**det_base["params"])
    print(det.report())
    print()
    if det.false_positives:
        failures.append(f"detection: {det.false_positives} false positives")
    for site, want in det_base["rates"].items():
        got = det.detection_rate(site)
        if got < want:
            failures.append(
                f"detection[{site}]: {got:.1%} < baseline {want:.1%}")

    rec_base = baseline["recovery"]
    rec = _recovery.run_recovery_campaign(**rec_base["params"])
    print(rec.report())
    print()
    if rec.false_positives:
        failures.append(f"recovery: {rec.false_positives} false positives")
    if rec.recovery_rate < rec_base["recovery_rate"]:
        failures.append(f"recovery rate: {rec.recovery_rate:.1%} < baseline "
                        f"{rec_base['recovery_rate']:.1%}")
    for site, want in rec_base.get("detection_rates", {}).items():
        s = rec.sites[site]
        got = s.detected / s.injected if s.injected else 0.0
        if got < want:
            failures.append(
                f"recovery-detection[{site}]: {got:.1%} < baseline {want:.1%}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"OK: detection and recovery rates at or above {baseline_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Seeded fault-injection campaigns over the CKKS "
                    "substrate (detection by default)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--faults", type=int, default=1000)
    parser.add_argument("--degree", type=int, default=256)
    parser.add_argument("--max-level", type=int, default=6)
    parser.add_argument("--assert-limb-detection", type=float, default=0.95,
                        help="exit nonzero if limb detection falls below this")
    parser.add_argument("--recovery", action="store_true",
                        help="run the checkpoint/replay recovery campaign "
                             "instead of the detection campaign")
    parser.add_argument("--assert-recovery", type=float, default=0.95,
                        help="with --recovery: exit nonzero if the fraction "
                             "of detected faults recovered falls below this")
    parser.add_argument("--check", action="store_true",
                        help="regression-check both campaigns against the "
                             "committed baseline JSON and exit nonzero on "
                             "any rate drop")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline JSON for --check "
                             f"(default: {DEFAULT_BASELINE})")
    args = parser.parse_args(argv)

    if args.check:
        return check_against_baseline(args.baseline)

    if args.recovery:
        from repro.reliability import recovery as _recovery

        result = _recovery.run_recovery_campaign(
            seed=args.seed, faults=args.faults, degree=args.degree,
            max_level=args.max_level)
        print(result.report())
        ok = True
        if result.false_positives:
            print(f"FAIL: {result.false_positives} false positives on "
                  "clean runs")
            ok = False
        if result.recovery_rate < args.assert_recovery:
            print(f"FAIL: recovery rate {result.recovery_rate:.1%} < "
                  f"{args.assert_recovery:.0%}")
            ok = False
        if ok:
            print(f"OK: {result.recovered}/{result.detected} detected "
                  f"faults recovered ({result.recovery_rate:.1%}), "
                  "zero false positives")
        return 0 if ok else 1

    result = run_campaign(seed=args.seed, faults=args.faults,
                          degree=args.degree, max_level=args.max_level)
    print(result.report())

    ok = True
    if result.false_positives:
        print(f"FAIL: {result.false_positives} false positives on clean run")
        ok = False
    limb_rate = result.detection_rate(LIMB)
    if limb_rate < args.assert_limb_detection:
        print(f"FAIL: limb detection {limb_rate:.1%} < "
              f"{args.assert_limb_detection:.0%}")
        ok = False
    if ok:
        print(f"OK: limb detection {limb_rate:.1%}, zero false positives")
    return 0 if ok else 1


if __name__ == "__main__":
    # ``python -m`` executes this file as ``__main__``, a *second* instance
    # of the module; the fhe hot paths consult the canonical one's injector
    # switch, so delegate to it.
    from repro.reliability.faults import main as _canonical_main

    raise SystemExit(_canonical_main())
