"""Deterministic, seeded fault injection and the campaign command line.

ARK and BTS both observe that deep bootstrap pipelines with on-the-fly
data generation make *silent state corruption* the dominant correctness
risk: a single flipped residue word anywhere in the datapath decrypts to
plausible-looking garbage.  This module injects that corruption; the
recovery campaign (`repro.reliability.recovery`) measures how much of
the risk the cheap defenses in `repro.reliability.checksums` and
`repro.reliability.guards` retire, and whether checkpoint/replay turns
every detection back into the right answer.

Four injection sites, mirroring where data lives on a CraterLake-style
chip:

* ``limb``  - residue words of a ciphertext operand (register-file or
  scratch data corrupted at rest, caught by the operand's seal: every
  op that consumes a ciphertext either carries its seal forward or
  verifies it before computing or resealing);
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

Run the acceptance campaign from the command line::

    PYTHONPATH=src python -m repro.reliability --faults 1000
    PYTHONPATH=src python -m repro.reliability --check

``--check`` runs it at the pinned ``GATE_RECOVERY`` arguments and
compares the result against ``tests/reliability/baseline.json``.  Every
run exits nonzero unless the absolute gates of
`repro.reliability.campaign.check` hold: 100% detection per site, 0
wrong answers, 0 unrecovered faults and 0 false positives.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.obs import collector as obs
from repro.reliability.campaign import add_cli_flags, finish
from repro.reliability.errors import ParameterError

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


# What ``--check`` and ``--emit-baseline`` run: the campaign, small
# enough for CI, with 50 injections per site.  The baseline records
# these arguments as well, so a change here shows up as a baseline
# difference.
GATE_RECOVERY = dict(seed=2022, faults=200, degree=128, max_level=4,
                     ops_per_run=8, checkpoint_every=3, clean_runs=4)


def parser():
    import argparse

    p = argparse.ArgumentParser(
        prog="python -m repro.reliability",
        description="The seeded fault-injection and recovery campaign over "
                    "the CKKS substrate",
        epilog="--check and --emit-baseline run the campaign at the "
               "pinned GATE_RECOVERY arguments; the sizing flags apply "
               "to other runs.")
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--faults", type=int, default=1000)
    p.add_argument("--degree", type=int, default=256)
    p.add_argument("--max-level", type=int, default=6)
    add_cli_flags(p, "reliability")
    return p


def main(argv: list[str] | None = None) -> int:
    from repro.reliability.recovery import run_recovery_campaign

    args = parser().parse_args(argv)
    if args.check or args.emit_baseline:
        result = run_recovery_campaign(**GATE_RECOVERY)
    else:
        result = run_recovery_campaign(seed=args.seed, faults=args.faults,
                                       degree=args.degree,
                                       max_level=args.max_level)
    return finish(result, args)


if __name__ == "__main__":
    # ``python -m`` executes this file as ``__main__``, a *second* instance
    # of the module; the fhe hot paths consult the canonical one's injector
    # switch, so delegate to it.
    from repro.reliability.faults import main as _canonical_main

    raise SystemExit(_canonical_main())
