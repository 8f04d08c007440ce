"""Runtime invariant guards and the per-context reliability policy.

Two pieces live here:

* :class:`ReliabilityPolicy` - per-:class:`~repro.fhe.ckks.CkksContext`
  knobs: strict vs graceful-degradation mode, live noise-budget
  threading, and ciphertext checksum sealing.  The ckks/bootstrap layers
  consult the policy on every ciphertext-consuming op.
* Guard helpers (:func:`check_same_basis`, :func:`check_scale_match`,
  :func:`check_min_level`, ...) - one call per invariant, raising the
  typed error with actionable context.  They are plain functions so the
  fhe hot paths pay a function call, not an abstraction.

A module-level *integrity switch* (like ``repro.obs``'s collector
switch) turns on the checks that live below the context layer: keyswitch
hint-row verification and NTT re-execution spot checks.  It is off by
default, so untraced runs pay a single ``is None`` test.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.reliability.errors import (
    LevelMismatchError,
    NoiseBudgetExhaustedError,
    ParameterError,
    ScaleMismatchError,
)

STRICT = "strict"
DEGRADE = "degrade"


@dataclass
class ReliabilityPolicy:
    """How a CkksContext reacts when an invariant is about to break.

    ``mode``:

    * ``"strict"`` (default) - every violated invariant raises its typed
      error; exhausting the modulus chain raises
      :class:`NoiseBudgetExhaustedError` instead of silently producing
      garbage.
    * ``"degrade"`` - the context repairs what it can: a multiply whose
      scale would overflow the live modulus gets a rescale auto-inserted
      first, and an op that needs a level the ciphertext no longer has
      triggers an automatic bootstrap (requires a bootstrapper
      registered via :meth:`CkksContext.set_bootstrapper`).  Every
      repair is counted (``reliability.auto_rescale`` /
      ``reliability.auto_bootstrap``) and spanned so it shows up in
      traces - decryption failure becomes a recoverable, observable
      event.

    ``track_noise`` threads a live :class:`~repro.fhe.noise.NoiseBudget`
    through every ciphertext so headroom is visible (and enforced in
    strict mode) *before* decryption fails.  ``checksums`` seals every
    produced ciphertext with per-limb checksums and verifies operands at
    keyswitch boundaries (see `repro.reliability.checksums`).
    """

    mode: str = STRICT
    track_noise: bool = False
    checksums: bool = False

    def __post_init__(self):
        if self.mode not in (STRICT, DEGRADE):
            raise ParameterError(
                f"unknown reliability mode {self.mode!r}",
                expected=f"{STRICT!r} or {DEGRADE!r}",
            )

    @property
    def degrade(self) -> bool:
        return self.mode == DEGRADE


# -- invariant guard helpers -------------------------------------------------


def check_same_basis(a, b, op: str) -> None:
    """Operands of a binary ciphertext op must share level and basis."""
    if a.basis != b.basis:
        raise LevelMismatchError(
            f"{op} operands live in different RNS bases; align with "
            "drop_to_level()/mod_drop() first",
            op=op, left_level=a.level, right_level=b.level,
        )


def check_scale_match(a, b, op: str, tolerance: float) -> None:
    """Adding values at diverged scales silently corrupts the sum."""
    if abs(a.scale - b.scale) > tolerance * a.scale:
        raise ScaleMismatchError(
            f"{op} operands have mismatched scales; rescale or re-encode "
            "one of them first",
            op=op, left_scale=f"{a.scale:.6g}", right_scale=f"{b.scale:.6g}",
        )


def check_min_level(ct, needed: int, op: str) -> None:
    """An op that consumes levels needs them to still exist."""
    if ct.level < needed:
        raise NoiseBudgetExhaustedError(
            f"{op} needs level >= {needed} but the ciphertext is at level "
            f"{ct.level}; bootstrap to restore budget (or use a context in "
            "'degrade' mode with a registered bootstrapper)",
            op=op, level=ct.level, needed=needed,
        )


# -- module-level integrity switch ------------------------------------------


@dataclass
class IntegrityConfig:
    """What the sub-context layers verify while the switch is on.

    Keyswitch-hint rows are always checked against their per-limb
    checksums as they are loaded (the HBM-transfer trust boundary);
    ``ntt_checksum`` verifies the end-of-op transform checksum after
    every NTT/iNTT - an O(N) linearity invariant (see
    ``BatchedNttContext.verify_transform``) that deterministically
    catches any single corrupted output word, closing the pass-fault
    detection gap the re-execution spot check left;
    ``ntt_recheck_every`` re-executes every k-th NTT and compares (a
    double-execution spot check that also covers multi-word corruptions;
    0 disables);
    ``boundary_hook`` is invoked at every keyswitch boundary - the
    natural detection point for register-file residents about to be
    displaced by the keyswitch working set.  Executors install
    :meth:`~repro.reliability.recovery.RecoveringExecutor.evict_sweep`
    here, which re-verifies each evictee's seal before its words would
    be written back.
    """

    ntt_checksum: bool = True
    ntt_recheck_every: int = 0
    boundary_hook: object | None = None  # callable () -> None
    # Running transform count; the NTT layer increments it so "every k-th"
    # is deterministic per integrity scope, not per process.
    ntt_calls: int = field(default=0, init=False)


_integrity: IntegrityConfig | None = None


def enable_integrity(config: IntegrityConfig | None = None) -> IntegrityConfig:
    """Turn on sub-context integrity checks; returns the active config."""
    global _integrity
    _integrity = config or IntegrityConfig()
    return _integrity


def disable_integrity() -> IntegrityConfig | None:
    global _integrity
    config, _integrity = _integrity, None
    return config


def integrity_active() -> IntegrityConfig | None:
    """The live integrity config, or None when checks are off."""
    return _integrity


def keyswitch_boundary() -> None:
    """Fire the active config's boundary hook (keyswitch detection point).

    Called by `repro.fhe.keyswitch` after each hint application; a hook
    that finds corruption raises :class:`FaultDetectedError`, which
    propagates out of the consuming homomorphic op.  One ``is None``
    test when integrity checking is off.
    """
    config = _integrity
    if config is not None and config.boundary_hook is not None:
        config.boundary_hook()


@contextmanager
def integrity(config: IntegrityConfig | None = None):
    """Scoped integrity checking; restores the previous state on exit."""
    global _integrity
    previous = _integrity
    _integrity = config or IntegrityConfig()
    try:
        yield _integrity
    finally:
        _integrity = previous
