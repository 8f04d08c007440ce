"""Reliability layer: typed errors, invariant guards, fault injection.

CraterLake's headline claim is *unbounded* computation - programs keep
running because bootstrapping restores noise budget before decryption
fails (Sec. 2, Fig. 2).  This package is the software substrate's side
of that bargain: failures are *detected* (typed errors, per-limb
checksums, NTT re-execution spot checks), *reported* (every violation
names the invariant and the values that broke it), and where possible
*recovered from* (graceful-degradation mode auto-inserts rescales and
bootstraps instead of letting decryption fail).

See ``docs/RELIABILITY.md`` for the taxonomy and usage, and run the
fault-injection and recovery acceptance campaign with::

    PYTHONPATH=src python -m repro.reliability --faults 1000
"""

from repro.reliability.backoff import RETRY_BACKOFF, Backoff
from repro.reliability.checksums import (
    limb_checksums,
    mismatched_limbs,
    verify_limbs,
)
from repro.reliability.errors import (
    ConfigError,
    FaultDetectedError,
    LevelMismatchError,
    NoiseBudgetExhaustedError,
    ParameterError,
    ReproError,
    ScaleMismatchError,
    ScheduleError,
    UnrecoverableFaultError,
)
from repro.reliability.guards import (
    DEGRADE,
    STRICT,
    IntegrityConfig,
    ReliabilityPolicy,
    integrity,
)
from repro.reliability.validate import validate_config, validate_program

# The faults module is re-exported lazily: importing it from the package
# __init__ would put it in sys.modules before ``python -m
# repro.reliability.faults`` executes it as __main__, which runpy warns
# about (and which would split the injector switch across two instances).
# The recovery module rides the same mechanism so ``import
# repro.reliability`` stays light.
_FAULTS_NAMES = ("FaultInjector", "injecting")
_RECOVERY_NAMES = ("Checkpoint", "DiskStore", "RecoveringExecutor",
                   "RecoveryCampaignResult", "RecoveryPolicy",
                   "RecoveryStats", "RingBufferStore",
                   "run_recovery_campaign", "sealed_copy",
                   "take_checkpoint", "restore_checkpoint", "verified_copy")


def __getattr__(name):
    if name in _FAULTS_NAMES:
        from repro.reliability import faults

        return getattr(faults, name)
    if name in _RECOVERY_NAMES:
        from repro.reliability import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Backoff",
    "Checkpoint",
    "ConfigError",
    "DEGRADE",
    "DiskStore",
    "FaultDetectedError",
    "FaultInjector",
    "IntegrityConfig",
    "LevelMismatchError",
    "NoiseBudgetExhaustedError",
    "ParameterError",
    "RETRY_BACKOFF",
    "RecoveringExecutor",
    "RecoveryCampaignResult",
    "RecoveryPolicy",
    "RecoveryStats",
    "ReliabilityPolicy",
    "ReproError",
    "RingBufferStore",
    "STRICT",
    "ScaleMismatchError",
    "ScheduleError",
    "UnrecoverableFaultError",
    "injecting",
    "integrity",
    "limb_checksums",
    "mismatched_limbs",
    "restore_checkpoint",
    "run_recovery_campaign",
    "sealed_copy",
    "take_checkpoint",
    "validate_config",
    "validate_program",
    "verified_copy",
    "verify_limbs",
]
