"""Serving front-end configuration and its pre-flight validation.

One frozen dataclass holds every robustness knob of `repro.serve`:
capacity (queue depth, packing geometry), deadlines, the degradation
watermark, retries, and the per-tenant circuit breaker; policy values
nothing varies are module constants.  Construction runs
:func:`repro.reliability.validate.validate_config`, which recognizes
serve configs structurally and rejects nonsense (zero queue depth,
negative deadline, a block that does not tile the slot count)
with :class:`~repro.reliability.errors.ConfigError` before a single
request is accepted - the same fail-in-microseconds contract the chip
simulator gives (program, ChipConfig) pairings.

The defaults describe a small-but-real instance: N=256 (128 slots),
16-slot tenant blocks, so 8 tenants share one ciphertext.  Production
geometry is the same code at N=65536: 32K slots / 256-slot logreg query
blocks = 128 tenants per ciphertext; everything here scales with the
``degree``/``block_slots`` ratio, the functional CKKS layer is just too
slow at full N for unit-test turnaround.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.reliability.backoff import RETRY_BACKOFF
from repro.reliability.validate import validate_config

# Fixed serving policy: values no deployment has needed to change.
DEGRADE_BATCH_DIVISOR = 2    # a degraded dispatch packs max_batch // 2
EXECUTOR_RETRIES = 1         # in-executor checkpoint replays per attempt
EXECUTOR_RESTARTS = 1        # in-executor full restarts per attempt
PAYLOAD_LIMIT = 8.0          # max |value| accepted at admission


@dataclass(frozen=True)
class ServeConfig:
    """Static configuration of one serving front-end instance."""

    # -- CKKS / packing geometry ------------------------------------------
    degree: int = 256            # ring degree N of the shared ciphertext
    max_level: int = 5           # levels; the deepest kind (lstm) consumes
    #                              3 and must still END at level >= 2: at
    #                              level 1 the single remaining modulus
    #                              roughly equals the scale, so the
    #                              representable range collapses to ~0.5
    #                              and real workload values silently wrap
    block_slots: int = 16        # slots one tenant query occupies
    max_batch: int = 8           # tenant queries packed per ciphertext
    seed: int = 2022             # keys, weights, jitter - everything

    # -- admission control / load shedding --------------------------------
    queue_depth: int = 64        # bound on queued requests (hard)
    default_deadline_s: float = 5e-3   # deadline when the client sets none

    # -- batching / graceful degradation ----------------------------------
    batch_window_s: float = 2e-4 # max wait for a batch to fill
    degrade_watermark: float = 0.5   # backlog fraction of queue_depth at
    #                              which the server degrades: it stops
    #                              waiting for full batches and halves the
    #                              packing target, trading throughput for
    #                              bounded latency *before* shedding

    # -- retries / faults --------------------------------------------------
    max_retries: int = 2         # serve-level batch re-executions, each
    #                              paused by RETRY_BACKOFF
    checkpoint_every: int = 2    # RecoveringExecutor checkpoint cadence

    # -- per-tenant circuit breaker ---------------------------------------
    breaker_threshold: int = 3   # consecutive failures before opening
    breaker_cooldown_s: float = 2e-2  # open -> half-open probe delay

    # -- verification ------------------------------------------------------
    verify_responses: bool = False  # clean-replay every completed batch
    #                              and compare decrypted slots bit-exactly
    #                              (the campaign's 0-wrong-answer check)

    def __post_init__(self):
        validate_config(self)

    @property
    def slots(self) -> int:
        return self.degree // 2

    @property
    def capacity(self) -> int:
        """Tenant blocks one ciphertext can carry."""
        return self.slots // self.block_slots

    def retry_budget_s(self) -> float:
        """Worst-case serve-level backoff a faulted batch accumulates.

        ``max_retries`` pauses, each bounded by the *ceiling* pause (the
        last retry's exponential step at full positive jitter).  The
        admission ETA folds all of it in, so a request whose deadline
        only holds if nothing ever faults is shed up front instead of
        expiring after occupying the chip.
        """
        return self.max_retries * RETRY_BACKOFF.ceiling(self.max_retries)

    def with_(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
