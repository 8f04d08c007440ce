"""Request/response types and the terminal-outcome taxonomy.

A request's life is a straight line through typed states:

    submit -> [shed]                       admission rejected it
           -> queued -> [expired]          deadline lapsed in queue
                     -> dispatched -> [completed]   decrypted answer
                                   -> [failed]      faults exhausted
                                                    every retry

Every terminal state is counted exactly once (``serve.admitted ==
completed + expired + failed`` after a drain; ``serve.offered ==
admitted + shed`` always), which is what lets the campaign reconcile
its report against the obs counters to the last request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Terminal request states (Response.status).
COMPLETED = "completed"
EXPIRED = "expired"
FAILED = "failed"
SHED = "shed"
OUTCOMES = (COMPLETED, EXPIRED, FAILED, SHED)

# Shed sub-reasons (serve.shed.<reason> counters).
SHED_OVERLOAD = "overload"
SHED_DEADLINE = "deadline"
SHED_BREAKER = "breaker"
SHED_INVALID = "invalid"
SHED_CAPACITY = "capacity"   # pod lost every chip; nothing can execute
SHED_REASONS = (SHED_OVERLOAD, SHED_DEADLINE, SHED_BREAKER, SHED_INVALID,
                SHED_CAPACITY)


@dataclass
class Request:
    """One tenant query, admitted and queued."""

    id: int
    tenant: str
    kind: str                  # workload kind ("logreg" / "lstm")
    payload: np.ndarray        # block_slots client values (already valid)
    submitted: float           # virtual time of admission
    deadline: float            # absolute virtual time
    probe: bool = False        # half-open breaker probe request

    def slack(self, now: float) -> float:
        return self.deadline - now


@dataclass
class Response:
    """The terminal outcome of one request."""

    request: Request
    status: str                       # one of OUTCOMES
    value: float | None = None        # decrypted score (completed only)
    error: str | None = None          # typed-error class name otherwise
    completed_at: float = 0.0         # virtual time the outcome was fixed
    retries: int = 0                  # serve-level batch re-executions
    faults_recovered: int = 0         # executor detections replayed away
    batch_id: int = -1                # which dispatch carried it (-1: none)
    batch_occupancy: int = 0          # requests packed in that ciphertext
    chip_seconds: float = 0.0         # this request's share of chip time

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.request.submitted

    @property
    def ok(self) -> bool:
        return self.status == COMPLETED


@dataclass
class BatchRecord:
    """Bookkeeping for one dispatched ciphertext batch (observability)."""

    batch_id: int
    kind: str
    requests: list[Request] = field(default_factory=list)
    dispatched_at: float = 0.0
    service_s: float = 0.0       # clean service time (compiled schedule)
    overhead_s: float = 0.0      # checkpoint/replay + backoff time
    retries: int = 0
    degraded: bool = False
    chip: int = 0                # pod chip the batch executed on
