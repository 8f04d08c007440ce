"""`repro.serve`: fault-tolerant multi-tenant serving for the FHE chip.

The layer cake, bottom-up: `repro.fhe` computes, `repro.core` prices,
`repro.compiler` lowers (once, cached), `repro.reliability` detects and
recovers - and this package turns all of that into a *service*: a
bounded admission queue with typed load shedding, per-request deadlines
under earliest-deadline-first dispatch, cross-tenant slot packing into
shared ciphertexts, per-tenant circuit breakers, and serve-level retries
with jittered exponential backoff when a chip fault defeats in-executor
recovery.  Everything runs on an injectable virtual clock, so the whole
front-end is a deterministic discrete-event simulation: campaigns are
bit-reproducible from their seed.

Entry points: :class:`Server` (one front-end over one simulated chip),
:func:`run_campaign` (the seeded end-to-end audit), and
``python -m repro.serve --campaign`` on the command line.  See
docs/SERVING.md for the request lifecycle and metric reference.
"""

from repro.serve.breaker import BreakerStats, CircuitBreaker
from repro.serve.clock import VirtualClock
from repro.serve.config import ServeConfig
from repro.serve.loadgen import (
    CampaignResult,
    LoadSpec,
    run_campaign,
)
from repro.serve.packing import BatchLayout, SlotPacker
from repro.serve.request import (
    COMPLETED,
    EXPIRED,
    FAILED,
    OUTCOMES,
    SHED,
    SHED_REASONS,
    BatchRecord,
    Request,
    Response,
)
from repro.serve.server import Server

__all__ = [
    "BatchLayout",
    "BatchRecord",
    "BreakerStats",
    "CampaignResult",
    "CircuitBreaker",
    "COMPLETED",
    "EXPIRED",
    "FAILED",
    "LoadSpec",
    "OUTCOMES",
    "Request",
    "Response",
    "Server",
    "ServeConfig",
    "SHED",
    "SHED_REASONS",
    "SlotPacker",
    "VirtualClock",
    "run_campaign",
]
