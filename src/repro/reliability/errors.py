"""Typed exception hierarchy for the whole reproduction.

Every failure the substrate can diagnose raises a subclass of
:class:`ReproError`, so callers can catch one family (``except
ReproError``), one failure class (``except ScaleMismatchError``), or -
because every validation error also subclasses :class:`ValueError` -
keep pre-existing ``except ValueError`` handlers working unchanged.

The taxonomy mirrors where things go wrong in an FHE pipeline:

* :class:`ParameterError` - a static parameter is impossible (degree not
  a power of two, empty RNS basis, digit count out of range).
* :class:`LevelMismatchError` - operands live at different levels / in
  different RNS bases, or an op needs a level the ciphertext lacks.
* :class:`ScaleMismatchError` - CKKS scale bookkeeping violated
  (adding values at diverged scales decrypts to garbage).
* :class:`NoiseBudgetExhaustedError` - the multiplicative budget is
  spent; decryption would fail and only bootstrapping can recover.
* :class:`ScheduleError` - a compiled :class:`~repro.ir.Program` is
  internally inconsistent (undefined operand, digits exceeding level).
* :class:`ConfigError` - a :class:`~repro.core.config.ChipConfig` (or a
  config/program pairing) cannot be simulated.
* :class:`FaultDetectedError` - an integrity check (per-limb checksum,
  NTT re-execution) caught corrupted data.  Subclasses
  :class:`RuntimeError`, not :class:`ValueError`: the inputs were valid,
  the data was damaged in flight.
* :class:`UnrecoverableFaultError` - checkpoint replay *and* every
  escalation (older checkpoints, full restart) failed to clear a
  detected fault; subclasses :class:`FaultDetectedError`.
* :class:`Overloaded` / :class:`DeadlineExceeded` / :class:`CircuitOpen`
  - the serving front-end's (`repro.serve`) admission-control verdicts:
  the request was *rejected by policy*, not broken.  They subclass only
  :class:`ReproError` (not :class:`ValueError` - the request was
  well-formed, the system chose not to run it) and carry machine-usable
  context (queue depth, deadline slack, breaker state) so clients can
  back off intelligently.

Errors carry an optional ``context`` dict of machine-readable details
(op name, levels, scales) appended to the message, so failures deep in a
workload still say which invariant broke and how to fix it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every diagnosed failure in this repository."""

    def __init__(self, message: str, **context):
        self.context = context
        if context:
            details = ", ".join(f"{k}={v}" for k, v in context.items())
            message = f"{message} [{details}]"
        super().__init__(message)


class ParameterError(ReproError, ValueError):
    """A static parameter is invalid (caught before any computation)."""


class LevelMismatchError(ReproError, ValueError):
    """Operands disagree on level / RNS basis, or a level is unavailable."""


class ScaleMismatchError(ReproError, ValueError):
    """CKKS scales diverged beyond tolerance; the sum would be garbage."""


class NoiseBudgetExhaustedError(ReproError, ValueError):
    """No multiplicative budget left: bootstrap (or re-encrypt) required."""


class ScheduleError(ReproError, ValueError):
    """A compiled Program is not executable as scheduled."""


class ConfigError(ReproError, ValueError):
    """A chip configuration is invalid or cannot run the given program."""


class FaultDetectedError(ReproError, RuntimeError):
    """An integrity check detected corrupted data (not a usage error)."""


class Overloaded(ReproError):
    """The serving front-end shed this request to protect the ones it
    already accepted.

    Raised by :meth:`repro.serve.server.Server.submit` when the bounded
    request queue is at its configured depth: the queue never grows
    without bound, so sustained overload turns into typed rejections the
    client can retry against another replica (or later) instead of into
    unbounded latency for everyone.  Context carries ``queue_depth`` and
    the current backlog.
    """


class DeadlineExceeded(ReproError):
    """A request's deadline cannot be (or was not) met.

    Two sites raise it: admission control, when the estimated queue wait
    plus service time already overruns the deadline (shedding the
    request *before* it wastes chip cycles), and the dispatcher, when a
    queued request's deadline lapses before the chip reaches it (the
    request is cancelled and counted, never executed).  Context carries
    the deadline, the estimate that condemned it, and where it died.
    """


class CircuitOpen(ReproError):
    """The tenant's circuit breaker is open; the request was not queued.

    After ``breaker_threshold`` consecutive tenant-attributable failures
    (malformed payloads, not chip faults) the tenant's breaker opens and
    its traffic is rejected at admission for ``breaker_cooldown_s`` of
    virtual time, isolating a misbehaving tenant from the shared chip.
    A half-open probe readmits one request after the cooldown; its
    outcome closes or re-opens the breaker.  Context carries the breaker
    state and when the next probe is due.
    """


class UnrecoverableFaultError(FaultDetectedError):
    """Recovery exhausted every escalation level and still hit faults.

    Raised by :class:`repro.reliability.recovery.RecoveringExecutor` after
    checkpoint replays *and* full-program restarts all failed.  Subclasses
    :class:`FaultDetectedError` so ``except FaultDetectedError`` handlers
    see it; the context carries the escalation history (retries, restarts,
    the failing step) for post-mortems.
    """


class ChipFailure(ReproError, RuntimeError):
    """A pod chip fail-stopped: it stops responding mid-round.

    Raised by the pod coordinator (`repro.pod.coordinator`) when the
    ``chip`` fault site fires for a chip.  Fail-stop is a *liveness*
    failure, not a data-integrity one, so it subclasses
    :class:`RuntimeError` directly rather than
    :class:`FaultDetectedError`: there is no corrupted value to detect,
    only a missing participant.  The pod recovers by migrating the dead
    chip's shard onto the least-loaded survivor and replaying from the
    last verified pod checkpoint; the error surfaces to callers only
    when the pod is already down to zero survivors.  Context carries the
    chip index and the round it died in.
    """


class InterconnectError(FaultDetectedError):
    """A cross-chip transfer failed its seal check on arrival.

    Raised by the pod interconnect (`repro.pod.coordinator`) when a
    shard-boundary or all-reduce transfer arrives with limb checksums
    that do not match the payload - the ``link`` fault site corrupted it
    in flight.  Subclasses :class:`FaultDetectedError` (damaged data,
    valid inputs), so existing recovery ladders treat it as a detected
    fault.  The receiver never accepts the payload; the sender
    retransmits from its intact copy with seeded backoff, up to the
    pod's ``LINK_RETRIES`` budget, after which it escalates as
    unrecoverable.  Context carries the link (sender, receiver) and the
    retry count.
    """
