"""Event collection: counters, wall-clock spans, simulated-op events.

A single module-level :class:`Collector` (or ``None``) is the whole
switch.  Every instrumentation point in the codebase goes through the
module-level helpers (:func:`count`, :func:`span`, :func:`emit_op`),
which check the switch first and fall through to shared no-op objects
when tracing is disabled - one attribute load and one comparison, so the
hot paths (``BatchedNttContext.forward``, the simulator's op loop) pay
nothing measurable with tracing off.

Three event kinds, matching what the layers can observe:

* **Counters** - named monotonically increasing floats (call counts,
  eviction counts, reuse hits).  Cheap enough for per-op increments.
* **Spans** - wall-clock timed regions (``time.perf_counter``) around
  the *functional* hot paths: NTTs, keyswitches, hint generation,
  compiler passes.  These measure this library's real execution time.
* **Op events** - one record per simulated IR op with *simulated-cycle*
  timestamps from `repro.core.simulator`: when its memory stream and its
  compute occupied their clocks, and how much of the critical path the
  op accounts for.  These are what the Chrome-trace exporter lays out as
  FU-vs-HBM timeline lanes.

Wall-clock spans and simulated-op events deliberately live in different
time bases (seconds vs cycles); the exporters never mix them on one
timeline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class OpEvent:
    """One simulated homomorphic op, in simulated cycles.

    ``cycles`` is the op's contribution to the critical path: the advance
    of max(compute clock, memory clock) across the op.  Summed over a
    run, these telescope exactly to ``SimResult.cycles``.
    """

    index: int            # position in the Program's op stream
    kind: str             # ir.MULT / ROTATE / ... / INPUT / OUTPUT
    result: str           # name of the value the op defines
    level: int
    tag: str = ""         # workload phase label (e.g. "bootstrap")
    cycles: float = 0.0   # critical-path advance (telescopes to total)
    compute_start: float = 0.0   # cycle the FUs begin this op
    compute_cycles: float = 0.0  # FU occupancy incl. exposed fill latency
    mem_start: float = 0.0       # cycle the HBM stream for this op begins
    mem_cycles: float = 0.0      # HBM occupancy (words / words-per-cycle)
    stall_cycles: float = 0.0    # compute wait exposed by the memory stream
    mem_words: float = 0.0       # words moved (fetches + forced writebacks)
    evictions: int = 0           # Belady victims displaced by this op
    # Per-FU-class busy cycles (elements / class capacity) for this op,
    # e.g. {"ntt": 512.0, "mul": 96.0}.  The Chrome-trace exporter splits
    # the compute track into one lane per class from this map; empty for
    # INPUT/OUTPUT ops, which occupy no FU.
    fu_cycles: dict[str, float] = field(default_factory=dict)
    # Pod chip index this op ran on (`repro.pod`); None for single-chip
    # runs.  The Chrome-trace exporter gives each chip its own process
    # row so a pod run reads as K parallel machines.
    chip: int | None = None


@dataclass
class Span:
    """A wall-clock timed region (seconds, host time - not simulated)."""

    name: str
    cat: str
    start_s: float
    dur_s: float


class Collector:
    """Accumulates counters, spans and op events for one traced region."""

    def __init__(self, **meta: object):
        self.counters: dict[str, float] = {}
        # Gauges are last-write-wins level measurements (a queue depth,
        # a p99, a utilization fraction) as opposed to the monotonically
        # accumulated counters; exporters list them separately.
        self.gauges: dict[str, float] = {}
        self.spans: list[Span] = []
        self.op_events: list[OpEvent] = []
        # Free-form run tags (config name, sweep point, campaign seed...).
        # The convention: anything that distinguishes *this* collector's run
        # from its siblings goes here, so batch consumers (design-space
        # sweeps, recovery campaigns) can label collectors without
        # side-channel bookkeeping.  Exporters carry it through verbatim.
        self.meta: dict[str, object] = dict(meta)

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def emit_op(self, event: OpEvent) -> None:
        self.op_events.append(event)

    def span(self, name: str, cat: str = "") -> "_SpanTimer":
        return _SpanTimer(self, name, cat)

    # -- queries used by exporters and tests -------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total seconds), aggregated over recorded spans."""
        totals: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            calls, secs = totals.get(s.name, (0, 0.0))
            totals[s.name] = (calls + 1, secs + s.dur_s)
        return totals

    def total_op_cycles(self) -> float:
        """Critical-path cycles across all op events (== SimResult.cycles
        for a single traced run)."""
        return sum(e.cycles for e in self.op_events)


class _SpanTimer:
    """Context manager recording one wall-clock span into a collector."""

    __slots__ = ("_collector", "_name", "_cat", "_start")

    def __init__(self, collector: Collector, name: str, cat: str):
        self._collector = collector
        self._name = name
        self._cat = cat

    def __enter__(self) -> "_SpanTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._collector.spans.append(Span(
            self._name, self._cat, self._start,
            time.perf_counter() - self._start,
        ))


class _NullSpan:
    """Shared do-nothing span used whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()

# The module-level switch.  None = tracing disabled (the default).
_active: Collector | None = None


def enable(**meta: object) -> Collector:
    """Install (and return) a fresh collector; tracing is on until
    :func:`disable`.  Keyword arguments become the collector's ``meta``
    tags (see :attr:`Collector.meta`)."""
    global _active
    _active = Collector(**meta)
    return _active


def disable() -> Collector | None:
    """Turn tracing off; returns the collector that was active (if any)
    so its contents can still be exported."""
    global _active
    collector, _active = _active, None
    return collector


def active() -> Collector | None:
    """The live collector, or None when tracing is disabled."""
    return _active


def is_enabled() -> bool:
    return _active is not None


@contextmanager
def paused():
    """Scoped tracing *suppression*: ``with obs.paused(): ...`` detaches
    the live collector (if any) and restores it on exit.  For internal
    what-if runs - e.g. a compiler gate simulating both the original and
    the candidate schedule - whose counters and op events must not leak
    into the user's trace as if they were real executions."""
    global _active
    previous = _active
    _active = None
    try:
        yield
    finally:
        _active = previous


@contextmanager
def collecting(**meta: object):
    """Scoped tracing: ``with obs.collecting() as c: ...`` - restores the
    previous collector (usually None) on exit, so tests can't leak state.
    Keyword arguments become the collector's ``meta`` tags."""
    global _active
    previous = _active
    _active = Collector(**meta)
    try:
        yield _active
    finally:
        _active = previous


# -- zero-cost instrumentation helpers ------------------------------------
#
# Call sites use these instead of touching the collector directly; each is
# a single global check when tracing is off.

def count(name: str, value: float = 1.0) -> None:
    """Increment a named counter (no-op when tracing is disabled)."""
    c = _active
    if c is not None:
        c.count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a named gauge to ``value`` (no-op when tracing is disabled)."""
    c = _active
    if c is not None:
        c.gauge(name, value)


def span(name: str, cat: str = ""):
    """Wall-clock span context manager; a shared no-op when disabled."""
    c = _active
    if c is None:
        return _NULL_SPAN
    return _SpanTimer(c, name, cat)


def emit_op(event: OpEvent) -> None:
    """Record a simulated-op event (no-op when tracing is disabled)."""
    c = _active
    if c is not None:
        c.emit_op(event)
