"""Observability: tracing, counters and exporters for every layer.

The paper's evaluation argues from *where cycles and bytes go* (Figs.
9-10: FU vs bandwidth utilization, KSH vs operand traffic); this package
gives the reproduction the same visibility.  It is deliberately tiny and
dependency-free, and **zero-cost when disabled**: all hooks route through
module-level helpers that check one global and fall through to shared
no-op objects, so benchmark numbers are unchanged with tracing off.

Usage::

    from repro import obs
    from repro.obs import export

    c = obs.enable()                   # or: with obs.collecting() as c:
    result = simulate(program, cfg)
    obs.disable()

    print(export.top_report(c))        # terminal top-N summary
    export.write_chrome_trace(c, "trace.json", clock_hz=cfg.clock_hz)
    # -> open in chrome://tracing or https://ui.perfetto.dev

Instrumented out of the box:

* `repro.core.simulator` - one :class:`OpEvent` per IR op (compute /
  memory / stall cycles, words moved, Belady evictions), plus counters
  for evictions, chaining hits and traffic categories.
* `repro.fhe.ntt` / `repro.fhe.keyswitch` - wall-clock spans and call
  counts on the functional hot paths.
* `repro.compiler` - schedule-decision counters (hoisted rotation
  groups, compile-cache events, digit choices).

See docs/TRACING.md for the full guide.
"""

from repro.obs.collector import (
    Collector,
    OpEvent,
    Span,
    active,
    collecting,
    count,
    disable,
    emit_op,
    enable,
    gauge,
    is_enabled,
    span,
)
from repro.obs.export import (
    chrome_trace,
    counters_csv,
    gauges_csv,
    spans_csv,
    top_report,
    write_chrome_trace,
)

__all__ = [
    "Collector",
    "OpEvent",
    "Span",
    "active",
    "chrome_trace",
    "collecting",
    "count",
    "counters_csv",
    "disable",
    "emit_op",
    "enable",
    "gauge",
    "gauges_csv",
    "is_enabled",
    "span",
    "spans_csv",
    "top_report",
    "write_chrome_trace",
]
