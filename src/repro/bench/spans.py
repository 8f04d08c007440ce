"""Wall-clock spans around each layer's public entry points.

The benchmark measures the layers without editing them: :func:`install`
replaces a layer's public function (or method) with a wrapper that
opens a span on entry and closes it on exit, in every loaded ``repro``
module that holds a reference to it.  Spans live in memory in one
:class:`Recorder`; :func:`self_times` turns them into per-layer self
time (a span's duration minus the union of its children's intervals),
and :func:`chrome_trace` lays them out for ``chrome://tracing``.

A target whose module or attribute no longer exists is reported as
absent instead of failing, so deleting a wrapped function needs no
benchmark edit: its metrics read 0 and the record lists it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module``'s ``attr`` (``"f"`` or
    ``"Class.method"``), recorded as span ``name``.  ``annotate(args,
    result)`` may return a dict stored on the span (op counts, batch
    ids); ``result`` is None when the call raised."""

    name: str
    module: str
    attr: str
    annotate: Callable | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    pass_id: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with an explicit open-span stack (the
    benchmark child is single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0,
                               parent, self.pass_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, layer: str) -> "_Open":
        return _Open(self, name, layer)


class _Open:
    __slots__ = ("_rec", "_name", "_layer", "index")

    def __init__(self, rec: Recorder, name: str, layer: str):
        self._rec, self._name, self._layer = rec, name, layer

    def __enter__(self) -> "_Open":
        self.index = self._rec.open(self._name, self._layer)
        return self

    def __exit__(self, *exc) -> None:
        self._rec.close(self.index)


def _wrap(rec: Recorder, target: Target, fn):
    name, layer, annotate = target.name, target.layer, target.annotate

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name, layer)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(index)
            if annotate is not None:    # result is None if fn raised
                rec.spans[index].attrs = annotate(args, result)

    return wrapper


def install(rec: Recorder, targets) -> tuple[list, list[str]]:
    """Wrap every target; returns ``(patches, absent)`` where
    ``patches`` feeds :func:`restore` and ``absent`` names the targets
    whose function no longer exists."""
    patches: list[tuple[object, str, object]] = []
    absent: list[str] = []
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            absent.append(target.name)
            continue
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = (owner.__dict__.get(attr) if owner_name
                    else getattr(owner, attr, None)) if owner else None
        if original is None:
            absent.append(target.name)
            continue
        wrapped = _wrap(rec, target, original)
        if owner_name:
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        # A module-level function is also bound by ``from m import f`` in
        # other modules: rebind every reference to the same object.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return patches, absent


def restore(patches) -> None:
    for holder, attr, original in reversed(patches):
        setattr(holder, attr, original)


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's
    intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [
        s.duration - union_length(
            [(spans[c].start, spans[c].end) for c in children[i]],
            s.start, s.end)
        for i, s in enumerate(spans)
    ]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total s, self s) rows, heaviest self first."""
    selfs = self_times(spans)
    rows: dict[str, list] = {}
    for s, own in zip(spans, selfs):
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += own
    return sorted(((name, *row) for name, row in rows.items()),
                  key=lambda r: -r[3])


def format_layer_table(spans: list[Span]) -> str:
    lines = [f"{'span':32s} {'calls':>8s} {'total s':>10s} {'self s':>10s}"]
    for name, calls, total, own in layer_table(spans):
        lines.append(f"{name:32s} {calls:8d} {total:10.4f} {own:10.4f}")
    return "\n".join(lines)


def chrome_trace(spans: list[Span]) -> dict:
    """Complete ("X") events in microseconds, one row per pass."""
    t0 = min((s.start for s in spans), default=0.0)
    events = []
    for i, s in enumerate(spans):
        args = {"parent": s.parent, "pass": s.pass_id}
        if s.attrs:
            args.update(s.attrs)
        events.append({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
            "tid": s.pass_id, "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
