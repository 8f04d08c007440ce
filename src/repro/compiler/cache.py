"""Value-keyed compile cache (Sec. 6).

CraterLake's programming model is compile-once/run-many: FHE programs
are static dataflow graphs, so a lowered schedule is a pure function of
(program IR, :class:`~repro.core.config.ChipConfig`).  The lowering
pipeline is the rotation-hoisting pass
(:func:`~repro.compiler.hoisting.hoist_rotations`), and a serving loop
that lowers the same logreg graph per request would redo work whose
result never changes.  This module makes that work a one-time cost per
process:

* **Keys are values** - :func:`compile_key` is ``(degree, max_level,
  cfg, ops)``: the program's ring parameters, the (frozen) config, and
  every :class:`~repro.ir.HomOp` compared by value (every field, in op
  order).  Two programs share a key exactly when they are the same
  program; ``Program.name`` and ``description`` are display metadata
  and stay out of it.
* **Memory cache** - :class:`CompileCache` is an LRU of compiled
  ``Program`` objects.  It never touches the filesystem.
* **The entry point** - :func:`compile_program` runs the pipeline,
  optionally through a cache.  Cache observability flows through
  `repro.obs` as ``compiler.cache.{hit,miss,store,evict}`` counters and
  the ``compiler.compile`` span (docs/TRACING.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.compiler.hoisting import hoist_rotations
from repro.core.config import ChipConfig
from repro.ir import HomOp, Program
from repro.obs import collector as obs


@dataclass(frozen=True)
class CompileKey:
    """One compilation: the program by value, and the machine.

    ``ops`` compares op by op with ``HomOp`` equality (every field, in
    order), but stays out of the hash because ``HomOp`` is mutable and
    so unhashable; equal keys still hash equal, and equality settles
    the rest.  Re-compiling the same op objects compares pointers only.
    Like the cached schedule, the key holds the caller's op objects, so
    it relies on the codebase's rule that a ``HomOp`` is never mutated
    once built (passes build new ops).
    """

    degree: int
    max_level: int
    cfg: ChipConfig
    ops: tuple[HomOp, ...] = field(hash=False)


def compile_key(program: Program, cfg: ChipConfig) -> CompileKey:
    """The cache key of compiling ``program`` for ``cfg``."""
    return CompileKey(program.degree, program.max_level, cfg,
                      tuple(program.ops))


# -- the cache ----------------------------------------------------------------

class CompileCache:
    """LRU of lowered schedules keyed by :func:`compile_key`.

    Memory-only: nothing is written to disk.  ``memory_entries`` bounds
    the LRU.  Instance-local totals mirror the obs counters in
    :attr:`stats` (``hit`` / ``miss`` / ``store`` / ``evict``), so tests
    and servers can read rates without a live collector.
    """

    def __init__(self, memory_entries: int = 16):
        self.memory_entries = int(memory_entries)
        self._memory: OrderedDict[CompileKey, Program] = OrderedDict()
        self.stats = {"hit": 0, "miss": 0, "store": 0, "evict": 0}

    def _count(self, event: str, value: int = 1) -> None:
        self.stats[event] += value
        obs.count(f"compiler.cache.{event}", value)

    def get(self, key: CompileKey) -> Program | None:
        """Cached lowered schedule for a key, or None (a miss)."""
        program = self._memory.get(key)
        if program is None:
            self._count("miss")
            return None
        self._memory.move_to_end(key)
        self._count("hit")
        return program

    def put(self, key: CompileKey, program: Program) -> None:
        """Store a snapshot of a lowered schedule under its key (a later
        ``append`` on the caller's program cannot change it)."""
        snapshot = Program(name=program.name, degree=program.degree,
                           max_level=program.max_level,
                           description=program.description)
        snapshot.ops = list(program.ops)
        self._count("store")
        if self.memory_entries < 1:
            return
        self._memory[key] = snapshot
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self._count("evict")


_DEFAULT_CACHE: CompileCache | None = None


def default_cache() -> CompileCache:
    """The process-wide memory cache (created on first use)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = CompileCache()
    return _DEFAULT_CACHE


# -- the compile entry point -------------------------------------------------

def compile_program(program: Program, cfg: ChipConfig | None = None, *,
                    cache: CompileCache | None = None) -> Program:
    """Lower ``program`` for ``cfg``, optionally through a compile cache.

    The pipeline is rotation hoisting, whose cost-model gate means the
    result is never slower than the input program.  It is
    deterministic, which is what makes a cached schedule a
    *bit-identical* substitute for recompiling.

    On a hit the cached op stream is returned under the caller's
    program metadata (name/description are display fields, excluded
    from the key); on a miss the freshly lowered program is stored
    under its key before returning.
    """
    cfg = cfg or ChipConfig()
    key = None
    if cache is not None:
        key = compile_key(program, cfg)
        hit = cache.get(key)
        if hit is not None:
            out = Program(name=program.name, degree=program.degree,
                          max_level=program.max_level,
                          description=program.description)
            out.ops = list(hit.ops)
            return out
    with obs.span("compiler.compile", "compiler"):
        lowered = hoist_rotations(program, cfg)
    if cache is not None:
        cache.put(key, lowered)
    return lowered
