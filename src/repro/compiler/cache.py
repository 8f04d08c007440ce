"""Content-addressed compile cache (Sec. 6).

CraterLake's programming model is compile-once/run-many: FHE programs
are static dataflow graphs, so a lowered schedule is a pure function of
(program IR, :class:`~repro.core.config.ChipConfig`).  The lowering
pipeline is the rotation-hoisting pass
(:func:`~repro.compiler.hoisting.hoist_rotations`), and a serving loop
that lowers the same logreg graph per request would redo work whose
result never changes.  This module makes that work a one-time cost per
process:

* **Content-addressed fingerprints** - :func:`fingerprint` hashes the
  *canonicalized* program (SSA names, hint ids and plaintext ids
  replaced by first-appearance indices, so renaming values cannot
  cause a miss) and the config's :meth:`~repro.core.config.ChipConfig.
  cache_key` (every field but the display name).  Anything that can
  change the lowered schedule changes the hash; nothing else does.
* **Memory cache** - :class:`CompileCache` is an LRU of compiled
  ``Program`` objects.  It never touches the filesystem.
* **The entry point** - :func:`compile_program` runs the pipeline,
  optionally through a cache.  Cache observability flows through
  `repro.obs` as ``compiler.cache.{hit,miss,store,evict}`` counters and
  ``compiler.compile`` / ``compiler.cache.fingerprint`` spans
  (docs/TRACING.md).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict

from repro.compiler.hoisting import hoist_rotations
from repro.core.config import ChipConfig
from repro.ir import Program
from repro.obs import collector as obs


# -- canonical JSON + fingerprinting ----------------------------------------

def canonical_json(obj) -> bytes:
    """Deterministic JSON bytes: sorted keys, minimal separators.  Two
    structurally equal documents serialize identically regardless of
    dict insertion order - the "insensitive to dict ordering" half of
    the fingerprint contract."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def canonical_program_dict(program: Program) -> dict:
    """The program as fingerprinted: names replaced by structure.

    SSA value names, hint ids, and plaintext ids are display choices of
    the builder (`FheBuilder`'s ``v%17`` counter, a workload's
    ``rot{j%8}`` pool); renaming them consistently cannot change the
    lowered schedule, so each is mapped to a first-appearance index
    (``v0, v1, ...`` / ``h0, ...`` / ``p0, ...``).  The *sharing
    structure* survives: collapsing two distinct hints into one, or
    splitting one value into two, changes the mapping and the hash.
    ``Program.name`` and ``description`` are metadata and excluded;
    every schedule-relevant field (kind, level, operand wiring, steps,
    digits, tag, compact_pt, repeat, degree, max_level) is included.
    """
    values: dict[str, str] = {}
    hints: dict[str, str] = {}
    pts: dict[str, str] = {}

    def vname(name: str) -> str:
        if name not in values:
            values[name] = f"v{len(values)}"
        return values[name]

    ops = []
    for op in program.ops:
        operands = [vname(o) for o in op.operands]
        hint = None
        if op.hint_id is not None:
            if op.hint_id not in hints:
                hints[op.hint_id] = f"h{len(hints)}"
            hint = hints[op.hint_id]
        pt = None
        if op.plaintext_id is not None:
            if op.plaintext_id not in pts:
                pts[op.plaintext_id] = f"p{len(pts)}"
            pt = pts[op.plaintext_id]
        ops.append([op.kind, op.level, vname(op.result), operands, hint,
                    pt, op.steps, op.digits, op.tag, op.compact_pt,
                    op.repeat])
    return {"degree": program.degree, "max_level": program.max_level,
            "ops": ops}


def program_token(program: Program) -> str:
    """sha256 of the canonical-JSON form of
    :func:`canonical_program_dict` - the program half of the
    fingerprint.

    Canonicalization walks every op, so the token is memoized on the
    ``Program`` instance (guarded by the ops list's identity and
    length): a serving loop fingerprinting the same program per request
    pays the walk once.  The memo assumes the codebase's convention
    that a ``Program`` is immutable once built - passes return *new*
    programs (and ``append`` or replacing ``.ops`` invalidates the
    guard) - mutating an existing ``HomOp`` in place is already
    undefined behavior for scheduling and is not detected here.
    """
    ops = program.ops
    guard = (id(ops), len(ops))
    memo = getattr(program, "_token_memo", None)
    if memo is not None and memo[0] == guard:
        return memo[1]
    token = hashlib.sha256(
        canonical_json(canonical_program_dict(program))).hexdigest()
    program._token_memo = (guard, token)
    return token


def fingerprint(program: Program, cfg: ChipConfig | None = None) -> str:
    """Content address of a (program, config) compilation.

    The sha256 of the canonical JSON of ``{"program_sha256",
    "config"}``, where ``program_sha256`` is :func:`program_token` (the
    hash of the canonicalized program) - a two-stage construction so the
    per-op walk can be memoized.  Invariant under SSA renames,
    hint/plaintext-id renames, dict ordering, and the display names
    ``Program.name`` / ``ChipConfig.name``; sensitive to every op field,
    the op order, the program's ring parameters, and every other config
    field.
    """
    cfg = cfg or ChipConfig()
    doc = {
        "program_sha256": program_token(program),
        "config": cfg.cache_key(),
    }
    return hashlib.sha256(canonical_json(doc)).hexdigest()


# -- the cache ----------------------------------------------------------------

class CompileCache:
    """LRU of lowered schedules keyed by :func:`fingerprint`.

    Memory-only: nothing is written to disk.  ``memory_entries`` bounds
    the LRU.  Instance-local totals mirror the obs counters in
    :attr:`stats` (``hit`` / ``miss`` / ``store`` / ``evict``), so tests
    and servers can read rates without a live collector.
    """

    def __init__(self, memory_entries: int = 16):
        self.memory_entries = int(memory_entries)
        self._memory: OrderedDict[str, Program] = OrderedDict()
        self.stats = {"hit": 0, "miss": 0, "store": 0, "evict": 0}

    def _count(self, event: str, value: int = 1) -> None:
        self.stats[event] += value
        obs.count(f"compiler.cache.{event}", value)

    def get(self, fp: str) -> Program | None:
        """Cached lowered schedule for a fingerprint, or None (a miss)."""
        program = self._memory.get(fp)
        if program is None:
            self._count("miss")
            return None
        self._memory.move_to_end(fp)
        self._count("hit")
        return program

    def put(self, fp: str, program: Program) -> None:
        """Store a snapshot of a lowered schedule under its fingerprint
        (a later ``append`` on the caller's program cannot change it)."""
        snapshot = Program(name=program.name, degree=program.degree,
                           max_level=program.max_level,
                           description=program.description)
        snapshot.ops = list(program.ops)
        self._count("store")
        if self.memory_entries < 1:
            return
        self._memory[fp] = snapshot
        self._memory.move_to_end(fp)
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

    The pipeline is rotation hoisting (``min_group=2``), whose cost-model
    gate means the result is never slower than the input program.  It
    is deterministic, which is what makes a cached schedule a
    *bit-identical* substitute for recompiling.

    On a hit the cached op stream is returned under the caller's
    program metadata (name/description are display fields, excluded
    from the fingerprint); on a miss the freshly lowered program is
    stored under its fingerprint before returning.
    """
    cfg = cfg or ChipConfig()
    fp = None
    if cache is not None:
        with obs.span("compiler.cache.fingerprint", "compiler"):
            fp = fingerprint(program, cfg)
        hit = cache.get(fp)
        if hit is not None:
            out = Program(name=program.name, degree=program.degree,
                          max_level=program.max_level,
                          description=program.description)
            out.ops = list(hit.ops)
            return out
    with obs.span("compiler.compile", "compiler"):
        lowered = hoist_rotations(program, cfg, min_group=2)
    if cache is not None:
        cache.put(fp, lowered)
    return lowered
