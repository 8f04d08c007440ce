"""Shared intermediate representation: programs as homomorphic-op streams.

FHE programs are static dataflow graphs (Sec. 2.1): no data-dependent
control flow, every operation known ahead of time.  The compiler front end
(`repro.compiler`) builds :class:`Program` objects; the CraterLake simulator
(`repro.core.simulator`), the F1+ model and the CPU model all consume the
same stream, so every compared system runs literally the same workload.

Operands are named; sizes derive from (kind, level, degree).  ``hint_id``
identifies which keyswitch hint an op applies - hint reuse across ops is
what the register file's Belady management and the KSH traffic accounting
(Fig. 10a) are about.

Stability guarantees
--------------------
`repro.compiler.cache` keys lowered programs by value: its key
(:func:`repro.compiler.cache.compile_key`) compares the ops with
:class:`HomOp` equality - every field, in op order - plus the
:class:`Program`'s ``degree`` and ``max_level``, so a field added here
joins the key automatically.  ``Program.name`` and ``description`` are
pure metadata, left out of the key.  See docs/COMPILER.md for the full
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.reliability.errors import ParameterError, ScheduleError

# Operation kinds.  MULT/ROTATE need keyswitching; PMULT/ADD/RESCALE are
# plain polynomial ops; INPUT marks an off-chip ciphertext operand's first
# use (client data or layer weights).
MULT = "mult"          # ciphertext x ciphertext (+relinearization)
PMULT = "pmult"        # ciphertext x plaintext
ADD = "add"            # ciphertext add/sub
ROTATE = "rotate"      # automorphism + keyswitch
CONJUGATE = "conjugate"  # automorphism + keyswitch (counted like rotate)
RESCALE = "rescale"
INPUT = "input"
OUTPUT = "output"
# Hoisted rotations (Halevi-Shoup, emitted by repro.compiler.hoisting):
# HOIST_MODUP performs the shared ModUp of one ciphertext's c1 (INTT +
# digit decompose + raise + NTT) once; each ROTATE_HOISTED consumes the
# raised digits - operands (raised, source) - and pays only the hint
# multiply, ModDown and output automorphism.
HOIST_MODUP = "hoist_modup"
ROTATE_HOISTED = "rotate_hoisted"

KINDS = (MULT, PMULT, ADD, ROTATE, CONJUGATE, RESCALE, INPUT, OUTPUT,
         HOIST_MODUP, ROTATE_HOISTED)
KEYSWITCH_KINDS = (MULT, ROTATE, CONJUGATE, ROTATE_HOISTED)


@dataclass(slots=True)
class HomOp:
    """One homomorphic operation at a known level.

    ``level`` is the multiplicative budget L at which the op executes
    (the number of live RNS residues); ``digits`` the keyswitching digit
    count t chosen for this level by the compiler (Sec. 3.1).

    Slotted: every layer holds whole op streams (lstm has 70,268 ops),
    and without a per-op ``__dict__`` a stream takes 258 bytes an op
    rather than 306, names and operand tuples included.
    """

    kind: str
    level: int
    result: str
    operands: tuple[str, ...] = ()
    hint_id: str | None = None
    plaintext_id: str | None = None
    # Rotation amount (slot shift) for ROTATE / ROTATE_HOISTED ops.  This
    # is semantic, not a cost knob: ``hint_id`` is only a *reuse handle*
    # for keyswitch-hint traffic accounting and may legitimately be shared
    # by rotations of different amounts (e.g. a workload cycling a small
    # pool of hint slots), so passes must never infer the amount from it.
    # ``None`` means unknown; value-merging optimizations must then treat
    # the op as unique.
    steps: int | None = None
    digits: int = 1
    tag: str = ""  # phase label for reporting (e.g. "bootstrap", "conv3")
    # Compact plaintext: small-coefficient multiplicands (bootstrap matrix
    # diagonals, scale constants) are stored as ~2 residues and extended
    # on chip, instead of occupying all L residues in memory.
    compact_pt: bool = False
    # Batched emission: this op stands for ``repeat`` structurally
    # identical, mutually independent ops (e.g. the per-block rotations of
    # a blocked matvec, which share one hint, or a matvec's diagonal
    # products with distinct single-use plaintexts).  Compute scales with
    # ``repeat``; a shared hint is still fetched once.
    repeat: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScheduleError(f"unknown op kind {self.kind!r}")
        if self.level < 1:
            raise ScheduleError("level must be >= 1", level=self.level)
        if self.kind in KEYSWITCH_KINDS and self.hint_id is None:
            raise ScheduleError(f"{self.kind} requires a hint_id")
        if self.digits < 1:
            raise ScheduleError("digits must be >= 1", digits=self.digits)
        if self.repeat < 1:
            raise ScheduleError("repeat must be >= 1", repeat=self.repeat)
        if self.repeat > 1 and self.kind in (INPUT, OUTPUT, RESCALE,
                                             HOIST_MODUP):
            raise ScheduleError(f"{self.kind} ops cannot batch with repeat")
        if self.steps is not None and self.kind not in (ROTATE,
                                                        ROTATE_HOISTED):
            raise ScheduleError(
                f"steps only applies to rotations, not {self.kind}",
                steps=self.steps,
            )
        if self.kind == ROTATE_HOISTED and len(self.operands) != 2:
            raise ScheduleError(
                "rotate_hoisted takes (raised, source) operands",
                operands=self.operands,
            )


@dataclass
class Program:
    """An ordered stream of homomorphic ops plus workload metadata."""

    name: str
    degree: int
    max_level: int
    ops: list[HomOp] = field(default_factory=list)
    description: str = ""

    def __post_init__(self):
        if self.degree & (self.degree - 1):
            raise ParameterError("degree must be a power of two",
                                 degree=self.degree)

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: HomOp) -> HomOp:
        if op.level > self.max_level:
            raise ScheduleError(
                f"op at level {op.level} exceeds program max {self.max_level}"
            )
        self.ops.append(op)
        return op

    # -- summary statistics used by reports and tests ----------------------

    def count(self, kind: str) -> int:
        return sum(1 for op in self.ops if op.kind == kind)

    def keyswitch_count(self) -> int:
        return sum(1 for op in self.ops if op.kind in KEYSWITCH_KINDS)

    def distinct_hints(self) -> set[str]:
        return {op.hint_id for op in self.ops if op.hint_id is not None}

    def max_live_level(self) -> int:
        return max((op.level for op in self.ops), default=0)

    def phase_names(self) -> list[str]:
        seen: list[str] = []
        for op in self.ops:
            if op.tag and (not seen or seen[-1] != op.tag):
                if op.tag not in seen:
                    seen.append(op.tag)
        return seen
