"""Python-embedded DSL for FHE programs (Sec. 6, step 1).

Mirrors the front end of the paper's compiler: programs are built by
calling homomorphic operations on :class:`Value` handles; the builder
tracks levels, assigns keyswitching digit counts from a per-level schedule,
inserts rescales, and emits the flat :class:`repro.ir.Program` stream the
machine models consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import (
    ADD,
    CONJUGATE,
    INPUT,
    MULT,
    OUTPUT,
    PMULT,
    RESCALE,
    ROTATE,
    HomOp,
    Program,
)
from repro.reliability.errors import NoiseBudgetExhaustedError, ScheduleError


@dataclass(frozen=True)
class Value:
    """A handle to a ciphertext value in the dataflow graph."""

    name: str
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ScheduleError("values must carry at least one level")


class FheBuilder:
    """Builds a Program; one instance per workload.

    ``digit_schedule`` maps level -> keyswitching digit count t; levels not
    present default to 1 digit.  ``tag`` (settable via :meth:`phase`)
    labels emitted ops for per-phase reporting.
    """

    def __init__(self, name: str, degree: int = 65536, max_level: int = 60,
                 digit_schedule: dict[int, int] | None = None,
                 description: str = ""):
        self.program = Program(name=name, degree=degree, max_level=max_level,
                               description=description)
        self.digit_schedule = digit_schedule or {}
        self._counter = 0
        self._tag = ""
        self._templates: dict = {}  # (replay key, source level) -> _Template

    # -- plumbing -----------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}%{self._counter}"

    def _emit(self, kind: str, level: int, operands: tuple[str, ...] = (),
              hint_id=None, plaintext_id=None, repeat: int = 1,
              compact_pt: bool = False, steps: int | None = None) -> Value:
        self._counter += 1
        result = f"v%{self._counter}"
        # Positional, in HomOp's field order: this runs once per op.
        self.program.append(HomOp(
            kind, level, result, operands, hint_id, plaintext_id, steps,
            self.digit_schedule.get(level, 1), self._tag, compact_pt, repeat,
        ))
        return Value(result, level)

    def phase(self, tag: str) -> "FheBuilder":
        """Label subsequent ops (e.g. 'bootstrap', 'conv2'); returns self."""
        self._tag = tag
        return self

    # -- operations -----------------------------------------------------------

    def input(self, name: str, level: int) -> Value:
        value = Value(self._fresh(f"in_{name}"), level)
        self.program.append(HomOp(
            kind=INPUT, level=level, result=value.name, tag=self._tag,
        ))
        return value

    def output(self, value: Value) -> None:
        self.program.append(HomOp(
            kind=OUTPUT, level=value.level, result=self._fresh("out"),
            operands=(value.name,), tag=self._tag,
        ))

    def mult(self, a: Value, b: Value, rescale: bool = True,
             repeat: int = 1) -> Value:
        if a.level != b.level:
            raise ScheduleError(
                f"mult operands at different levels ({a.level} vs {b.level});"
                " mod_drop first"
            )
        out = self._emit(MULT, a.level, (a.name, b.name), hint_id="relin",
                         repeat=repeat)
        return self.rescale(out) if rescale else out

    def square(self, a: Value, rescale: bool = True) -> Value:
        return self.mult(a, a, rescale=rescale)

    def pmult(self, a: Value, plaintext: str, rescale: bool = True,
              repeat: int = 1, compact: bool = False) -> Value:
        """Plaintext multiply; ``repeat`` batches that many diagonal
        products (distinct single-use plaintexts) into one stream op;
        ``compact`` marks small-coefficient plaintexts stored as ~2
        residues and extended on chip."""
        out = self._emit(PMULT, a.level, (a.name,), plaintext_id=plaintext,
                         repeat=repeat, compact_pt=compact)
        return self.rescale(out) if rescale else out

    def add(self, a: Value, b: Value, repeat: int = 1) -> Value:
        # Operands at different levels align harmlessly (mod-drop is free
        # in the machine model): emit at the lower level.
        return self._emit(ADD, min(a.level, b.level), (a.name, b.name),
                          repeat=repeat)

    def rotate(self, a: Value, steps: int, hint_id: str | None = None,
               repeat: int = 1) -> Value:
        """Rotate; ``repeat`` batches independent rotations sharing the
        same hint (e.g. across the blocks of a blocked matrix product).
        The rotation amount is carried on the op (``HomOp.steps``) - the
        hint id is a reuse handle only and may be shared across amounts."""
        hint = hint_id if hint_id is not None else f"rot{steps}"
        return self._emit(ROTATE, a.level, (a.name,), hint_id=hint,
                          repeat=repeat, steps=steps)

    def conjugate(self, a: Value, hint_id: str = "conj") -> Value:
        return self._emit(CONJUGATE, a.level, (a.name,), hint_id=hint_id)

    def rescale(self, a: Value) -> Value:
        if a.level < 2:
            raise NoiseBudgetExhaustedError("cannot rescale below level 1")
        out = self._emit(RESCALE, a.level, (a.name,))
        return Value(out.name, a.level - 1)

    def mod_drop(self, a: Value, level: int) -> Value:
        """Level alignment; free in the machine model (rows are ignored)."""
        if level > a.level:
            raise ScheduleError("cannot raise a value's level")
        return Value(a.name, level)

    def raise_level(self, a: Value, level: int, tag: str = "") -> Value:
        """Model a ModRaise (bootstrapping step 1): bookkeeping only; the
        compute cost is carried by the ops that follow."""
        if level < a.level:
            raise ScheduleError("raise_level must increase the level")
        return Value(a.name, level)

    def replay(self, key, source: Value, emit) -> Value:
        """Append ``emit(source)``'s ops; returns the value it returns.

        The first call per ``key`` (and source level) runs ``emit`` and
        records the ops it appends as a template; every later call
        splices the template instead: the same ops with fresh result
        names (``v%<counter>``, exactly as ``emit`` would have drawn
        them), reading ``source`` where the recorded body read its own.
        Each spliced op still runs the :class:`HomOp` checks.  ``key``
        must pin everything besides the source that the body depends on;
        the body may read only ``source`` and the values it emits.
        Repeated bodies (a deep workload's bootstraps) then cost one
        template walk each, and share their hint ids, plaintext ids,
        tags and repeated operand tuples with the recording.
        """
        template = self._templates.get((key, source.level))
        if template is not None:
            return self._splice(template, source)
        start, first = len(self.program.ops), self._counter
        out = emit(source)
        self._templates[key, source.level] = _Template(
            self.program.ops[start:], first, source, out)
        return out

    def _splice(self, template: "_Template", source: Value) -> Value:
        if template.max_level > self.program.max_level:
            raise ScheduleError(
                f"op at level {template.max_level} exceeds program max "
                f"{self.program.max_level}"
            )
        names = [source.name]   # value index -> its result name
        operand_sets = template.operand_sets
        operands: list[tuple[str, ...]] = []   # per operand set, built once
        append = self.program.ops.append
        counter = self._counter
        for (kind, level, slot, hint_id, plaintext_id, steps, digits, tag,
             compact_pt, repeat) in template.ops:
            if slot == len(operands):   # sets are numbered by first use
                operands.append(tuple([names[i] for i in operand_sets[slot]]))
            counter += 1
            result = f"v%{counter}"
            append(HomOp(kind, level, result, operands[slot], hint_id,
                         plaintext_id, steps, digits, tag, compact_pt,
                         repeat))
            names.append(result)
        self._counter = counter
        return Value(names[template.output], template.output_level)

    def build(self) -> Program:
        return self.program


class _Template:
    """One recorded body of :meth:`FheBuilder.replay`.

    Values are numbered 0 for the source and ``i + 1`` for the body's
    ``i``-th op.  ``operand_sets`` holds each distinct operand tuple of
    the body once, as value numbers, in order of first use; each op
    keeps its :class:`HomOp` fields with ``result`` dropped and
    ``operands`` replaced by its operand set's number.
    """

    __slots__ = ("ops", "operand_sets", "output", "output_level",
                 "max_level")

    def __init__(self, ops: list[HomOp], first: int, source: Value,
                 out: Value):
        index = {source.name: 0}
        sets: dict[tuple[int, ...], int] = {}
        self.ops = []
        for i, op in enumerate(ops, 1):
            if op.result != f"v%{first + i}":
                raise ScheduleError(
                    "a replayed body must draw one v% name per op",
                    result=op.result)
            try:
                refs = tuple([index[o] for o in op.operands])
            except KeyError:
                raise ScheduleError(
                    "a replayed body may read only its source and its own "
                    "values", operands=op.operands) from None
            index[op.result] = i
            self.ops.append((
                op.kind, op.level, sets.setdefault(refs, len(sets)),
                op.hint_id, op.plaintext_id, op.steps, op.digits, op.tag,
                op.compact_pt, op.repeat,
            ))
        if out.name not in index:
            raise ScheduleError("a replayed body must return its source or "
                                "one of its own values", result=out.name)
        self.operand_sets = list(sets)
        self.output = index[out.name]
        self.output_level = out.level
        self.max_level = max((op.level for op in ops), default=1)
