"""Reference oracle for the simulator's op loop.

:func:`simulate` is the op loop the flat loop in
:func:`repro.core.simulator.simulate` replaced, kept here as written:
a fetch plan per op, one helper call per fetch, insert, next-use update,
drop and dead-drop sweep, and a :class:`ScanRegisterFile` - the plain
textbook Belady-MIN store.  Every eviction scans all residents with
``max`` for the farthest next use, then the smallest words, and ``max``
returns the first such resident in dict insertion order - the oldest.
The simulator must produce the same :class:`SimResult` field for field
(``test_register_file.py``); the known-answer vectors in ``kat/`` were
frozen from a simulator built on this scan.

Tracing and overlap streams are left out: neither touches the op loop's
victims or totals, and both are pinned against the simulator itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ChipConfig
from repro.core.cost import (
    CostTable,
    OpCost,
    ciphertext_words,
    plaintext_words,
    raised_words,
)
from repro.core.simulator import _INF, INPUTS, KSH, SimResult
from repro.ir import (
    HOIST_MODUP,
    INPUT,
    KEYSWITCH_KINDS,
    OUTPUT,
    ROTATE_HOISTED,
    Program,
)
from repro.reliability.validate import validate_program

INTERM = "interm"  # fetch category of an operand: dirty while resident


@dataclass
class Resident:
    words: float
    category: str
    dirty: bool
    next_use: float  # op index of next use; inf if none


class ScanRegisterFile:
    """Belady-MIN by linear scan."""

    def __init__(self, capacity_words: float):
        self.capacity = capacity_words
        self.objects: dict[str, Resident] = {}
        self.used = 0.0
        self.peak = 0.0

    def lookup(self, obj: str) -> Resident | None:
        return self.objects.get(obj)

    def set_next_use(self, obj: str, record: Resident,
                     next_use: float) -> None:
        record.next_use = next_use

    def insert(self, obj: str, words: float, category: str, dirty: bool,
               next_use: float) -> list[tuple[str, Resident]]:
        evicted = []
        self.drop(obj)  # a redefined name overwrites its old value
        if words > self.capacity:
            return evicted
        while self.used + words > self.capacity:
            victim = max(
                self.objects, key=lambda o: (self.objects[o].next_use,
                                             -self.objects[o].words)
            )
            record = self.objects.pop(victim)
            self.used -= record.words
            evicted.append((victim, record))
        self.objects[obj] = Resident(words, category, dirty, next_use)
        self.used += words
        self.peak = max(self.peak, self.used)
        return evicted

    def drop(self, obj: str) -> Resident | None:
        record = self.objects.pop(obj, None)
        if record is not None:
            self.used -= record.words
        return record


def touched(op) -> list[str]:
    """Every object ``op`` touches, duplicates and all: operands, hint
    (keyswitching kinds only: no other op fetches one), plaintext,
    result."""
    names = list(op.operands)
    if op.kind in KEYSWITCH_KINDS:
        names.append(op.hint_id)
    if op.plaintext_id is not None:
        names.append(op.plaintext_id)
    names.append(op.result)
    return names


def next_use_table(program: Program) -> list[dict[str, float]]:
    """``table[i][obj]`` = first op index > i that touches obj."""
    last: dict[str, float] = {}
    table: list[dict[str, float]] = []
    for i in range(len(program.ops) - 1, -1, -1):
        names = touched(program.ops[i])
        table.append({obj: last.get(obj, _INF) for obj in names})
        for obj in names:
            last[obj] = i
    table.reverse()
    return table


def fetch_plan(op, cost: OpCost | None, n: int) -> list[tuple[str, float, str]]:
    """Memory objects op needs resident before compute: (obj, words,
    category) triples in stream order."""
    if op.kind == OUTPUT:
        return []
    if op.kind == INPUT:
        return [(op.result, ciphertext_words(n, op.level), INPUTS)]
    plan = []
    for slot, operand in enumerate(op.operands):
        if op.kind == ROTATE_HOISTED and slot == 0:
            words = raised_words(n, op.level, op.digits)
        else:
            words = ciphertext_words(n, op.level)
        plan.append((operand, words, INTERM))
    if op.plaintext_id is not None:
        words = (2 * n if op.compact_pt
                 else plaintext_words(n, op.level)) * op.repeat
        plan.append((op.plaintext_id, words, INPUTS))
    if op.kind in KEYSWITCH_KINDS:
        plan.append((op.hint_id, cost.hint_words, KSH))
    return plan


def simulate(program: Program, cfg: ChipConfig) -> SimResult:
    """The reference op loop; same contract as the simulator's
    ``simulate`` without ``overlap_streams``."""
    validate_program(program, cfg)
    n = program.degree
    rf = ScanRegisterFile(cfg.register_file_words)
    next_use = next_use_table(program)
    costs = CostTable(cfg, n)

    fu_busy: dict[str, float] = {}
    prev_result: str | None = None
    traffic = {KSH: 0.0, INPUTS: 0.0, "interm_load": 0.0, "interm_store": 0.0}
    totals = OpCost()
    mem_clock = 0.0
    comp_clock = 0.0
    words_per_cycle = cfg.hbm_words_per_cycle
    evicted = [0]
    dead_drops = [0]
    total_evictions = 0
    total_dead_drops = 0
    total_stall = 0.0
    tag_cycles: dict[str, float] = {}

    def fetch(obj: str, words: float, category: str, uses_at: float) -> float:
        record = rf.lookup(obj)
        if record is not None:
            rf.set_next_use(obj, record, uses_at)
            return 0.0
        moved = words
        if category == KSH:
            traffic[KSH] += words
        elif category == INPUTS:
            traffic[INPUTS] += words
        else:
            traffic["interm_load"] += words
        dirty = category == INTERM
        for _, vrec in rf.insert(obj, words, category, dirty, uses_at):
            evicted[0] += 1
            if vrec.dirty and vrec.next_use != _INF:
                traffic["interm_store"] += vrec.words
                moved += vrec.words
        return moved

    def dead_sweep(op) -> None:
        for obj in touched(op):
            record = rf.lookup(obj)
            if record is not None and record.next_use == _INF:
                rf.drop(obj)
                dead_drops[0] += 1

    def charge_tag(op, crit_before: float) -> None:
        advance = max(comp_clock, mem_clock) - crit_before
        if advance:
            tag_cycles[op.tag] = tag_cycles.get(op.tag, 0.0) + advance

    for i, op in enumerate(program.ops):
        uses = next_use[i]
        mem_words = 0.0
        evicted[0] = 0
        dead_drops[0] = 0
        crit_before = max(comp_clock, mem_clock)

        if op.kind == OUTPUT:
            words = ciphertext_words(n, op.level)
            traffic["interm_store"] += words
            mem_clock += words / words_per_cycle
            for operand in op.operands:
                rec = rf.lookup(operand)
                if rec is None:
                    continue
                rec.dirty = False
                rf.set_next_use(operand, rec, uses.get(operand, _INF))
                if rec.next_use == _INF:
                    rf.drop(operand)
                    dead_drops[0] += 1
            if op.result not in op.operands and rf.drop(op.result) is not None:
                dead_drops[0] += 1
            total_dead_drops += dead_drops[0]
            charge_tag(op, crit_before)
            continue

        shape = costs[op] if op.kind != INPUT else None
        cost = shape.cost if shape is not None else None
        for obj, words, category in fetch_plan(op, cost, n):
            mem_words += fetch(obj, words, category, uses.get(obj, _INF))
        own_cycles = mem_words / words_per_cycle

        if op.kind == INPUT:
            mem_clock += own_cycles
            dead_sweep(op)
            total_evictions += evicted[0]
            total_dead_drops += dead_drops[0]
            charge_tag(op, crit_before)
            continue

        totals.merge(cost)
        result_words = (raised_words(n, op.level, op.digits)
                        if op.kind == HOIST_MODUP
                        else ciphertext_words(n, op.level))
        for _, vrec in rf.insert(op.result, result_words,
                                 INTERM, True, uses[op.result]):
            evicted[0] += 1
            if vrec.dirty and vrec.next_use != _INF:
                traffic["interm_store"] += vrec.words
                mem_words += vrec.words
                own_cycles += vrec.words / words_per_cycle

        mem_clock += own_cycles
        cycles = shape.cycles
        if prev_result is not None and prev_result in op.operands:
            cycles += shape.latency
        prev_result = op.result
        compute_start = max(comp_clock, mem_clock)
        stall = compute_start - comp_clock
        total_stall += stall
        comp_clock = compute_start + cycles
        for cls, busy in shape.fu_cycles:
            fu_busy[cls] = fu_busy.get(cls, 0.0) + busy

        dead_sweep(op)
        total_evictions += evicted[0]
        total_dead_drops += dead_drops[0]
        charge_tag(op, crit_before)

    total_cycles = max(comp_clock, mem_clock)
    return SimResult(
        name=program.name,
        config_name=cfg.name,
        cycles=total_cycles,
        compute_cycles=comp_clock,
        mem_cycles=mem_clock,
        fu_busy_cycles=fu_busy,
        traffic_words=traffic,
        scalar_mults=totals.scalar_mults,
        scalar_adds=totals.scalar_adds,
        kshgen_words=totals.kshgen_elements,
        network_words=totals.network_words,
        clock_hz=cfg.clock_hz,
        bytes_per_word=cfg.bytes_per_word,
        fu_units={
            "ntt": cfg.ntt_units, "mul": cfg.mul_units,
            "add": cfg.add_units, "aut": cfg.aut_units,
            "crb": 1 if cfg.crb else 0,
            "kshgen": 1 if cfg.kshgen else 0,
        },
        port_stream_elements=totals.port_stream_elements,
        rf_capacity_words=cfg.register_file_words,
        peak_resident_words=rf.peak,
        rf_evictions=total_evictions,
        dead_drops=total_dead_drops,
        stall_cycles=total_stall,
        tag_cycles=tag_cycles,
        program_cycles=total_cycles,
        serialized_cycles=total_cycles,
        overlap_hidden_cycles=0.0,
        link_port_cycles=0.0,
    )


def check_advances(program: Program, result: SimResult, advances) -> None:
    """``simulate_ops``' per-op advances against its result: one
    non-negative advance per op, summing exactly to ``program_cycles``,
    and grouped by tag in program order - zero advances skipped, so
    they add no key - equal to ``tag_cycles`` dict for dict."""
    assert len(advances) == len(program.ops)
    assert min(advances, default=0.0) >= 0.0
    assert sum(advances) == result.program_cycles
    tags: dict[str, float] = {}
    for op, advance in zip(program.ops, advances):
        if advance:
            tags[op.tag] = tags.get(op.tag, 0.0) + advance
    assert tags == result.tag_cycles
