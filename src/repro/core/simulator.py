"""Static cycle-level simulator for CraterLake-style machines.

Executes a :class:`repro.ir.Program` against a :class:`ChipConfig`,
modeling

* per-op compute time as the limiting resource among FU classes, register
  file ports (with vector chaining's reduction) and the transpose network
  (`repro.core.cost`), read from a :class:`~repro.core.cost.CostTable`
  built per run: the schedule is static (Sec. 6), so an op's cost is a
  function of its shape and each distinct shape is priced once;
* the single-level register file as a Belady-MIN-managed store of
  ciphertexts, plaintexts and keyswitch hints - the compiler's eviction
  policy (Sec. 6) - with *free-on-last-use* dead-dropping: a resident
  whose next use is the ``inf`` sentinel is released the moment its last
  consumer issues, so dead values never occupy capacity or surface as
  Belady victims.  Victims come off a lazy-deletion heap in a fixed
  order: farthest next use, then fewest words, then oldest insertion
  (a next-use update keeps a resident's seniority; a redefinition or a
  reload does not);
* HBM as a bandwidth-limited stream, overlapped with compute through
  decoupled data orchestration: memory for op i streams when the
  compute head reaches it, overlapping op i-1's compute.

Outputs match what the paper's evaluation reports: execution time, FU and
bandwidth utilization (Fig. 9), off-chip traffic split into KSH / inputs /
intermediate loads / stores (Fig. 10a), and activity counts the energy
model converts into the Fig. 10b power breakdown.  Scheduling-quality
observables (Belady evictions, dead drops, and compute stalls on
memory) land both on :class:`SimResult` and, when tracing is
enabled, as ``sim.*`` counters (see docs/TRACING.md).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.config import ChipConfig
from repro.core.cost import (
    CostTable,
    OpCost,
    ciphertext_words,
    plaintext_words,
    raised_words,
)
from repro.ir import HOIST_MODUP, INPUT, OUTPUT, ROTATE_HOISTED, Program
from repro.obs import collector as obs
from repro.reliability.validate import validate_program

# Object categories for traffic accounting (Fig. 10a).
KSH = "ksh"
INPUTS = "inputs"
INTERM = "interm"

_INF = float("inf")


@dataclass
class SimResult:
    """Everything the evaluation needs from one simulated run."""

    name: str
    config_name: str
    cycles: float
    compute_cycles: float
    mem_cycles: float
    fu_busy_cycles: dict[str, float]
    traffic_words: dict[str, float]  # ksh / inputs / interm_load / interm_store
    scalar_mults: float
    scalar_adds: float
    kshgen_words: float
    network_words: float
    clock_hz: float
    bytes_per_word: float
    fu_units: dict[str, int] = field(default_factory=dict)
    port_stream_elements: float = 0.0
    rf_capacity_words: int = 0
    peak_resident_words: float = 0.0
    # Scheduling-quality observables (also emitted as sim.* counters when
    # tracing is on; carried here so gates and regression tables need no
    # collector).
    rf_evictions: int = 0          # Belady victims displaced under pressure
    dead_drops: int = 0            # residents released on their last use
    stall_cycles: float = 0.0      # compute cycles lost waiting on memory
    # Critical-path cycles attributed to each op tag (FheBuilder.phase
    # label; "" for untagged ops).  Each op's critical-path advance lands
    # in its tag's bucket, so the buckets telescope exactly to
    # ``program_cycles`` - the serving layer uses this to charge chip
    # time to a batch's phases (and, divided by occupancy, to individual
    # requests).
    tag_cycles: dict[str, float] = field(default_factory=dict)
    # Overlap accounting (the pod layer's double-buffered transfers).
    # ``program_cycles`` is the critical path of the op stream alone,
    # before any stream charging; ``serialized_cycles`` is what
    # ``cycles`` would have been had every stream been charged serialized
    # after the program's memory traffic - the price of a transfer that
    # nothing hides (the pod's data-parallel all-reduce, a pipeline's
    # fill).  For runs without streams the two fields equal ``cycles``.
    program_cycles: float = 0.0
    serialized_cycles: float = 0.0
    overlap_hidden_cycles: float = 0.0  # serialized - overlapped cost
    link_port_cycles: float = 0.0       # busiest per-direction link port

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    @property
    def total_traffic_bytes(self) -> float:
        return sum(self.traffic_words.values()) * self.bytes_per_word

    @property
    def bandwidth_utilization(self) -> float:
        return min(1.0, self.mem_cycles / self.cycles) if self.cycles else 0.0

    def fu_utilization(self) -> float:
        """Average busy fraction across the chip's FUs (Fig. 9 metric):
        per-class busy cycles weighted by how many units each class has
        (CraterLake: CRB, 2 NTT, Aut, KSHGen, 5 Mul, 5 Add = 15 FUs)."""
        if not self.cycles or not self.fu_units:
            return 0.0
        busy = sum(
            cycles * self.fu_units.get(cls, 1)
            for cls, cycles in self.fu_busy_cycles.items()
        )
        total_units = sum(self.fu_units.values())
        return min(1.0, busy / (total_units * self.cycles))


@dataclass
class _Resident:
    words: float
    category: str
    dirty: bool
    next_use: float  # op index of next use; inf if none
    seq: int = 0     # insertion order: the Belady tie-break among equals


class _RegisterFile:
    """Belady-MIN managed on-chip storage (the compiler's plan, Sec. 6).

    Victims come off a lazy-deletion min-heap of ``(-next_use, words,
    seq, name)``: the resident used farthest in the future, then the
    smallest, then the oldest insertion.  A ``next_use`` change pushes a
    fresh entry (:meth:`set_next_use`); a popped entry whose ``seq`` or
    ``next_use`` no longer matches its resident is stale and skipped.
    """

    def __init__(self, capacity_words: float):
        self.capacity = capacity_words
        self.objects: dict[str, _Resident] = {}
        self.used = 0.0
        self.peak = 0.0
        self._heap: list[tuple[float, float, int, str]] = []
        self._seq = 0

    def lookup(self, obj: str) -> _Resident | None:
        return self.objects.get(obj)

    def set_next_use(self, obj: str, record: _Resident,
                     next_use: float) -> None:
        """Move resident ``obj``'s next use; its seniority is kept."""
        if record.next_use != next_use:
            record.next_use = next_use
            self._push(obj, record)

    def _push(self, obj: str, record: _Resident) -> None:
        heap = self._heap
        if len(heap) > 4 * len(self.objects) + 64:
            heap[:] = [(-r.next_use, r.words, r.seq, name)
                       for name, r in self.objects.items()]
            heapq.heapify(heap)
        else:
            heapq.heappush(heap, (-record.next_use, record.words,
                                  record.seq, obj))

    def _pop_victim(self) -> tuple[str, _Resident]:
        heap = self._heap
        objects = self.objects
        while True:
            neg_next, _, seq, obj = heapq.heappop(heap)
            record = objects.get(obj)
            if (record is not None and record.seq == seq
                    and record.next_use == -neg_next):
                del objects[obj]
                return obj, record

    def insert(self, obj: str, words: float, category: str, dirty: bool,
               next_use: float) -> list[tuple[str, _Resident]]:
        """Make obj resident; returns evicted (name, record) pairs.

        A resident of the same name is released first, with no writeback:
        the new value overwrites it."""
        evicted = []
        self.drop(obj)
        if words > self.capacity:
            # Operand larger than the register file: it streams through;
            # model as transient residency (no eviction bookkeeping).
            return evicted
        while self.used + words > self.capacity:
            victim, record = self._pop_victim()
            self.used -= record.words
            evicted.append((victim, record))
        self._seq += 1
        record = _Resident(words, category, dirty, next_use, self._seq)
        self.objects[obj] = record
        self._push(obj, record)
        self.used += words
        self.peak = max(self.peak, self.used)
        return evicted

    def drop(self, obj: str) -> _Resident | None:
        record = self.objects.pop(obj, None)
        if record is not None:
            self.used -= record.words
        return record


def _next_use_table(program: Program) -> list[dict[str, float]]:
    """``table[i][obj]`` = first op index > i that touches obj.

    Values are op indices widened to float because ``inf`` is the
    "never used again" sentinel: the register file's Belady policy sorts
    victims by next use (``inf`` first), and the simulator's dead-drop
    sweep releases any resident whose entry is ``inf`` at its last use.
    """
    last: dict[str, float] = {}
    table: list[dict[str, float]] = [dict() for _ in program.ops]
    for i in range(len(program.ops) - 1, -1, -1):
        op = program.ops[i]
        touched = list(op.operands)
        if op.hint_id:
            touched.append(op.hint_id)
        if op.plaintext_id:
            touched.append(op.plaintext_id)
        touched.append(op.result)
        entry = {}
        for obj in touched:
            entry[obj] = last.get(obj, _INF)
        table[i] = entry
        for obj in touched:
            last[obj] = i
    return table


def _fetch_plan(op, cost: OpCost | None, n: int) -> list[tuple[str, float, str]]:
    """Memory objects op needs resident before compute: (obj, words,
    category) triples in stream order.  INPUT ops fetch their own result
    (client data arriving from memory); OUTPUT ops fetch nothing."""
    if op.kind == OUTPUT:
        return []
    if op.kind == INPUT:
        return [(op.result, ciphertext_words(n, op.level), INPUTS)]
    plan = []
    # A rotate_hoisted's first operand is the shared raised-digit object
    # (t digits of L + alpha residues, a hoist_modup result), not a
    # 2-polynomial ciphertext.
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
    if op.hint_id is not None and cost is not None and cost.hint_words:
        plan.append((op.hint_id, cost.hint_words, KSH))
    return plan


def simulate(program: Program, cfg: ChipConfig, *,
             chip: int | None = None,
             overlap_streams: dict[str, tuple[float, float]] | None = None,
             ) -> SimResult:
    """Run ``program`` on machine ``cfg``; see module docstring.

    ``overlap_streams`` charges off-chip transfers this chip owes beyond
    the program's own HBM traffic - the pod layer (`repro.pod`) uses it
    for interconnect sends/receives.  Each entry maps a stream name to
    ``(words, words_per_cycle)``; the words land under that name in
    ``traffic_words``.  The streams are *double-buffered* transfers: a
    dedicated port (the link direction) carries the stream concurrently
    with compute, and only the stream's
    memory-system crossing claims memory cycles - at HBM rate when the
    link is the slower side (the crossing hides in otherwise-idle
    bandwidth), at the stream's own rate when the stream itself is the
    bottleneck (bandwidth-bound fallback, which degenerates to
    serialized charging).  The final cycle count becomes
    ``max(compute, memory, busiest port)`` - the ``max(compute, comm)``
    shape of a pipelined stage - and is never worse than the serialized
    model (reported in ``serialized_cycles``: every stream appended to
    the memory clock at its own rate; the gap lands in
    ``overlap_hidden_cycles``) and never better than
    ``max(program_cycles, busiest port)``.

    ``chip`` tags every emitted :class:`~repro.obs.collector.OpEvent`
    with a pod chip index, giving each chip its own process row in the
    Chrome-trace export; ``None`` (the default) keeps the single-chip
    layout.

    The op stream is simulated exactly as passed; lowering it is the
    compiler's job (`repro.compiler.cache.compile_program`).
    """
    validate_program(program, cfg)
    n = program.degree
    ops = program.ops
    rf = _RegisterFile(cfg.register_file_words)
    next_use = _next_use_table(program)
    costs = CostTable(cfg, n)

    fu_busy: dict[str, float] = {}
    prev_result: str | None = None
    traffic = {KSH: 0.0, INPUTS: 0.0, "interm_load": 0.0, "interm_store": 0.0}
    totals = OpCost()
    mem_clock = 0.0
    comp_clock = 0.0
    words_per_cycle = cfg.hbm_words_per_cycle

    # Per-op observability accumulators; fetch paths increment them, the
    # head loop resets them per op and folds them into the run totals.
    evicted = [0]
    dead_drops = [0]
    total_evictions = 0
    total_dead_drops = 0
    total_stall = 0.0

    def fetch(obj: str, words: float, category: str, uses_at: float) -> float:
        """Ensure obj is resident for the compute head; return words moved
        from memory (0 when already resident, e.g. reuse)."""
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

    def dead_sweep(op, uses: dict[str, float]) -> None:
        """Free-on-last-use: release residents this op touched whose next
        use is the ``inf`` sentinel, so dead values stop occupying
        capacity and forcing Belady evictions."""
        touched = list(op.operands)
        if op.hint_id:
            touched.append(op.hint_id)
        if op.plaintext_id:
            touched.append(op.plaintext_id)
        touched.append(op.result)
        for obj in touched:
            record = rf.lookup(obj)
            if record is not None and record.next_use == _INF:
                rf.drop(obj)
                dead_drops[0] += 1

    tr = obs.active()
    tag_cycles: dict[str, float] = {}

    def charge_tag(op, crit_before: float) -> None:
        """Attribute this op's critical-path advance to its tag bucket;
        the per-tag sums telescope exactly to the final cycle count."""
        advance = max(comp_clock, mem_clock) - crit_before
        if advance:
            tag_cycles[op.tag] = tag_cycles.get(op.tag, 0.0) + advance

    def record(op, index: int, crit_before: float, mem_before: float,
               compute_start: float, compute_cycles: float,
               stall: float, mem_words: float,
               fu_cycles: tuple[tuple[str, float], ...] = ()) -> None:
        """Emit one OpEvent; ``cycles`` is the critical-path advance, so
        the events telescope exactly to the final cycle count."""
        tr.emit_op(obs.OpEvent(
            index=index, kind=op.kind, result=op.result, level=op.level,
            tag=op.tag,
            cycles=max(comp_clock, mem_clock) - crit_before,
            compute_start=compute_start, compute_cycles=compute_cycles,
            mem_start=mem_before, mem_cycles=mem_clock - mem_before,
            stall_cycles=stall, mem_words=mem_words, evictions=evicted[0],
            fu_cycles=dict(fu_cycles),
            chip=chip,
        ))
        tr.count("sim.ops")
        tr.count(f"sim.ops.{op.kind}")
        if evicted[0]:
            tr.count("sim.rf_evictions", evicted[0])
        if dead_drops[0]:
            tr.count("sim.dead_drops", dead_drops[0])

    for i, op in enumerate(ops):
        uses = next_use[i]
        mem_words = 0.0
        evicted[0] = 0
        dead_drops[0] = 0
        crit_before = max(comp_clock, mem_clock)
        mem_before = mem_clock

        if op.kind == OUTPUT:
            words = ciphertext_words(n, op.level)
            traffic["interm_store"] += words
            mem_clock += words / words_per_cycle
            for operand in op.operands:
                rec = rf.lookup(operand)
                if rec is None:
                    continue
                # The store leaves the value backed by memory: the RF copy
                # stays valid but clean (a later eviction needs no second
                # writeback), and it is released outright on its last use.
                rec.dirty = False
                rf.set_next_use(operand, rec, uses.get(operand, _INF))
                if rec.next_use == _INF:
                    rf.drop(operand)
                    dead_drops[0] += 1
            # The stored object's own record: hand-built (non-SSA) streams
            # may reuse the output name for a resident value, which would
            # otherwise linger dead in the RF.
            if op.result not in op.operands and rf.drop(op.result) is not None:
                dead_drops[0] += 1
            total_dead_drops += dead_drops[0]
            charge_tag(op, crit_before)
            if tr is not None:
                record(op, i, crit_before, mem_before, comp_clock, 0.0,
                       0.0, words)
            continue

        # Operand residency: stream everything this op needs that is not
        # already resident.
        shape = costs[op] if op.kind != INPUT else None
        cost = shape.cost if shape is not None else None
        for obj, words, category in _fetch_plan(op, cost, n):
            mem_words += fetch(obj, words, category, uses.get(obj, _INF))
        own_cycles = mem_words / words_per_cycle

        if op.kind == INPUT:
            mem_clock += own_cycles
            dead_sweep(op, uses)
            total_evictions += evicted[0]
            total_dead_drops += dead_drops[0]
            charge_tag(op, crit_before)
            if tr is not None:
                record(op, i, crit_before, mem_before, comp_clock, 0.0,
                       0.0, mem_words)
            continue

        totals.merge(cost)

        # Result allocation (produced on chip; traffic only if evicted and
        # reloaded later).
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

        # Decoupled data orchestration: compute for op i starts when the
        # previous op is done and its own stream has arrived; compute never
        # runs ahead of the in-order memory stream.
        mem_clock += own_cycles
        cycles = shape.cycles
        # Pipeline-fill latency is exposed only when this op consumes the
        # previous op's result (a true dependence chain); independent ops
        # overlap in the static schedule.
        chained = prev_result is not None and prev_result in op.operands
        if chained:
            cycles += shape.latency
        prev_result = op.result
        compute_start = max(comp_clock, mem_clock)
        stall = compute_start - comp_clock
        total_stall += stall
        comp_clock = compute_start + cycles
        for cls, busy in shape.fu_cycles:
            fu_busy[cls] = fu_busy.get(cls, 0.0) + busy

        # Free-on-last-use: dead residents this op just consumed never
        # become Belady victims.
        dead_sweep(op, uses)

        total_evictions += evicted[0]
        total_dead_drops += dead_drops[0]
        charge_tag(op, crit_before)
        if tr is not None:
            if chained and cfg.chaining:
                tr.count("sim.chain_hits")
            record(op, i, crit_before, mem_before, compute_start, cycles,
                   stall, mem_words, shape.fu_cycles)

    if tr is not None and total_stall:
        tr.count("sim.stall_cycles", total_stall)

    program_cycles = max(comp_clock, mem_clock)

    # Overlappable streams: double-buffered transfers on dedicated
    # per-direction ports.  Each stream occupies its own port for
    # ``words / rate`` cycles concurrently with compute; its
    # memory-system crossing claims memory cycles at the *faster* of HBM
    # and the stream (idle-bandwidth hiding with a serialized fallback
    # once the stream is bandwidth-bound).  ``serialized_cycles``
    # charges the same streams serialized after the program's own memory
    # traffic, at each stream's own rate, so the hidden share is
    # observable.
    link_port_cycles = 0.0
    overlap_hidden = 0.0
    if overlap_streams:
        serial_mem = mem_clock
        for stream, (words, stream_wpc) in overlap_streams.items():
            if words <= 0:
                continue
            rate = stream_wpc or words_per_cycle
            traffic[stream] = traffic.get(stream, 0.0) + words
            serial_mem += words / rate
            mem_clock += words / max(words_per_cycle, rate)
            link_port_cycles = max(link_port_cycles, words / rate)
            if tr is not None:
                tr.count(f"sim.stream.{stream}", words)
        total_cycles = max(comp_clock, mem_clock, link_port_cycles)
        serialized_cycles = max(comp_clock, serial_mem)
        overlap_hidden = max(0.0, serialized_cycles - total_cycles)
        if tr is not None:
            if overlap_hidden:
                tr.count("sim.overlap.hidden_cycles", overlap_hidden)
            if link_port_cycles:
                tr.count("sim.overlap.port_cycles", link_port_cycles)
    else:
        total_cycles = max(comp_clock, mem_clock)
        serialized_cycles = total_cycles
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
        program_cycles=program_cycles,
        serialized_cycles=serialized_cycles,
        overlap_hidden_cycles=overlap_hidden,
        link_port_cycles=link_port_cycles,
    )
