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
from array import array
from dataclasses import dataclass, field

from repro.core.config import ChipConfig
from repro.core.cost import (
    CostTable,
    ciphertext_words,
    plaintext_words,
    raised_words,
)
from repro.ir import (
    HOIST_MODUP,
    INPUT,
    KEYSWITCH_KINDS,
    OUTPUT,
    ROTATE_HOISTED,
    Program,
)
from repro.obs import collector as obs
from repro.reliability.validate import validate_program

# Traffic accounting keys (Fig. 10a).
KSH = "ksh"
INPUTS = "inputs"
INTERM_LOAD = "interm_load"
INTERM_STORE = "interm_store"

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
    # label; "" for untagged ops): ``simulate_ops``' per-op advances
    # grouped by tag, so the buckets telescope to ``program_cycles`` -
    # the serving layer charges chip time to a batch's phases (and,
    # divided by occupancy, to individual requests) from them.
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


def _next_use_table(program: Program) -> array:
    """One next use per touch, flat: for each op in order, the first op
    index after it that touches each name it touches.

    An op touches its operands, its hint (only a keyswitching kind
    fetches one, so only such an op touches its ``hint_id``), its
    plaintext (when not None) and its result, and its entries sit in
    that order, op after op: an op with ``k`` operands, a hint and no
    plaintext owns ``k + 2`` consecutive entries, the last its result.
    A name an op touches twice (a duplicated operand, or an operand
    that is also the result) gets the same value at both positions.
    Values are op indices as doubles because ``inf`` is the "never
    used again" sentinel: Belady victims sort by next use (``inf``
    first), and the dead-drop sweep releases any resident whose entry
    is ``inf`` at its last use.  At 8 bytes a touch, lstm's table
    (70,268 ops, 210,683 touches) is 1.7 MB; one dict per op cost
    ~75 bytes a touch.
    """
    ops = program.ops
    last: dict[str, int] = {}
    get = last.get
    table = array("d")
    append = table.append
    # Built backwards, each op's entries last to first, then reversed.
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        result = op.result
        plaintext = op.plaintext_id
        hint = op.hint_id if op.kind in KEYSWITCH_KINDS else None
        operands = op.operands
        append(get(result, _INF))
        if plaintext is not None:
            append(get(plaintext, _INF))
        if hint is not None:
            append(get(hint, _INF))
        for obj in reversed(operands):
            append(get(obj, _INF))
        last[result] = i
        if plaintext is not None:
            last[plaintext] = i
        if hint is not None:
            last[hint] = i
        for obj in operands:
            last[obj] = i
    table.reverse()
    return table


def simulate(program: Program, cfg: ChipConfig, *,
             chip: int | None = None,
             overlap_streams: dict[str, tuple[float, float]] | None = None,
             ) -> SimResult:
    """:func:`simulate_ops`' result, without the per-op advances."""
    return simulate_ops(program, cfg, chip=chip,
                        overlap_streams=overlap_streams)[0]


def simulate_ops(program: Program, cfg: ChipConfig, *,
                 chip: int | None = None,
                 overlap_streams: dict[str, tuple[float, float]] | None = None,
                 ) -> tuple[SimResult, array]:
    """Run ``program`` on machine ``cfg``; see module docstring.

    Beside the result it returns each op's price, its critical-path
    advance: what op ``i`` adds to ``max(compute, memory)``.  They sum
    to ``program_cycles``, ``tag_cycles`` groups them by tag, and
    `repro.interpret.Plan.step_cycles` by executor step.

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
    next_use = _next_use_table(program)
    costs = CostTable(cfg, n)
    words_per_cycle = cfg.hbm_words_per_cycle
    chaining = cfg.chaining
    ct_words = [ciphertext_words(n, level)
                for level in range(program.max_level + 1)]
    pt_words = [plaintext_words(n, level)
                for level in range(program.max_level + 1)]

    # The register file, managed by Belady MIN (the compiler's plan,
    # Sec. 6).  ``residents`` maps name -> [words, next_use, seq, dirty];
    # ``seq`` is the insertion order, renewed by a redefinition or a
    # reload but not by a next-use update.  Victims come off a
    # lazy-deletion min-heap of ``(-next_use, words, seq, name)``: the
    # resident used farthest in the future, then the smallest, then the
    # oldest.  A next-use change pushes a fresh entry; a popped entry
    # whose seq or next use no longer matches its resident is stale and
    # skipped.  Once per op the heap is rebuilt from the residents when
    # it holds more than 4x their count plus 64 entries.
    residents: dict[str, list] = {}
    heap: list[tuple[float, float, int, str]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    capacity = cfg.register_file_words
    used = 0.0
    peak = 0.0
    seq = 0

    # Run totals, accumulated in op order.
    traffic = {KSH: 0.0, INPUTS: 0.0, INTERM_LOAD: 0.0}  # fetches by key
    store = 0.0  # INTERM_STORE: OUTPUT stores and dirty-victim writebacks
    fu_busy: dict[str, float] = {}
    advances = array("d", [0.0]) * len(program.ops)  # each op's price
    tag_cycles: dict[str, float] = {}  # the same, grouped by op.tag
    port_streams = network = mults = adds = kshgen = 0.0
    mem_clock = comp_clock = 0.0
    total_evictions = total_dead_drops = 0
    total_stall = 0.0
    prev_result: str | None = None
    tr = obs.active()
    # This op's entries in ``next_use`` are [base, end): its operands
    # from ``base``, then its hint, its plaintext, and its result at
    # ``end - 1``.
    end = 0

    for i, op in enumerate(program.ops):
        kind = op.kind
        level = op.level
        operands = op.operands
        plaintext = op.plaintext_id
        keyswitch = kind in KEYSWITCH_KINDS
        base = end
        end = base + len(operands) + 1
        if keyswitch:
            end += 1
        if plaintext is not None:
            end += 1
        crit_before = comp_clock if comp_clock > mem_clock else mem_clock
        mem_before = mem_clock
        evictions = drops = 0
        compute_start = comp_clock
        cycles = stall = 0.0
        fu_cycles: tuple[tuple[str, float], ...] = ()
        chained = False
        if len(heap) > 4 * len(residents) + 64:
            heap = [(-entry[1], entry[0], entry[2], name)
                    for name, entry in residents.items()]
            heapq.heapify(heap)

        if kind == OUTPUT:
            mem_words = ct_words[level]
            store += mem_words
            mem_clock += mem_words / words_per_cycle
            for p, obj in enumerate(operands, base):
                entry = residents.get(obj)
                if entry is None:
                    continue
                # The store leaves the value backed by memory: the RF copy
                # stays valid but clean (a later eviction needs no second
                # writeback), and it is released outright on its last use.
                entry[3] = False
                nu = next_use[p]
                if nu == _INF:
                    del residents[obj]
                    used -= entry[0]
                    drops += 1
                elif entry[1] != nu:
                    entry[1] = nu
                    heappush(heap, (-nu, entry[0], entry[2], obj))
            # The stored object's own record: hand-built (non-SSA) streams
            # may reuse the output name for a resident value, which would
            # otherwise linger dead in the RF.
            if op.result not in operands:
                entry = residents.pop(op.result, None)
                if entry is not None:
                    used -= entry[0]
                    drops += 1
        else:
            # Operand residency: stream everything this op needs that is
            # not already resident, as (name, words, traffic key, next
            # use).
            if kind == INPUT:
                # Client data arriving from memory.
                plan = [(op.result, ct_words[level], INPUTS,
                         next_use[end - 1])]
            else:
                shape = costs[op]
                cost = shape.cost
                if kind == ROTATE_HOISTED:
                    # The first operand is the shared raised-digit object
                    # (t digits of L + alpha residues, a hoist_modup
                    # result), not a 2-polynomial ciphertext.
                    plan = [(operands[0], raised_words(n, level, op.digits),
                             INTERM_LOAD, next_use[base]),
                            (operands[1], ct_words[level], INTERM_LOAD,
                             next_use[base + 1])]
                else:
                    plan = []
                    for p, obj in enumerate(operands, base):
                        plan.append((obj, ct_words[level], INTERM_LOAD,
                                     next_use[p]))
                if plaintext is not None:
                    plan.append((plaintext,
                                 (2 * n if op.compact_pt else pt_words[level])
                                 * op.repeat, INPUTS, next_use[end - 2]))
                if keyswitch:
                    plan.append((op.hint_id, cost.hint_words, KSH,
                                 next_use[base + len(operands)]))
            mem_words = 0.0
            for obj, words, key, nu in plan:
                entry = residents.get(obj)
                if entry is not None:   # reuse: no traffic
                    if entry[1] != nu:
                        entry[1] = nu
                        heappush(heap, (-nu, entry[0], entry[2], obj))
                    continue
                traffic[key] += words
                moved = words
                # An operand larger than the register file streams
                # through: transient, never resident.
                if words <= capacity:
                    while used + words > capacity:
                        neg, _, s, name = heappop(heap)
                        victim = residents.get(name)
                        if victim is None or victim[2] != s \
                                or victim[1] != -neg:
                            continue
                        del residents[name]
                        used -= victim[0]
                        evictions += 1
                        if victim[3] and victim[1] != _INF:
                            store += victim[0]
                            moved += victim[0]
                    seq += 1
                    residents[obj] = [words, nu, seq, key == INTERM_LOAD]
                    heappush(heap, (-nu, words, seq, obj))
                    used += words
                    if used > peak:
                        peak = used
                mem_words += moved
            own_cycles = mem_words / words_per_cycle

            if kind == INPUT:
                mem_clock += own_cycles
            else:
                port_streams += cost.port_stream_elements
                network += cost.network_words
                mults += cost.scalar_mults
                adds += cost.scalar_adds
                kshgen += cost.kshgen_elements

                # Result allocation (produced on chip; traffic only if
                # evicted and reloaded later).  A resident of the same
                # name is released first, with no writeback: the new
                # value overwrites it.
                result = op.result
                words = (raised_words(n, level, op.digits)
                         if kind == HOIST_MODUP else ct_words[level])
                entry = residents.pop(result, None)
                if entry is not None:
                    used -= entry[0]
                if words <= capacity:
                    while used + words > capacity:
                        neg, _, s, name = heappop(heap)
                        victim = residents.get(name)
                        if victim is None or victim[2] != s \
                                or victim[1] != -neg:
                            continue
                        del residents[name]
                        used -= victim[0]
                        evictions += 1
                        if victim[3] and victim[1] != _INF:
                            store += victim[0]
                            mem_words += victim[0]
                            own_cycles += victim[0] / words_per_cycle
                    nu = next_use[end - 1]
                    seq += 1
                    residents[result] = [words, nu, seq, True]
                    heappush(heap, (-nu, words, seq, result))
                    used += words
                    if used > peak:
                        peak = used

                # Decoupled data orchestration: compute for op i starts
                # when the previous op is done and its own stream has
                # arrived; compute never runs ahead of the in-order
                # memory stream.
                mem_clock += own_cycles
                cycles = shape.cycles
                # Pipeline-fill latency is exposed only when this op
                # consumes the previous op's result (a true dependence
                # chain); independent ops overlap in the static schedule.
                chained = prev_result is not None and prev_result in operands
                if chained:
                    cycles += shape.latency
                prev_result = result
                compute_start = (comp_clock if comp_clock > mem_clock
                                 else mem_clock)
                stall = compute_start - comp_clock
                total_stall += stall
                comp_clock = compute_start + cycles
                fu_cycles = shape.fu_cycles
                for cls, busy in fu_cycles:
                    fu_busy[cls] = fu_busy.get(cls, 0.0) + busy

            # Free-on-last-use: a resident this op touched whose next
            # use is the inf sentinel is released now, so dead values
            # never occupy capacity or surface as Belady victims.  Only
            # what this op fetched or allocated had its next use set
            # here, so only those can be dead: the plan, then the result
            # (an INPUT's plan is its result).
            for obj, _, _, nu in plan:
                if nu == _INF:
                    entry = residents.get(obj)
                    if entry is not None and entry[1] == _INF:
                        del residents[obj]
                        used -= entry[0]
                        drops += 1
            if kind != INPUT and next_use[end - 1] == _INF:
                entry = residents.get(op.result)
                if entry is not None and entry[1] == _INF:
                    del residents[op.result]
                    used -= entry[0]
                    drops += 1

        total_evictions += evictions
        total_dead_drops += drops
        # The op's critical-path advance: its price.
        advance = (comp_clock if comp_clock > mem_clock
                   else mem_clock) - crit_before
        advances[i] = advance
        if advance:
            tag_cycles[op.tag] = tag_cycles.get(op.tag, 0.0) + advance
        if tr is not None:
            if chained and chaining:
                tr.count("sim.chain_hits")
            tr.emit_op(obs.OpEvent(
                index=i, kind=kind, result=op.result, level=level,
                tag=op.tag, cycles=advance,
                compute_start=compute_start, compute_cycles=cycles,
                mem_start=mem_before, mem_cycles=mem_clock - mem_before,
                stall_cycles=stall, mem_words=mem_words,
                evictions=evictions,
                fu_cycles=dict(fu_cycles),
                chip=chip,
            ))
            tr.count("sim.ops")
            tr.count(f"sim.ops.{kind}")
            if evictions:
                tr.count("sim.rf_evictions", evictions)
            if drops:
                tr.count("sim.dead_drops", drops)

    traffic[INTERM_STORE] = store

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
        scalar_mults=mults,
        scalar_adds=adds,
        kshgen_words=kshgen,
        network_words=network,
        clock_hz=cfg.clock_hz,
        bytes_per_word=cfg.bytes_per_word,
        fu_units={
            "ntt": cfg.ntt_units, "mul": cfg.mul_units,
            "add": cfg.add_units, "aut": cfg.aut_units,
            "crb": 1 if cfg.crb else 0,
            "kshgen": 1 if cfg.kshgen else 0,
        },
        port_stream_elements=port_streams,
        rf_capacity_words=cfg.register_file_words,
        peak_resident_words=peak,
        rf_evictions=total_evictions,
        dead_drops=total_dead_drops,
        stall_cycles=total_stall,
        tag_cycles=tag_cycles,
        program_cycles=program_cycles,
        serialized_cycles=serialized_cycles,
        overlap_hidden_cycles=overlap_hidden,
        link_port_cycles=link_port_cycles,
    ), advances
