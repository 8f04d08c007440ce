"""Sharding a workload across pod chips.

Two strategies, mirroring the tf-encrypted distribution-strategies RFC:

* **data-parallel** (mirrored): every chip runs the complete program and
  serves ``1/K`` of the batch; the only cross-chip traffic is the
  all-reduce that merges per-shard outputs (secure-aggregation style).
* **model-parallel** (sharded): the op stream is cut into K contiguous
  stages, and every value that crosses a cut becomes a link transfer -
  priced with the simulator's register-file word sizes
  (``raised_words`` for hoisted digit objects, ``ciphertext_words``
  otherwise).  Two cutters compete per workload:
  the greedy cycle-weight balance (PR 8) and a boundary-search balanced
  *min-cut* that binary-searches the pipeline bottleneck under the
  overlap cost model, trading stage weight against the live words at
  each boundary.  Like every other simulator-gated pass, both
  candidates are priced through the real simulator (under
  ``obs.paused()``) and the cheaper steady state wins - the min-cut can
  never pessimize a workload (``compiler.mincut.*`` counters record the
  verdicts).

Cut edges are *stitched*: the producer shard gains an ``OUTPUT`` op (the
value leaves the chip) and the consumer shard an ``INPUT`` op (it
arrives from the link), so every shard program passes
``validate_program`` and simulates standalone.  Stitched ops are
recorded on the shard (``stitched_inputs`` / ``stitched_outputs``) and
excluded from ``op_indices``, which keeps the conservation invariant
checkable: the shards' ``op_indices`` are a disjoint cover of the source
program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ChipConfig
from repro.core.cost import CostTable, ciphertext_words, raised_words
from repro.interpret import fused_pmults
from repro.ir import HOIST_MODUP, INPUT, OUTPUT, HomOp, Program
from repro.obs import collector as obs
from repro.pod.config import DATA_PARALLEL, MODEL_PARALLEL, PodConfig
from repro.pod.interconnect import LinkModel


@dataclass(frozen=True)
class CutEdge:
    """One value crossing a shard boundary (a link transfer per batch)."""

    value: str
    src: int            # producing chip (shard index)
    dst: int            # consuming chip
    words: float        # transfer size (register-file words)
    hops: int = 1       # bidirectional-ring distance src -> dst


@dataclass
class Shard:
    """One chip's slice of the workload."""

    chip: int
    program: Program
    op_indices: tuple[int, ...]          # indices into the source program
    batch_share: float = 1.0             # fraction of the batch served here
    cut_in_words: float = 0.0            # words arriving over the link
    cut_out_words: float = 0.0           # words leaving over the link
    stitched_inputs: tuple[str, ...] = ()
    stitched_outputs: tuple[str, ...] = ()


@dataclass
class Partition:
    """The full sharding decision for one (program, pod) pairing."""

    strategy: str
    shards: list[Shard]
    edges: list[CutEdge] = field(default_factory=list)
    # Stage SimResults from the min-cut gate's pricing runs, aligned
    # with ``shards``; ``simulate_pod`` reuses them when no collector,
    # cache, or checkpointing would change the outcome.
    _gate_results: list | None = field(default=None, repr=False,
                                       compare=False)

    @property
    def chips(self) -> int:
        return len(self.shards)


def _value_words(n: int, op: HomOp) -> float:
    """Link-transfer size of ``op``'s result - the words it occupies
    in the register file."""
    if op.kind == HOIST_MODUP:
        return raised_words(n, op.level, op.digits)
    return ciphertext_words(n, op.level)


def _op_weights(program: Program, cfg: ChipConfig) -> list[float]:
    """Balance weight of each op in cycles: FU time for compute ops,
    stream time for memory-only INPUT/OUTPUT ops."""
    n = program.degree
    costs = CostTable(cfg, n)
    return [ciphertext_words(n, op.level) / cfg.hbm_words_per_cycle
            if op.kind in (INPUT, OUTPUT) else costs[op].cycles
            for op in program.ops]


def _uncuttable(ops: list[HomOp]) -> list[bool]:
    """``uncuttable[b]``: no shard boundary may sit before op ``b``.  It
    would cut nothing (``b == 0``) or split ops that only run together:
    a ``hoist_modup`` and its rotations (raised digits are an on-chip
    format, not wire data), or a pmult and the rescale the functional
    interpreter fuses with it (:func:`repro.interpret.fused_pmults`)."""
    fused = fused_pmults(ops)
    return [b == 0 or (b < len(ops) and (ops[b - 1].kind == HOIST_MODUP
                                         or fused[b - 1]))
            for b in range(len(ops) + 1)]


def _cut_points(program: Program, weights: list[float],
                uncuttable: list[bool], chips: int) -> list[int]:
    """Boundaries of ``chips`` contiguous chunks, balanced by the
    :func:`_op_weights` cycle ``weights``, never at an ``uncuttable``
    (:func:`_uncuttable`) boundary."""
    ops = program.ops
    total = sum(weights)
    bounds: list[int] = []
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        k = len(bounds) + 1
        if k >= chips or i + 1 >= len(ops):
            continue
        if acc >= total * k / chips:
            b = i + 1
            while b < len(ops) and uncuttable[b]:
                b += 1
            if b < len(ops) and (not bounds or b > bounds[-1]):
                bounds.append(b)
    return bounds


def _mincut_points(program: Program, weights: list[float],
                   uncuttable: list[bool], cfg: ChipConfig, pod: PodConfig,
                   chips: int) -> list[int]:
    """Balanced min-cut boundaries under the overlap cost model, over
    the :func:`_op_weights` cycle ``weights``.

    Binary-searches the pipeline bottleneck T: a stage ``[s, e)`` is
    feasible at T when its estimated overlapped cost -
    ``max(weight + boundary crossings, comm(s), comm(e))``, with
    ``comm(b)`` the link time of the live words at boundary ``b`` -
    stays under T.  Each probe places boundaries greedily
    farthest-feasible (vectorized over candidate boundaries), never at
    an ``uncuttable`` (:func:`_uncuttable`) one.  The result is a
    heuristic, not a proof: the simulator gate in :func:`partition` has
    the final word.
    """
    ops = program.ops
    n = program.degree
    n_ops = len(ops)
    if chips <= 1 or n_ops < 2:
        return []
    prefix = np.zeros(n_ops + 1)
    np.cumsum(np.array(weights, dtype=float), out=prefix[1:])

    # Live words at each boundary b (cut between ops b-1 and b): every
    # value produced before b with a consumer at or after b, via a
    # diff-array over the (producer, last consumer] index interval.
    last_use: dict[str, int] = {}
    for i, op in enumerate(ops):
        for operand in op.operands:
            last_use[operand] = i
    diff = np.zeros(n_ops + 2)
    for p, op in enumerate(ops):
        if op.kind == OUTPUT:
            continue
        last = last_use.get(op.result, -1)
        if last <= p:
            continue
        w = _value_words(n, op)
        diff[p + 1] += w
        diff[last + 1] -= w
    live = np.cumsum(diff[:n_ops + 1])
    live[0] = 0.0
    live[n_ops] = 0.0

    link_wpc = pod.link_words_per_cycle(cfg)
    lat = pod.link_latency_cycles
    comm = np.where(live > 0, lat + live / link_wpc, 0.0)
    cross = live / cfg.hbm_words_per_cycle  # memory-system crossing
    value = prefix + cross                  # stage-cost numerator at e
    safe = ~np.array(uncuttable)

    def place(target: float) -> list[int] | None:
        """Greedy farthest-feasible boundaries for bottleneck ``target``;
        None when some stage cannot stay under it."""
        bounds: list[int] = []
        s = 0
        while len(bounds) < chips - 1:
            budget = target + prefix[s] - cross[s]
            lo = s + 1
            ok = safe[lo:] & (value[lo:] <= budget) & (comm[lo:] <= target)
            idx = np.nonzero(ok)[0]
            if idx.size == 0:
                return None
            e = lo + int(idx[-1])
            if e == n_ops:
                return bounds    # the rest fits in this stage
            bounds.append(e)
            s = e
        if prefix[n_ops] - prefix[s] + cross[s] > target \
                or comm[s] > target:
            return None
        return bounds

    hi = float(prefix[n_ops])
    best = place(hi)             # one stage always fits: never None
    lo_t = 0.0
    for _ in range(48):
        mid = (lo_t + hi) / 2.0
        bounds = place(mid)
        if bounds is None:
            lo_t = mid
        else:
            best, hi = bounds, mid
    return best


def partition(program: Program, cfg: ChipConfig, pod: PodConfig,
              chips: int | None = None) -> Partition:
    """Shard ``program`` across ``chips`` chips (default: the pod's
    full complement; pass the survivor count for degraded N-1 plans)."""
    k = pod.chips if chips is None else chips
    if pod.strategy == DATA_PARALLEL:
        return _partition_data(program, k)
    return _gate_model(program, cfg, pod, k)


def _gate_model(program: Program, cfg: ChipConfig, pod: PodConfig,
                chips: int) -> Partition:
    """Race the greedy balance against the min-cut under the real
    simulator (overlap streams armed, tracing paused) and keep the
    cheaper steady state - the min-cut never pessimizes a workload."""
    weights = _op_weights(program, cfg)
    uncuttable = _uncuttable(program.ops)
    greedy_bounds = _cut_points(program, weights, uncuttable, chips)
    greedy = _partition_model(program, cfg, pod, chips, greedy_bounds)
    if chips <= 1 or len(program.ops) < 2:
        return greedy
    tr = obs.active()
    if tr is not None:
        tr.count("compiler.mincut.considered")
    mincut_bounds = _mincut_points(program, weights, uncuttable, cfg, pod,
                                   chips)
    if mincut_bounds == greedy_bounds:
        if tr is not None:
            tr.count("compiler.mincut.rejected")
        return greedy
    mincut = _partition_model(program, cfg, pod, chips, mincut_bounds)

    from repro.pod.simulator import stage_results

    with obs.paused():
        greedy_res = stage_results(greedy, cfg, pod)
        mincut_res = stage_results(mincut, cfg, pod)

    def cost(results):
        # Steady-state bottleneck first, fill latency as the tiebreak.
        return (max(r.cycles for r in results),
                sum(r.serialized_cycles for r in results))

    greedy_cost, mincut_cost = cost(greedy_res), cost(mincut_res)
    if mincut_cost < greedy_cost:
        if tr is not None:
            tr.count("compiler.mincut.applied")
            tr.count("compiler.mincut.cycles_saved",
                     greedy_cost[0] - mincut_cost[0])
            saved = sum(e.words * e.hops for e in greedy.edges) \
                - sum(e.words * e.hops for e in mincut.edges)
            if saved > 0:
                tr.count("compiler.mincut.cut_words_saved", saved)
        mincut._gate_results = mincut_res
        return mincut
    if tr is not None:
        tr.count("compiler.mincut.rejected")
    greedy._gate_results = greedy_res
    return greedy


def _partition_data(program: Program, chips: int) -> Partition:
    all_indices = tuple(range(len(program.ops)))
    shards = [
        Shard(chip=c, program=program, op_indices=all_indices,
              batch_share=1.0 / chips)
        for c in range(chips)
    ]
    return Partition(strategy=DATA_PARALLEL, shards=shards)


def _partition_model(program: Program, cfg: ChipConfig, pod: PodConfig,
                     chips: int, bounds: list[int]) -> Partition:
    ops = program.ops
    n = program.degree
    starts = [0, *bounds]
    ends = [*bounds, len(ops)]
    chunks = [tuple(range(s, e)) for s, e in zip(starts, ends)]
    chunks += [()] * (chips - len(chunks))  # tiny programs: idle chips

    chunk_of: dict[str, int] = {}  # producing chunk of each value
    for c, idx in enumerate(chunks):
        for i in idx:
            if ops[i].kind != OUTPUT:
                chunk_of[ops[i].result] = c

    producer_op = {op.result: op for op in ops if op.kind != OUTPUT}
    edges: list[CutEdge] = []
    shards: list[Shard] = []
    # (src, value) pairs already stitched with an OUTPUT, so a value
    # consumed by several later shards leaves its producer only once
    # (the per-consumer link legs stay separate edges).
    emitted: set[tuple[int, str]] = set()

    for c, idx in enumerate(chunks):
        chunk_ops = [ops[i] for i in idx]
        needed: list[str] = []  # cross-shard operands, first-use order
        for op in chunk_ops:
            for operand in op.operands:
                src = chunk_of.get(operand)
                if src is not None and src != c and operand not in needed:
                    needed.append(operand)

        stitched_in: list[HomOp] = []
        in_words = 0.0
        for value in needed:
            p = producer_op[value]
            words = _value_words(n, p)
            stitched_in.append(HomOp(
                kind=INPUT, level=p.level, result=value, tag="pod-cut",
            ))
            in_words += words
            src = chunk_of[value]
            edges.append(CutEdge(
                value=value, src=src, dst=c, words=words,
                hops=LinkModel.ring_hops(src, c, chips)))

        shards.append(Shard(
            chip=c,
            program=Program(
                name=f"{program.name}@chip{c}/{chips}",
                degree=program.degree, max_level=program.max_level,
                ops=[*stitched_in, *chunk_ops],
            ),
            op_indices=idx,
            cut_in_words=in_words,
            stitched_inputs=tuple(needed),
        ))

    # Producer-side stitching: every edge's value leaves its shard as an
    # OUTPUT (charged once per value, transferred once per consumer).
    for e in edges:
        shard = shards[e.src]
        shard.cut_out_words += e.words
        if (e.src, e.value) not in emitted:
            emitted.add((e.src, e.value))
            p = producer_op[e.value]
            shard.program.append(HomOp(
                kind=OUTPUT, level=p.level,
                result=f"podout_{e.value}", operands=(e.value,),
                tag="pod-cut",
            ))
            shard.stitched_outputs += (e.value,)

    return Partition(strategy=MODEL_PARALLEL, shards=shards, edges=edges)
