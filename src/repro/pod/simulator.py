"""K-chip pod simulation layered over the single-chip simulator.

Every chip runs :func:`repro.core.simulator.simulate` on its shard, with
its link obligations charged through ``overlap_streams`` (so the chip's
traffic split includes the interconnect) and its op events tagged with
the chip index (so a pod trace renders as K parallel machines).

Two notions of cost come out of a pod run:

* ``batch_cycles`` - end-to-end latency of *one* batch.  Data-parallel:
  the slowest replica (they run concurrently), priced by its
  ``SimResult.serialized_cycles`` - the all-reduce merges the replicas'
  *outputs*, so nothing is left to hide it behind.  Model-parallel: the
  sum of *serialized* stage cycles - the first batch walks an empty
  pipeline, so nothing hides its transfers (fill latency).
* ``cycles_per_batch`` - steady-state cost per batch under load.
  Data-parallel: slowest replica / replica count (K batches in flight).
  Model-parallel: the slowest *overlapped* stage - with micro-batches
  streaming behind each other, every stage double-buffers its
  ``link_in`` / ``link_out`` behind compute (``overlap_streams``), so
  the pipeline beat is ``max(compute, comm)``-shaped.
  ``PodResult.pipeline_cycles(m)`` composes the two:
  ``batch_cycles + (m - 1) * cycles_per_batch`` for an m-batch run
  (fill/drain plus steady state).

``link_words`` reports, for both strategies, the words through all send
ports per batch: the all-reduce volume times the chip count
(data-parallel) or the sum of cut-edge words weighted by their ring hop
distance (model-parallel - a transfer relayed over h links occupies h
send ports).  ``payload_words`` is the hop-independent logical volume.

Failed chips (``failed_chips``) model degraded N-1 operation: the
survivors repartition the work - data-parallel shards widen to
``1/(K-1)`` of the batch, model-parallel stages are re-cut over the
survivor count - and both latency and throughput are recomputed from
scratch, which is exactly what the serving layer's degraded-capacity
admission consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.cache import CompileCache, compile_program
from repro.core.config import ChipConfig
from repro.core.cost import ciphertext_words
from repro.core.simulator import SimResult, simulate
from repro.ir import OUTPUT, Program
from repro.obs import collector as obs
from repro.pod.config import DATA_PARALLEL, PodConfig
from repro.pod.interconnect import LinkModel
from repro.pod.partition import Partition, partition
from repro.reliability.errors import ChipFailure, ConfigError


@dataclass
class PodResult:
    """Everything the evaluation needs from one simulated pod run."""

    name: str
    strategy: str
    chips: int                       # configured pod size
    alive: tuple[int, ...]           # chips that actually ran
    failed: tuple[int, ...]          # fail-stopped chips (degraded mode)
    chip_results: dict[int, SimResult]
    link_words: float                # words through all send ports, per batch
    batch_cycles: float              # one batch end-to-end (fill latency)
    cycles_per_batch: float          # steady-state per-batch cost
    clock_hz: float
    partition: Partition | None = field(default=None, repr=False)
    payload_words: float = 0.0       # logical cut volume (hop-independent)
    overlap_hidden_cycles: float = 0.0   # comm hidden behind compute
    serialized_cycles_per_batch: float = 0.0  # pre-overlap steady state

    @property
    def degraded(self) -> bool:
        return bool(self.failed)

    def pipeline_cycles(self, batches: int) -> float:
        """Micro-batched pipeline makespan: the first batch pays the
        fill latency, every batch behind it lands one steady-state beat
        later (fill/drain plus slowest-stage steady state)."""
        if batches <= 0:
            return 0.0
        return self.batch_cycles + (batches - 1) * self.cycles_per_batch

    @property
    def seconds_per_batch(self) -> float:
        return self.cycles_per_batch / self.clock_hz

    @property
    def batch_seconds(self) -> float:
        return self.batch_cycles / self.clock_hz

    def speedup(self, single: SimResult) -> float:
        """Throughput scaling vs one unsharded chip."""
        if not self.cycles_per_batch:
            return 0.0
        return single.cycles / self.cycles_per_batch


def _output_words(program: Program) -> float:
    n = program.degree
    return sum(ciphertext_words(n, op.level) for op in program.ops
               if op.kind == OUTPUT)


def stage_results(part: Partition, cfg: ChipConfig, pod: PodConfig,
                  alive: tuple[int, ...] | None = None,
                  cache: CompileCache | None = None) -> list[SimResult]:
    """Simulate every model-parallel shard with its boundary transfers
    double-buffered: each shard's ``link_in`` / ``link_out`` rides a
    per-direction port as an *overlap* stream (hop-weighted per-edge
    latency folded into the stream rate), so a stage's cycles are
    ``max(compute, comm)``-shaped while ``SimResult.serialized_cycles``
    keeps the pre-overlap charge for fill-latency accounting.  Returns
    results aligned with ``part.shards``; the min-cut gate prices
    candidate partitions with exactly this function, so gate verdicts
    and pod results can never disagree."""
    link = LinkModel(cfg, pod)
    k = len(part.shards)
    in_cycles = [0.0] * k
    out_cycles = [0.0] * k
    for e in part.edges:
        cycles = link.transfer_cycles(e.words, e.hops)
        out_cycles[e.src] += cycles
        in_cycles[e.dst] += cycles
    results: list[SimResult] = []
    for j, shard in enumerate(part.shards):
        overlap = {}
        if shard.cut_in_words and in_cycles[j]:
            overlap["link_in"] = (shard.cut_in_words,
                                  shard.cut_in_words / in_cycles[j])
        if shard.cut_out_words and out_cycles[j]:
            overlap["link_out"] = (shard.cut_out_words,
                                   shard.cut_out_words / out_cycles[j])
        shard_prog = shard.program
        if cache is not None:
            shard_prog = compile_program(shard_prog, cfg, cache=cache)
        results.append(simulate(
            shard_prog, cfg, overlap_streams=overlap or None,
            chip=alive[j] if alive is not None else j))
    return results


def simulate_pod(program: Program, cfg: ChipConfig, pod: PodConfig,
                 failed_chips=(),
                 cache: CompileCache | None = None) -> PodResult:
    """Run ``program`` on a ``pod`` of ``cfg`` chips; see module docstring.

    ``failed_chips`` names fail-stopped chips; their work is carried by
    the survivors (degraded N-1 operation).  Raises
    :class:`~repro.reliability.errors.ChipFailure` when no chip
    survives - a pod with zero chips has no degraded mode left.

    ``cache`` lowers what each chip runs (every model-parallel shard,
    or the data-parallel replica) through
    :func:`~repro.compiler.cache.compile_program` before simulating.
    """
    failed = tuple(sorted(set(failed_chips)))
    for c in failed:
        if not 0 <= c < pod.chips:
            raise ConfigError("failed chip index outside the pod",
                              chip=c, chips=pod.chips)
    alive = tuple(c for c in range(pod.chips) if c not in failed)
    if not alive:
        raise ChipFailure("every chip in the pod has failed",
                          chips=pod.chips, failed=failed)
    k = len(alive)
    link = LinkModel(cfg, pod)
    tr = obs.active()
    if tr is not None:
        tr.count("pod.simulations")
        if failed:
            tr.count("pod.degraded_simulations")

    if pod.strategy == DATA_PARALLEL:
        part = partition(program, cfg, pod, chips=k)
        # Mirrored replicas: per-batch link cost is the all-reduce that
        # merges the shard outputs (secure-aggregation style).
        out_words = _output_words(program)
        ar_words = link.all_reduce_words(out_words, k)
        ar_cycles = link.all_reduce_cycles(out_words, k)
        streams = None
        if ar_words:
            streams = {"link": (ar_words, ar_words / ar_cycles)}
        replica = (program if cache is None
                   else compile_program(program, cfg, cache=cache))
        chip_results: dict[int, SimResult] = {}
        shared: SimResult | None = None
        for c in alive:
            if tr is None and shared is not None:
                # Replicas are identical; without a collector there is
                # no per-chip event stream to distinguish them.
                chip_results[c] = shared
                continue
            shared = simulate(replica, cfg, overlap_streams=streams,
                              chip=c)
            chip_results[c] = shared
        slowest = max(r.serialized_cycles for r in chip_results.values())
        result = PodResult(
            name=program.name, strategy=pod.strategy, chips=pod.chips,
            alive=alive, failed=failed, chip_results=chip_results,
            link_words=ar_words * k, batch_cycles=slowest,
            cycles_per_batch=slowest / k, clock_hz=cfg.clock_hz,
            partition=part, payload_words=out_words if ar_words else 0.0,
            serialized_cycles_per_batch=slowest / k,
        )
    else:
        part = partition(program, cfg, pod, chips=k)
        # The min-cut gate already priced the winning partition through
        # stage_results; reuse its runs when nothing (tracing, the
        # compile cache) would change the outcome.
        results = part._gate_results
        if results is None or tr is not None or cache is not None:
            results = stage_results(part, cfg, pod, alive=alive,
                                    cache=cache)
        chip_results = {alive[j]: res for j, res in enumerate(results)}
        link_words = sum(e.words * e.hops for e in part.edges)
        payload_words = sum(e.words for e in part.edges)
        result = PodResult(
            name=program.name, strategy=pod.strategy, chips=pod.chips,
            alive=alive, failed=failed, chip_results=chip_results,
            link_words=link_words,
            batch_cycles=sum(r.serialized_cycles for r in results),
            cycles_per_batch=(max(r.cycles for r in results)
                              if results else 0.0),
            clock_hz=cfg.clock_hz, partition=part,
            payload_words=payload_words,
            overlap_hidden_cycles=sum(r.overlap_hidden_cycles
                                      for r in results),
            serialized_cycles_per_batch=(
                max(r.serialized_cycles for r in results)
                if results else 0.0),
        )

    if tr is not None:
        tr.count("pod.link_words", result.link_words)
        if result.payload_words:
            tr.count("pod.payload_words", result.payload_words)
        if result.overlap_hidden_cycles:
            tr.count("pod.overlap.hidden_cycles",
                     result.overlap_hidden_cycles)
            tr.count("pod.overlap.serialized_cycles",
                     result.serialized_cycles_per_batch)
    return result
