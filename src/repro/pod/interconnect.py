"""Interconnect cost model: links, transfers, and ring all-reduce.

The pod's chips sit on a bidirectional ring (chip ``c`` links to
``(c+1) % K``).  Costs are expressed in chip cycles so they compose
directly with :class:`~repro.core.simulator.SimResult`:

* a point-to-point transfer of ``w`` words costs
  ``latency + w / link_words_per_cycle`` per hop;
* a ring all-reduce of a ``w``-word object over ``k`` chips is the
  classic 2(k-1)-step schedule - each chip sends ``w/k``-word segments
  per step, moving ``2 * (k-1)/k * w`` words through each chip's send
  port in total (bandwidth-optimal; the reduce-scatter + all-gather
  decomposition the distribution-strategies RFC sketches).

The cycle helpers convert a chip's link obligations into stream entries
for :func:`repro.core.simulator.simulate`'s ``overlap_streams``: each
direction of the link is its own *double-buffered port* running
concurrently with compute (``link_in`` / ``link_out`` are separate
streams, full duplex), which is what lets a pipelined stage cost
``max(compute, comm)`` instead of ``compute + comm``.  The same run's
``serialized_cycles`` is the link charged serialized onto the chip's
memory clock at the link's (much slower) rate - the price of the
data-parallel all-reduce, which nothing hides; see docs/POD.md
"Overlap & pipelining".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ChipConfig
from repro.pod.config import PodConfig


@dataclass(frozen=True)
class LinkModel:
    """Per-chip link cost helper bound to one (chip, pod) pairing."""

    chip: ChipConfig
    pod: PodConfig

    @property
    def words_per_cycle(self) -> float:
        return self.pod.link_words_per_cycle(self.chip)

    @staticmethod
    def ring_hops(src: int, dst: int, k: int) -> int:
        """Hops between chips ``src`` and ``dst`` on a bidirectional
        ``k``-ring: the shorter way around, so the last-to-first
        wraparound leg (e.g. ``0 -> 7`` on 8 chips) is one hop, not
        ``k - 1``."""
        if k <= 1:
            return 0
        d = (dst - src) % k
        return min(d, k - d)

    def transfer_cycles(self, words: float, hops: int = 1) -> float:
        """One point-to-point transfer, ``hops`` ring hops away."""
        if words <= 0:
            return 0.0
        return hops * self.pod.link_latency_cycles \
            + words / self.words_per_cycle

    def all_reduce_words(self, words: float, k: int) -> float:
        """Words through *each* chip's send port for one ring all-reduce
        of a ``words``-word object over ``k`` participants."""
        if k <= 1 or words <= 0:
            return 0.0
        return 2.0 * (k - 1) / k * words

    def all_reduce_cycles(self, words: float, k: int) -> float:
        """End-to-end cycles of one ring all-reduce over ``k`` chips."""
        if k <= 1 or words <= 0:
            return 0.0
        steps = 2 * (k - 1)
        return steps * self.pod.link_latency_cycles \
            + self.all_reduce_words(words, k) / self.words_per_cycle
