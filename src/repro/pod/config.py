"""Pod topology and interconnect knobs.

A *pod* is K CraterLake chips behind one serving front door, connected
by point-to-point links in a ring (the all-reduce topology the
tf-encrypted distribution-strategies RFC assumes for its mirrored
variables).  The chips themselves are described by the existing
:class:`~repro.core.config.ChipConfig`; this module adds only what the
pod layer introduces - chip count, link bandwidth/latency, the sharding
strategy, and the fault-recovery budgets for the two pod-level failure
domains (chip fail-stop, link corruption).

The link is deliberately far slower than HBM (100 GB/s per direction vs
1 TB/s of HBM per chip, a NVLink-class : HBM2E-class ratio): the whole
point of the pod study is finding where the interconnect kills scaling,
as F1+'s all-to-all did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ChipConfig
from repro.reliability.errors import ConfigError

DATA_PARALLEL = "data"
MODEL_PARALLEL = "model"
STRATEGIES = (DATA_PARALLEL, MODEL_PARALLEL)

# Fault-recovery budgets for the pod failure domains.
LINK_RETRIES = 3        # retransmits of a corrupted transfer before escalating
CHECKPOINT_STEPS = 2    # a chip checkpoints every k of its own steps


@dataclass(frozen=True)
class PodConfig:
    """Static description of a K-chip pod.

    ``link_gbps`` is per direction per link; a chip can send and receive
    simultaneously (full duplex), but all of a chip's traffic to every
    neighbor shares the one sending port, which is what serializes ring
    all-reduce steps.
    """

    chips: int = 4
    link_gbps: float = 100.0          # per direction, per link
    link_latency_cycles: float = 500.0  # per-hop fixed cost (SerDes + route)
    strategy: str = DATA_PARALLEL
    seed: int = 2022

    def __post_init__(self):
        if self.chips < 1:
            raise ConfigError("a pod needs at least one chip",
                              chips=self.chips)
        if self.link_gbps <= 0:
            raise ConfigError("link bandwidth must be positive",
                              link_gbps=self.link_gbps)
        if self.link_latency_cycles < 0:
            raise ConfigError("link latency cannot be negative",
                              link_latency_cycles=self.link_latency_cycles)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown pod strategy {self.strategy!r}",
                              known=STRATEGIES)

    # -- derived quantities --------------------------------------------------

    def link_words_per_cycle(self, chip: ChipConfig) -> float:
        """Link bandwidth in the chip's clock/word units (comparable to
        ``ChipConfig.hbm_words_per_cycle``)."""
        return self.link_gbps * 1e9 / chip.clock_hz / chip.bytes_per_word
