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
    # Fault-recovery budgets for the pod failure domains.
    link_retries: int = 3             # retransmits before escalating
    backoff_base_s: float = 1e-4      # retransmit backoff: base * factor**k
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25      # +- fraction, seeded
    checkpoint_rounds: int = 2        # pod checkpoint every k lock-step rounds
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
        if self.link_retries < 0:
            raise ConfigError("link_retries cannot be negative",
                              link_retries=self.link_retries)
        if self.backoff_base_s < 0 or self.backoff_factor < 1 \
                or not 0 <= self.backoff_jitter < 1:
            raise ConfigError(
                "pod backoff must have base >= 0, factor >= 1, jitter in "
                "[0, 1)", base=self.backoff_base_s,
                factor=self.backoff_factor, jitter=self.backoff_jitter)
        if self.checkpoint_rounds < 1:
            raise ConfigError("checkpoint_rounds must be >= 1",
                              checkpoint_rounds=self.checkpoint_rounds)

    # -- derived quantities --------------------------------------------------

    def link_words_per_cycle(self, chip: ChipConfig) -> float:
        """Link bandwidth in the chip's clock/word units (comparable to
        ``ChipConfig.hbm_words_per_cycle``)."""
        return self.link_gbps * 1e9 / chip.clock_hz / chip.bytes_per_word

    def backoff_ceiling_s(self) -> float:
        """Largest possible single retransmit backoff sleep."""
        if not self.link_retries:
            return 0.0
        worst = self.backoff_base_s \
            * self.backoff_factor ** (self.link_retries - 1)
        return worst * (1 + self.backoff_jitter)
