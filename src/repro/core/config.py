"""Chip configurations: CraterLake, its ablations, and scaled variants.

All Sec. 7 implementation parameters live here, as do the feature flags the
Table 4 ablation study toggles and the N=128K variant of Sec. 9.4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.reliability.errors import ConfigError


@dataclass(frozen=True)
class ChipConfig:
    """Static description of a CraterLake-style chip.

    The defaults are the paper's configuration (Sec. 7): 2,048 lanes in 8
    groups at 1 GHz, a 256 MB single-level register file with 12 effective
    ports, 2 HBM2E PHYs at 512 GB/s each, and the FU mix of Fig. 5
    (1 CRB, 2 NTT, 1 automorphism, 1 KSHGen, 5 multipliers, 5 adders).
    """

    name: str = "CraterLake"
    lanes: int = 2048                 # E
    lane_groups: int = 8              # G
    clock_ghz: float = 1.0
    register_file_mb: float = 256.0
    rf_ports: int = 12                # effective R/W ports (element-partitioned)
    rf_port_width: int | None = None  # elements per port; None = full width
    hbm_phys: int = 2
    hbm_gbps_per_phy: float = 512.0
    bytes_per_word: float = 3.5       # 28-bit residues, packed
    ntt_units: int = 2
    mul_units: int = 5
    add_units: int = 5
    aut_units: int = 1
    crb_pipelines: int = 60           # CRB sized for Lmax=60 (Sec. 5.1)
    max_degree: int = 65536           # largest native vector length N
    # Transpose network: total bandwidth 4E words/cycle (Sec. 4.2).
    network_words_per_cycle_factor: int = 4
    # Fraction of peak the network sustains on FHE's all-to-all patterns:
    # the fixed permutation network achieves peak by construction; a
    # switched crossbar suffers arbitration/congestion losses.
    network_efficiency: float = 1.0

    # Pipeline latency: a chained FU pipeline's fill time per dependent
    # op.  CraterLake dedicates the whole chip to one homomorphic op at a
    # time (Sec. 4.3), so dependent-op latency is exposed; multicore
    # designs like F1+ overlap independent ops instead (serial_execution
    # False) at the price of extra operand footprint.
    fu_stage_latency: int = 150
    serial_execution: bool = True

    # Feature flags (Table 4 ablations + Sec. 9.4 variant)
    kshgen: bool = True               # generate half of each KSH on the fly
    crb: bool = True                  # CRB unit present
    chaining: bool = True             # vector chaining of FU pipelines
    fixed_network: bool = True        # False: F1-style crossbar + residue tiling

    def __post_init__(self):
        if self.lane_groups < 1:
            raise ConfigError("need at least one lane group",
                              lane_groups=self.lane_groups)
        if self.lanes % self.lane_groups:
            raise ConfigError("lanes must divide evenly into lane groups",
                              lanes=self.lanes, lane_groups=self.lane_groups)
        if self.max_degree & (self.max_degree - 1):
            raise ConfigError("max_degree must be a power of two",
                              max_degree=self.max_degree)
        if self.lanes & (self.lanes - 1):
            raise ConfigError("lanes must be a power of two",
                              lanes=self.lanes)
        if self.clock_ghz <= 0:
            raise ConfigError("clock must be positive",
                              clock_ghz=self.clock_ghz)
        if self.hbm_phys < 1 or self.hbm_gbps_per_phy <= 0:
            raise ConfigError(
                "config has no HBM bandwidth; nothing can stream",
                hbm_phys=self.hbm_phys,
                gbps_per_phy=self.hbm_gbps_per_phy,
            )
        if self.register_file_mb <= 0:
            raise ConfigError("register file must have positive capacity",
                              register_file_mb=self.register_file_mb)
        if self.rf_ports < 1:
            raise ConfigError("register file needs at least one port",
                              rf_ports=self.rf_ports)
        if self.bytes_per_word <= 0:
            raise ConfigError("bytes_per_word must be positive",
                              bytes_per_word=self.bytes_per_word)
        for attr in ("ntt_units", "mul_units", "add_units", "aut_units",
                     "crb_pipelines"):
            if getattr(self, attr) < 1:
                raise ConfigError(f"{attr} must be >= 1",
                                  **{attr: getattr(self, attr)})

    # -- derived quantities --------------------------------------------------

    @property
    def group_lanes(self) -> int:
        """Lanes per group (E_G = 256 in the paper)."""
        return self.lanes // self.lane_groups

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def hbm_bytes_per_cycle(self) -> float:
        total_gbps = self.hbm_phys * self.hbm_gbps_per_phy
        return total_gbps * 1e9 / self.clock_hz

    @property
    def hbm_words_per_cycle(self) -> float:
        return self.hbm_bytes_per_cycle / self.bytes_per_word

    @property
    def register_file_words(self) -> int:
        return int(self.register_file_mb * 2**20 / self.bytes_per_word)

    @property
    def network_words_per_cycle(self) -> float:
        """Sustained inter-lane-group bandwidth (peak 4E words/cycle =
        29 TB/s for CraterLake, Sec. 4.3)."""
        return (self.network_words_per_cycle_factor * self.lanes
                * self.network_efficiency)

    def passes(self, degree: int) -> int:
        """Cycles for one residue polynomial to stream through an FU."""
        return max(1, degree // self.lanes)

    # -- named configurations -------------------------------------------------

    @classmethod
    def craterlake(cls, **overrides) -> "ChipConfig":
        return cls(**overrides)

    @classmethod
    def craterlake_128k(cls) -> "ChipConfig":
        """Sec. 9.4: native N=128K support (CRB buffers doubled, extra NTT
        butterfly stage); ~27.4 mm^2 of additional area."""
        return cls(name="CraterLake-128K", max_degree=131072)

    def without_kshgen(self) -> "ChipConfig":
        """Table 4 'KSHGen' column: full hints stored in and fetched from
        memory."""
        return replace(self, name=f"{self.name}-noKSHGen", kshgen=False)

    def without_crb_chaining(self) -> "ChipConfig":
        """Table 4 'CRB/chain' column: changeRNSBase runs on the plain
        mul/add FUs through the register file, bounded by its ports."""
        return replace(
            self, name=f"{self.name}-noCRB", crb=False, chaining=False
        )

    def with_crossbar_network(self) -> "ChipConfig":
        """Table 4 'Network' column: F1+'s crossbar and residue-polynomial
        tiling.  The tiling moves 2.4x more words per homomorphic op
        (Sec. 4.3); the crossbar has 2x the peak bandwidth (57 TB/s, at
        16x the area) but sustains well under peak on all-to-all
        patterns."""
        return replace(
            self, name=f"{self.name}-crossbar", fixed_network=False,
            network_words_per_cycle_factor=8, network_efficiency=0.55,
        )

    def with_register_file(self, megabytes: float) -> "ChipConfig":
        """Fig. 11's on-chip storage sweep."""
        return replace(
            self, name=f"{self.name}-{megabytes:g}MB",
            register_file_mb=megabytes,
        )


# Traffic multiplier of residue-polynomial tiling vs CraterLake's
# polynomial tiling (Sec. 4.3: "incurs over 2.4x more traffic").
CROSSBAR_TRAFFIC_FACTOR = 2.4
