"""K-chip pod simulation: sharding, interconnect, and fault tolerance.

The paper's CraterLake is one 2,048-lane chip; production traffic needs
more.  This package layers a pod over the single-chip stack:

* :mod:`repro.pod.config` - pod topology and link/recovery knobs;
* :mod:`repro.pod.partition` - data-parallel batch sharding and the
  model-parallel graph cut (greedy balance raced against a min-cut);
* :mod:`repro.pod.interconnect` - link/transfer/all-reduce cost model;
* :mod:`repro.pod.simulator` - per-chip cycle simulation with link
  streams, degraded N-1 repartitioning, and pod-level throughput;
* :mod:`repro.pod.coordinator` - functional (real CKKS) dataflow
  execution of a partition's shards, surviving chip fail-stop and link
  corruption;
* :mod:`repro.pod.campaign` - the seeded chip/link fault campaign over
  a partitioned serving program (``python -m repro.pod --campaign``);
* :mod:`repro.pod.scaling` - the 1/2/4/8-chip throughput study.

See docs/POD.md for the architecture tour.
"""

from repro.pod.config import (
    DATA_PARALLEL,
    MODEL_PARALLEL,
    STRATEGIES,
    PodConfig,
)
from repro.pod.coordinator import PodExecutor, PodStats
from repro.pod.interconnect import LinkModel
from repro.pod.partition import CutEdge, Partition, Shard, partition
from repro.pod.simulator import PodResult, simulate_pod

__all__ = [
    "DATA_PARALLEL",
    "MODEL_PARALLEL",
    "STRATEGIES",
    "CutEdge",
    "LinkModel",
    "Partition",
    "PodConfig",
    "PodExecutor",
    "PodResult",
    "PodStats",
    "Shard",
    "partition",
    "simulate_pod",
]
