"""The ciphertext-size tradeoff of Fig. 3 (Sec. 2.3).

For a deep program, the maximum ciphertext size (equivalently L_max) sets
how often bootstrapping runs: bigger ciphertexts buy more usable levels per
refresh, but every operation - bootstrapping included - gets more expensive
with size.  Fig. 3 plots total cost per homomorphic multiply against max
ciphertext size for the two synthetic extremes (a serial multiplication
chain and a 100-wide multiply graph) and finds the optimum in a narrow
20-26 MB band; the paper sizes CraterLake for exactly that band.

Cost here is the paper's y-axis metric, scalar multiplies per homomorphic
multiply, read from the same emitted ops and :class:`~repro.core.cost.
CostTable` as Table 3.  Each point prices one steady-state refresh region
of :mod:`repro.workloads.synthetic`'s programs: the ops a 3-region program
emits beyond a 2-region one, i.e. one bootstrap plus the (usable - 1)
multiply steps it feeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ChipConfig
from repro.core.cost import CostTable
from repro.fhe.security import ciphertext_megabytes
from repro.ir import Program
from repro.workloads.synthetic import (
    _plan_for_max_level,
    multiplication_chain,
    wide_multiply_graph,
)


@dataclass(frozen=True)
class CiphertextSizePoint:
    max_level: int
    ciphertext_mb: float
    usable_levels: int
    mults_per_op_chain: float    # serial chain, one refresh region
    mults_per_op_wide: float     # wide graph, one refresh region


def _scalar_mults(program: Program, table: CostTable) -> float:
    return sum(table[op].cost.scalar_mults for op in program.ops)


def _region_mults(two: Program, three: Program, table: CostTable) -> float:
    """Scalar multiplies of one refresh region: a 3-region program's ops
    minus a 2-region one's."""
    return _scalar_mults(three, table) - _scalar_mults(two, table)


def ciphertext_size_sweep(levels=None, degree: int = 65536,
                          security: int = 80, wide_width: int = 100):
    """Fig. 3's x-sweep: cost per multiply vs maximum ciphertext size."""
    if levels is None:
        levels = [28, 34, 40, 46, 52, 57, 60]
    table = CostTable(ChipConfig(), degree)
    points = []
    for max_level in levels:
        try:
            usable = _plan_for_max_level(security, degree,
                                         max_level).usable_levels
        except ValueError:
            continue  # too small to host packed bootstrapping
        if usable < 2:
            continue  # no multiply between refreshes to amortize over
        # Refreshes land where a value reaches level 1, so a region holds
        # `steps` multiply steps (one multiply, or one layer of
        # `wide_width` multiplies) and one bootstrap.
        steps = usable - 1
        kw = dict(max_level=max_level, security=security, degree=degree)
        chain = _region_mults(
            *(multiplication_chain(total_mults=k * steps, **kw)
              for k in (2, 3)), table)
        wide = _region_mults(
            *(wide_multiply_graph(levels=k * steps, width=wide_width, **kw)
              for k in (2, 3)), table)
        points.append(CiphertextSizePoint(
            max_level=max_level,
            ciphertext_mb=ciphertext_megabytes(degree, max_level),
            usable_levels=usable,
            mults_per_op_chain=chain / steps,
            mults_per_op_wide=wide / (steps * wide_width),
        ))
    return points


def optimal_point(points, metric: str) -> "CiphertextSizePoint":
    """The sweep point minimizing ``metric`` (Fig. 3's black dots)."""
    return min(points, key=lambda p: getattr(p, metric))
