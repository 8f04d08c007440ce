"""Functional model of the two-level distributed transpose (Sec. 5.3, Fig. 7).

NTTs and automorphisms are the only operations with dependencies across
vector elements; F1 showed they reduce to transposes of an EG x EG matrix.
CraterLake distributes that matrix's rows round-robin across its G lane
groups and decomposes the transpose into

1. a *local* block-level transpose inside every lane group (each group
   holds one row of every G x G block), and
2. a *fixed permutation* exchange between groups (group i sends to group j
   exactly the j-th columns of its 1 x G sub-blocks) - wires and registers
   only, no switches.

This module executes both steps explicitly on numpy data so the
decomposition can be verified against a plain matrix transpose, and counts
the words each step moves (the 4E words/cycle budget of Sec. 4.2).  The
functional CKKS layer computes its NTT with the same four-step
decomposition (:class:`repro.fhe.ntt.BatchedNttContext`; see
docs/PERFORMANCE.md, "Four-step NTT").
"""

from __future__ import annotations

import numpy as np
from repro.reliability.errors import ConfigError, ParameterError


class TransposeNetwork:
    """A G-lane-group transpose engine for EG x EG matrices."""

    def __init__(self, group_width: int, groups: int):
        if group_width % groups:
            raise ConfigError("group width must be divisible by group count")
        self.eg = group_width     # E_G: matrix dimension (= lanes per group)
        self.g = groups

    # -- data distribution --------------------------------------------------

    def distribute(self, matrix: np.ndarray) -> list[np.ndarray]:
        """Round-robin rows across lane groups (Fig. 7, step 0)."""
        matrix = np.asarray(matrix)
        if matrix.shape != (self.eg, self.eg):
            raise ParameterError(f"matrix must be {self.eg}x{self.eg}")
        return [matrix[i::self.g].copy() for i in range(self.g)]

    def collect(self, shards: list[np.ndarray]) -> np.ndarray:
        out = np.empty((self.eg, self.eg), dtype=shards[0].dtype)
        for i, shard in enumerate(shards):
            out[i::self.g] = shard
        return out

    # -- the two steps --------------------------------------------------------

    def local_block_transpose(self, shard: np.ndarray) -> np.ndarray:
        """Step 1: transpose the (EG/G x EG/G) *block matrix* locally.

        A shard holds rows (i, i+G, i+2G, ...): one row of every G x G
        block.  Viewing it as an (EG/G) x (EG/G) grid of 1 x G sub-blocks,
        this permutes the sub-blocks like a matrix transpose - entirely
        within the lane group (F1-style transpose unit).
        """
        rows, cols = shard.shape
        blocks_per_side = self.eg // self.g
        grid = shard.reshape(blocks_per_side, blocks_per_side, self.g)
        return grid.transpose(1, 0, 2).reshape(rows, cols)

    def fixed_permutation_exchange(self, shards: list[np.ndarray]):
        """Step 2: transpose all G x G blocks via the fixed permutation.

        Group i holds row i of each block and must end holding column i.
        The exchange is static: group i sends element column j (of every
        sub-block) to group j.  Returns (new_shards, words_moved), where
        words_moved counts elements that crossed between distinct groups.
        """
        blocks_per_side = self.eg // self.g
        out = [np.empty_like(s) for s in shards]
        moved = 0
        for i, shard in enumerate(shards):
            grid = shard.reshape(blocks_per_side, blocks_per_side, self.g)
            for j in range(self.g):
                # Element j of every sub-block travels from group i to j.
                out[j].reshape(blocks_per_side, blocks_per_side, self.g)[
                    :, :, i] = grid[:, :, j]
                if i != j:
                    moved += blocks_per_side * blocks_per_side
        return out, moved

    # -- end-to-end ------------------------------------------------------------

    def transpose(self, matrix: np.ndarray):
        """Full two-level transpose; returns (matrix^T, words exchanged)."""
        shards = self.distribute(matrix)
        shards = [self.local_block_transpose(s) for s in shards]
        shards, moved = self.fixed_permutation_exchange(shards)
        return self.collect(shards), moved

    def exchange_words(self) -> int:
        """Words crossing lane groups per transpose: N * (G-1)/G."""
        return self.eg * self.eg * (self.g - 1) // self.g

    def permutation_map(self) -> dict[tuple[int, int], tuple[int, int]]:
        """The static wiring: (src group, lane slot) -> (dst group, slot).

        Having no dependence on data or configuration is what lets the
        hardware realize it with wires and pipeline registers alone.
        """
        blocks_per_side = self.eg // self.g
        mapping = {}
        for i in range(self.g):
            for b in range(blocks_per_side * blocks_per_side):
                for j in range(self.g):
                    mapping[(i, b * self.g + j)] = (j, b * self.g + i)
        return mapping
