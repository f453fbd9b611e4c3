"""Block decomposition calculus for dense real matrices.

A dimension d >= 3 is split into consecutive blocks of sizes i_1, ..., i_m
with each i_j in {1, 2}.  Block j starts at the 0-based offset
o_j = i_1 + ... + i_{j-1}, so the corner of a d x d matrix M from block j on
is M[o_j:, o_j:], and its top-left i_j x i_j block is block j itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np


@dataclass(frozen=True)
class BlockStructure:
    """The decomposition i_1, ..., i_m with derived block offsets."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if any(s not in (1, 2) for s in sizes):
            raise ValueError(f"block sizes must be 1 or 2, got {sizes}")
        if not sizes:
            raise ValueError("at least one block required")

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def d(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        """0-based start of each block: (0, i_1, i_1 + i_2, ...)."""
        return tuple(accumulate(self.sizes[:-1], initial=0))

    @property
    def rotation_indices(self) -> tuple[int, ...]:
        """1-based levels j with i_j = 2."""
        return tuple(j for j, s in enumerate(self.sizes, start=1) if s == 2)


def split_blocks(J: np.ndarray, k1: int):
    """Partition a square matrix, or each of a stack (N, d, d), into (A, B, C, D)
    along the split k1 | k2.

    The blocks are views of J: writing to one writes to J.
    """
    d = J.shape[-1]
    if J.shape[-2:] != (d, d) or not 0 < k1 < d:
        raise ValueError(f"bad split {k1} for shape {J.shape}")
    return J[..., :k1, :k1], J[..., :k1, k1:], J[..., k1:, :k1], J[..., k1:, k1:]


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """diag[B_1 : ... : B_k] for square blocks, or per item for stacks of them."""
    mats = [np.asarray(b, dtype=float) for b in blocks]
    n = sum(b.shape[-1] for b in mats)
    out = np.zeros(mats[0].shape[:-2] + (n, n))
    pos = 0
    for b in mats:
        k = b.shape[-1]
        out[..., pos : pos + k, pos : pos + k] = b
        pos += k
    return out
