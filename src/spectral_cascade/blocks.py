"""Block decomposition calculus for dense real matrices.

A dimension d >= 3 is split into consecutive blocks of sizes i_1, ..., i_m
with each i_j in {1, 2}.  The tail sums kappa_j = i_j + ... + i_m index the
nested corner extractions: a square matrix of size kappa_j decomposes into a
top-left i_j x i_j block and a bottom-right kappa_{j+1} x kappa_{j+1} block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockStructure:
    """The decomposition i_1, ..., i_m with derived tail sizes."""

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
    def kappa(self) -> tuple[int, ...]:
        """Tail sums (kappa_1, ..., kappa_m); kappa_1 = d, kappa_m = i_m."""
        out = []
        total = 0
        for s in reversed(self.sizes):
            total += s
            out.append(total)
        return tuple(reversed(out))

    def kappa_at(self, j: int) -> int:
        """kappa_j for 1 <= j <= m, with the convention kappa_{m+1} = 0."""
        if j == self.m + 1:
            return 0
        return self.kappa[j - 1]

    @property
    def rotation_indices(self) -> tuple[int, ...]:
        """1-based levels j with i_j = 2."""
        return tuple(j for j, s in enumerate(self.sizes, start=1) if s == 2)


def _require_square(J: np.ndarray, size: int, what: str) -> None:
    if J.shape != (size, size):
        raise ValueError(f"{what}: expected {size}x{size}, got {J.shape}")


def project_D(J: np.ndarray, structure: BlockStructure, j: int) -> np.ndarray:
    """Bottom-right kappa_{j+1} x kappa_{j+1} block of a kappa_j matrix."""
    if not 1 <= j <= structure.m - 1:
        raise ValueError(f"level {j} out of range 1..{structure.m - 1}")
    _require_square(J, structure.kappa_at(j), "project_D")
    i = structure.sizes[j - 1]
    return np.array(J[i:, i:], copy=True)


def d_chain(J: np.ndarray, structure: BlockStructure, j: int) -> np.ndarray:
    """Iterated bottom-right extraction D_j ( ... D_1(J)); j = 0 returns J."""
    if not 0 <= j <= structure.m - 1:
        raise ValueError(f"chain level {j} out of range 0..{structure.m - 1}")
    _require_square(J, structure.d, "d_chain")
    out = np.array(J, copy=True)
    for level in range(1, j + 1):
        out = project_D(out, structure, level)
    return out


def split_blocks(J: np.ndarray, k1: int):
    """Partition a square matrix into (A, B, C, D) along the split k1 | k2."""
    d = J.shape[0]
    if J.shape != (d, d) or not 0 < k1 < d:
        raise ValueError(f"bad split {k1} for shape {J.shape}")
    A = np.array(J[:k1, :k1], copy=True)
    B = np.array(J[:k1, k1:], copy=True)
    C = np.array(J[k1:, :k1], copy=True)
    D = np.array(J[k1:, k1:], copy=True)
    return A, B, C, D


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """diag[B_1 : ... : B_k] for square blocks."""
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n))
    pos = 0
    for b in mats:
        k = b.shape[0]
        out[pos : pos + k, pos : pos + k] = b
        pos += k
    return out
