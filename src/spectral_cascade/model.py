"""Block-diagonal normal-form matrices and their exact powers.

The diagonal model diag[T_1 : ... : T_m] has per-block data: a nonzero real
scalar for 1x1 blocks, or (modulus, angle-in-turns) for 2x2 scaled-rotation
blocks.  Powers are evaluated in closed form, |lambda|^n * R_{n theta mod 1},
with exact phase residues (``linalg.phase_mod1``) and the modulus in log space.
Each block's ``unit_power`` is the one place that forms the unit part
U_j(n) of T_j^n, or the stack of them at an array of exponents; the sandwich
factors, the cascade's level spectra and the oracle's numpy route all read it
from there.  A decomposition forms each block's U_j(n) once, for the whole
stack in one call, and shares it with every stage (``DiagonalPowers.share_units``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockStructure, block_diag
from .errors import PowerOverflow
from .linalg import phase_mod1, rotation_matrix

_LOG_CAP = 300.0 * math.log(10.0)


class Block:
    """A diagonal block T_j, whose powers are T_j^n = |lambda_j|^n U_j(n) with
    U_j(n) of unit modulus: the sign of a scalar or a rotation."""

    def power(self, n: int) -> np.ndarray:
        """T_j^n in closed form; raises PowerOverflow past ~1e300."""
        if n * math.log(self.modulus) > _LOG_CAP:
            raise PowerOverflow(f"{type(self).__name__} power {n} overflows")
        return self.modulus ** n * self.unit_power(n)


@dataclass(frozen=True)
class ScalarBlock(Block):
    value: float
    size = 1

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value != 0.0):
            raise ValueError(f"scalar block must be finite nonzero, got {self.value}")

    @property
    def modulus(self) -> float:
        return abs(self.value)

    def unit_power(self, n) -> np.ndarray:
        """The sign of value^n, as a 1x1 matrix; for an array n, the stack of them."""
        if isinstance(n, np.ndarray):
            return np.where((self.value < 0) & (n % 2 == 1), -1.0, 1.0)[..., None, None]
        return np.array([[-1.0 if (self.value < 0 and n % 2 == 1) else 1.0]])


@dataclass(frozen=True)
class RotationBlock(Block):
    modulus: float
    theta: float
    size = 2

    def __post_init__(self):
        if not (math.isfinite(self.modulus) and self.modulus > 0.0):
            raise ValueError(f"rotation modulus must be positive, got {self.modulus}")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"angle must lie in [0, 1) turns, got {self.theta}")

    def unit_power(self, n) -> np.ndarray:
        """The rotation through n theta mod 1 turns; for an array n, the stack of
        them from one ``phase_mod1`` call."""
        turn = phase_mod1(self.theta, n)
        return rotation_matrix(turn if isinstance(n, np.ndarray) else float(turn))


@dataclass(frozen=True)
class DiagonalModel:
    """T = diag[T_1 : ... : T_m] with strictly decreasing block moduli."""

    structure: BlockStructure
    diag_blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "diag_blocks", tuple(self.diag_blocks))
        if len(self.diag_blocks) != self.structure.m:
            raise ValueError("one block descriptor per structure level required")
        for blk, size in zip(self.diag_blocks, self.structure.sizes):
            if blk.size != size:
                raise ValueError("block descriptor sizes disagree with the structure")
        mods = [blk.modulus for blk in self.diag_blocks]
        for j in range(len(mods) - 1):
            if not mods[j] > mods[j + 1]:
                raise ValueError(
                    f"block moduli must strictly decrease: level {j + 1} has "
                    f"{mods[j]:g} vs {mods[j + 1]:g}"
                )

    @property
    def d(self) -> int:
        return self.structure.d

    def block(self, j: int) -> Block:
        """1-based block descriptor T_j."""
        return self.diag_blocks[j - 1]

    def matrix(self) -> np.ndarray:
        return self.power(1)

    def power(self, n: int) -> np.ndarray:
        """T^n, exact block-closed form."""
        return block_diag(*(b.power(n) for b in self.diag_blocks))

    def tail(self, j: int) -> "DiagonalModel":
        """The model of D^(j-1)(T) = diag[T_j : ... : T_m] (1-based)."""
        if not 1 <= j <= self.structure.m:
            raise ValueError(f"tail level {j} out of range")
        sizes = self.structure.sizes[j - 1 :]
        return DiagonalModel(BlockStructure(sizes), self.diag_blocks[j - 1 :])

    def coordinate_log_moduli(self) -> np.ndarray:
        """log|lambda| per coordinate of R^d (block modulus repeated)."""
        out = []
        for blk in self.diag_blocks:
            out.extend([math.log(blk.modulus)] * blk.size)
        return np.array(out)

    @property
    def rotation_angles(self) -> dict[int, float]:
        """Angles theta_j keyed by 1-based rotation level."""
        return {
            j: blk.theta
            for j, blk in enumerate(self.diag_blocks, start=1)
            if isinstance(blk, RotationBlock)
        }


class DiagonalPowers:
    """Sandwich products for a dominated split whose V is a diagonal model.

    The split is i_1 | (d - i_1) of ``model``; A(V) is the first block and
    D(V) the tail.  The sandwich products D(V)^n u A(V)^{-n} and
    A(V)^{-n} u D(V)^n are evaluated with combined log-scales so they stay
    bounded for arbitrarily large n (every tail modulus is below the head
    modulus).  The exponent is an int, or an array of them for a stack u
    (N, r, c).  The unit-modulus and scale factors are built once and kept
    until another exponent (for an array, another object) is asked for.
    """

    def __init__(self, model: DiagonalModel):
        if model.structure.m < 2:
            raise ValueError("need at least two blocks to split")
        self.model = model
        # log-modulus per tail coordinate, relative to the head modulus
        self._rel = model.tail(2).coordinate_log_moduli() - math.log(model.block(1).modulus)
        self._cache = (None,)

    def share_units(self, n, units) -> tuple:
        """Build the factors at n from unit parts U_j(n) formed by the caller
        (stacks of them for an array n), one per block of the model, head
        first; the factors of this very n object are kept.  Returns them."""
        cache = self._cache
        if cache[0] is n:
            return cache
        head, *tail = units
        unit_tail = block_diag(*tail)
        rel = n[:, None] * self._rel if isinstance(n, np.ndarray) else n * self._rel
        scale = np.exp(np.minimum(rel, _LOG_CAP))
        # the inverse of a rotation or a sign is its transpose
        self._cache = cache = (n, scale[..., :, None] * unit_tail,
                               unit_tail * scale[..., None, :], head.swapaxes(-1, -2))
        return cache

    def _factors(self, n):
        """(n, diag(s) U_t, U_t diag(s), H), rebuilt only when n changes: U_t and H
        are the unit parts of D(V)^n and A(V)^{-n}, s the tail's relative scale.
        Returns the tuple it checked or built: another thread sharing this
        object may replace the cache in between."""
        cache = self._cache
        key = cache[0]
        if key is n or (isinstance(n, int) and isinstance(key, int) and key == n):
            return cache
        return self.share_units(n, [b.unit_power(n) for b in self.model.diag_blocks])

    def dvn_u_avmn(self, u: np.ndarray, n) -> np.ndarray:
        """D(V)^n u A(V)^{-n}; contracting, never overflows."""
        _, left, _, head_inv = self._factors(n)
        return left @ u @ head_inv

    def avmn_u_dvn(self, u: np.ndarray, n) -> np.ndarray:
        """A(V)^{-n} u D(V)^n; contracting, never overflows."""
        _, _, right, head_inv = self._factors(n)
        return head_inv @ u @ right
