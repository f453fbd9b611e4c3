"""Instance generation and genericity checks.

Builds problem instances (T, L, L_n-law, progression) at the linear level:
a block-diagonal normal form T with strictly decreasing block moduli and
rationally independent rotation angles, a generic L whose nested corner
inverses have distinct singular values, and a geometrically convergent
perturbation sequence L_n -> L.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
# numpy loads numpy.random lazily; import it with the package, not in the first draw
from numpy.random import default_rng

from .blocks import BlockStructure, block_diag
from .errors import IllConditioned, IndependenceFailure, PerturbationExhausted, SingularMatrix
from .linalg import (
    invert,
    lll_reduce,
    op_norm,
    rotation_matrix,
    short_vectors,
    singular_values,
)
from .model import DiagonalModel, RotationBlock, ScalarBlock

SV_GAP_TOL = 1e-9
GEN_SV_GAP_TOL = 0.02  # generated instances keep a wider singular-value gap
ANISO = 0.35  # 2x2 core blocks of generated L have singular values 1+ANISO, 1/(1+ANISO)
MAX_COEFF = 10_000  # largest |p_i| the angle-independence test rules out

# primes whose square roots seed low-discrepancy irrational angles
_ANGLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

@dataclass(frozen=True)
class PerturbationLaw:
    """L_n = L (I + E_n) with E_n = c * rho^n * G for a fixed unit direction G."""

    c: float
    rho: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:  # False for NaN as well
            raise ValueError(f"amplitude must be non-negative and finite, got {self.c}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"decay rate must lie in (0,1), got {self.rho}")

    def direction(self, d: int) -> np.ndarray:
        """The unit direction G, drawn once per (seed, d) and read-only."""
        return _unit_direction(self.seed, d)


@functools.lru_cache(maxsize=64)
def _unit_direction(seed: int, d: int) -> np.ndarray:
    rng = default_rng(seed)
    G = rng.standard_normal((d, d))
    G = G / max(op_norm(G), 1e-300)
    G.flags.writeable = False
    return G


@dataclass(frozen=True)
class ConditionLine:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class ConditionReport:
    """The condition lines, with the inverses the checks computed: L^-1 once
    L inverts, and the inverse of each corner of L^-1 from block 2 on (None
    where that corner does not invert)."""

    lines: tuple[ConditionLine, ...]
    passed: bool
    L_inv: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    corner_inverses: tuple = field(default=(), repr=False, compare=False)

    def failures(self) -> list[ConditionLine]:
        return [ln for ln in self.lines if not ln.passed]


@dataclass(eq=False)
class InstanceSpec:
    """A generated (T, L, law, progression) problem instance."""

    model: DiagonalModel
    L: np.ndarray
    law: PerturbationLaw
    a: int
    b: int

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=float)
        d = self.model.d
        if d < 3:
            raise ValueError(f"instances need total dimension >= 3, got {d}")
        if self.L.shape != (d, d):
            raise ValueError(f"L must be {d}x{d}, got {self.L.shape}")
        if self.a < 1 or self.b < 0:
            raise ValueError(f"progression needs a >= 1, b >= 0, got ({self.a}, {self.b})")

    def L_n(self, n: int) -> np.ndarray:
        try:
            E = self.law.c * self.law.rho ** n * self.law.direction(self.model.d)
        except OverflowError:  # k past float range, or rho^k above it
            raise ValueError(f"rho^k = {self.law.rho}^k leaves the float range") from None
        return self.L @ (np.eye(self.model.d) + E)


def _sv_gap_line(name: str, M: np.ndarray, tol: float) -> ConditionLine:
    sv = singular_values(M)
    gap = float((sv[0] - sv[1]) / max(sv[0], 1e-300))
    return ConditionLine(name, gap > tol, gap)


def _invertible_line(name: str, M: np.ndarray):
    """(line, M^-1) when M inverts, else (failed line, None); the margin is sigma_min(M)."""
    try:
        Minv = invert(M)
    except (SingularMatrix, IllConditioned):
        return ConditionLine(name, False, 0.0), None
    return ConditionLine(name, True, float(singular_values(M)[-1])), Minv


def check_L_conditions(L: np.ndarray, structure: BlockStructure,
                       sv_gap_tol: float = SV_GAP_TOL) -> ConditionReport:
    """Genericity conditions on L for the recursive decomposition.

    A_1(L) must be invertible (distinct singular values when i_1 = 2); for
    each 1 <= j <= m-1 the corner of L^-1 from block j+1 on must be
    invertible and its inverse's top block must have distinct singular
    values when block j+1 is 2-dimensional.  1x1 blocks skip the
    singular-value requirement.  Raises ValueError when L is not d x d.
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (structure.d, structure.d):
        raise ValueError(f"L must be {structure.d}x{structure.d}, got {L.shape}")
    sizes = structure.sizes
    line, Li = _invertible_line("L invertible", L)
    if Li is None:
        return ConditionReport((line,), False)
    lines = [line]

    A1 = L[: sizes[0], : sizes[0]]
    line, A1inv = _invertible_line("A_1(L) invertible", A1)
    lines.append(line)
    if A1inv is not None and sizes[0] == 2:
        lines.append(_sv_gap_line("A_1(L) distinct singular values", A1, sv_gap_tol))

    corner_inverses = []
    for j, (o, size) in enumerate(zip(structure.offsets[1:], sizes[1:]), start=1):
        line, Winv = _invertible_line(f"D^({j})(L^-1) invertible", Li[o:, o:])
        lines.append(line)
        corner_inverses.append(Winv)
        if Winv is not None and size == 2:
            lines.append(_sv_gap_line(f"level-{j + 1} corner block distinct singular values",
                                      Winv[:2, :2], sv_gap_tol))
    return ConditionReport(tuple(lines), all(ln.passed for ln in lines),
                           L_inv=Li, corner_inverses=tuple(corner_inverses))


def _smaller_ratio(u: tuple, v: tuple) -> tuple:
    """The smaller of two fractions num / den > 0 given as (num, den); den = 0 is +inf."""
    return v if v[0] * u[1] < u[0] * v[1] else u


def check_angle_independence(thetas) -> float:
    """Exact rational-independence test for (1, theta_1, ..., theta_t).

    Raises IndependenceFailure when some integer p with 0 < max|p_i| <=
    MAX_COEFF puts p . theta within threshold(max|p|) = 1 / (1000 (1 +
    max|p|)^(t+1)) of an integer.  The threshold is a Diophantine margin:
    an exact relation sits at distance ~0 while, for almost every angle
    tuple, |q + p . theta| stays above C / |p|^t, so pseudo-random near-hits
    are not flagged.

    Exhaustive, one shell max|p| in [P, 2P) at a time: with theta_i = a_i / D
    (float angles are dyadic) and the integer K = 2P / threshold(P), such a p
    gives a vector (D p, K (p . a + q D)) of squared norm below
    D^2 (t+1) (2P)^2 in the lattice of the rows (D e_i, K a_i) and (0, K D).
    Every lattice vector in that radius is enumerated from an LLL-reduced
    basis and tested exactly, on integers throughout.  A nonzero vector
    sum_i x_i b_i, with k the last index of x_k != 0, is at least as long as
    b*_k, so a shell whose shortest Gram-Schmidt norm exceeds the radius
    holds none and is not enumerated.

    Returns the smallest, over shells, of the shortest Gram-Schmidt norm
    of the reduced basis over the radius, a lower bound on the shortest
    lattice vector: above 1, no candidate came within reach; at or below
    1, those that did passed the exact test.
    """
    thetas = [Fraction(float(th)) for th in thetas]
    t = len(thetas)
    D = math.lcm(*(th.denominator for th in thetas))
    a = [th.numerator * (D // th.denominator) % D for th in thetas]
    basis = [[D * (i == j) for j in range(t)] + [a[i]] for i in range(t)] + [[0] * t + [D]]
    K, margin2 = 1, (1, 0)
    for P in (2 ** k for k in range(MAX_COEFF.bit_length())):  # P <= MAX_COEFF
        K_shell = 2000 * P * (1 + P) ** (t + 1)  # 2P / threshold(P)
        for row in basis:  # the last coordinate is K times an integer
            row[t] = row[t] // K * K_shell
        K = K_shell
        d, lam = lll_reduce(basis)
        radius2 = D * D * (t + 1) * (2 * P) ** 2
        shortest, den = functools.reduce(_smaller_ratio, zip(d[1:], d))  # min ||b*_i||^2
        margin2 = _smaller_ratio(margin2, (shortest, den * radius2))
        if shortest > den * radius2:  # no nonzero vector within the radius
            continue
        for x in short_vectors(d, lam, radius2):
            p = [sum(xi * row[j] for xi, row in zip(x, basis)) // D for j in range(t)]
            r = sum(pi * ai for pi, ai in zip(p, a)) % D
            r, top = min(r, D - r), max(map(abs, p), default=0)  # distance r / D
            if 0 < top <= MAX_COEFF and 1000 * (1 + top) ** (t + 1) * r < D:
                raise IndependenceFailure(
                    f"relation with coefficients {p} ~ integer (distance {r / D:.3g})"
                )
    return math.sqrt(Fraction(*margin2))


def random_model_T(structure: BlockStructure, moduli, seed: int = 0) -> DiagonalModel:
    """Normal-form T with seeded low-discrepancy irrational rotation angles."""
    structure = structure if isinstance(structure, BlockStructure) else BlockStructure(tuple(structure))
    moduli = [float(x) for x in moduli]
    if len(moduli) != structure.m:
        raise ValueError("one modulus per block required")
    if any(m2 >= m1 for m1, m2 in zip(moduli, moduli[1:])):
        raise ValueError(f"moduli must strictly decrease, got {moduli}")
    rng = default_rng(seed)
    n_rot = len(structure.rotation_indices)
    for _ in range(20):
        primes = rng.choice(_ANGLE_PRIMES, size=n_rot, replace=False) if n_rot else []
        thetas = [math.sqrt(int(p)) % 1.0 for p in primes]
        try:
            if thetas:
                check_angle_independence(thetas)
        except IndependenceFailure:
            continue
        blocks = []
        it = iter(thetas)
        for size, mod in zip(structure.sizes, moduli):
            if size == 1:
                blocks.append(ScalarBlock(mod))
            else:
                blocks.append(RotationBlock(mod, next(it)))
        return DiagonalModel(structure, tuple(blocks))
    raise IndependenceFailure("could not find an independent angle tuple")


def perturb_to_generic(L: np.ndarray, structure: BlockStructure, strength: float,
                       seed: int = 0, sv_gap_tol: float = SV_GAP_TOL) -> np.ndarray:
    """Nudge L until the genericity conditions pass, moving at most strength."""
    L = np.asarray(L, dtype=float)
    if check_L_conditions(L, structure, sv_gap_tol).passed:
        return L
    rng = default_rng(seed)
    for _ in range(50):
        G = rng.standard_normal(L.shape)
        G /= max(op_norm(G), 1e-300)
        cand = L + strength * rng.uniform(0.5, 1.0) * G
        if check_L_conditions(cand, structure, sv_gap_tol).passed:
            return cand
    raise PerturbationExhausted(
        f"no generic matrix within strength {strength} after 50 attempts"
    )


def generate_instance(structure, seed: int = 0, *, ratio: float = 1.35,
                      coupling: float = 0.08, c: float = 0.05,
                      rho_seq: float = 0.5, a: int = 1, b: int = 0) -> InstanceSpec:
    """Compose a valid instance: normal-form T, generic L, law, progression.

    Moduli follow a geometric ladder around 1 with the given consecutive
    ratio (shifted off 1 so no block is an isometry).  L is built from a
    block-diagonal core whose 2x2 blocks carry singular values (1+ANISO,
    1/(1+ANISO)) at random orientations, times a generic perturbation of
    strength coupling; the anisotropy keeps the limit blocks of the
    decomposition well away from conformal, so their real-simple rotation
    windows have usable width.  L must pass the conditions at
    GEN_SV_GAP_TOL, which perturb_to_generic guarantees.
    """
    structure = structure if isinstance(structure, BlockStructure) else BlockStructure(tuple(structure))
    m = structure.m
    exps = [(m - 1) / 2.0 - j for j in range(m)]
    moduli = [1.07 * ratio ** e for e in exps]
    model = random_model_T(structure, moduli, seed)

    rng = default_rng(seed + 1)
    core_blocks = []
    for size in structure.sizes:
        if size == 1:
            core_blocks.append(np.array([[1.0]]))
        else:
            u, v = rng.uniform(0.0, 1.0, size=2)
            stretch = np.diag([1.0 + ANISO, 1.0 / (1.0 + ANISO)])
            core_blocks.append(rotation_matrix(u) @ stretch @ rotation_matrix(v))
    core = block_diag(*core_blocks)
    G = rng.standard_normal((structure.d, structure.d))
    G /= max(op_norm(G), 1e-300)
    L = core @ (np.eye(structure.d) + coupling * G)
    L = perturb_to_generic(L, structure, 0.5 * coupling, seed=seed + 2,
                           sv_gap_tol=GEN_SV_GAP_TOL)
    return InstanceSpec(model=model, L=L, law=PerturbationLaw(c, rho_seq, seed), a=a, b=b)
