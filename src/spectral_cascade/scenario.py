"""Instance generation and genericity checks.

Builds problem instances (T, L, L_n-law, progression) at the linear level:
a block-diagonal normal form T with strictly decreasing block moduli and
rationally independent rotation angles, a generic L whose nested corner
inverses have distinct singular values, and a geometrically convergent
perturbation sequence L_n -> L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import BlockStructure, block_diag, d_chain
from .errors import (
    ConditionFailure,
    IndependenceFailure,
    PerturbationExhausted,
    SingularMatrix,
    IllConditioned,
)
from .linalg import invert, op_norm, rotation_matrix, singular_values
from .model import DiagonalModel, RotationBlock, ScalarBlock

SV_GAP_TOL = 1e-9

# primes whose square roots seed low-discrepancy irrational angles
_ANGLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

_independence_cache: dict = {}


@dataclass(frozen=True)
class PerturbationLaw:
    """L_n = L (I + E_n) with E_n = c * rho^n * G for a fixed unit direction G."""

    c: float
    rho: float
    seed: int

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("amplitude must be non-negative")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"decay rate must lie in (0,1), got {self.rho}")

    def direction(self, d: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        G = rng.standard_normal((d, d))
        return G / max(op_norm(G), 1e-300)


@dataclass(frozen=True)
class ConditionLine:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class ConditionReport:
    lines: tuple[ConditionLine, ...]
    passed: bool

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
        E = self.law.c * self.law.rho ** n * self.law.direction(self.model.d)
        return self.L @ (np.eye(self.model.d) + E)


def _sv_gap_line(name: str, M: np.ndarray, tol: float) -> ConditionLine:
    sv = singular_values(M)
    gap = float((sv[0] - sv[1]) / max(sv[0], 1e-300))
    return ConditionLine(name, gap > tol, gap)


def check_L_conditions(L: np.ndarray, structure: BlockStructure,
                       sv_gap_tol: float = SV_GAP_TOL) -> ConditionReport:
    """Genericity conditions on L for the recursive decomposition.

    A_1(L) must be invertible (distinct singular values when i_1 = 2); for
    each 1 <= j <= m-1 the nested corner D^(j)(L^-1) must be invertible and
    its inverse's top block must have distinct singular values when the
    corresponding level is 2-dimensional.  1x1 blocks skip the
    singular-value requirement.
    """
    L = np.asarray(L, dtype=float)
    lines = []
    sizes = structure.sizes
    try:
        Li = invert(L)
        sv = singular_values(L)
        lines.append(ConditionLine("L invertible", True, float(sv[-1])))
    except (SingularMatrix, IllConditioned):
        lines.append(ConditionLine("L invertible", False, 0.0))
        return ConditionReport(tuple(lines), False)

    A1 = L[: sizes[0], : sizes[0]]
    try:
        invert(A1)
        lines.append(ConditionLine("A_1(L) invertible", True, float(singular_values(A1)[-1])))
        a1_ok = True
    except (SingularMatrix, IllConditioned):
        lines.append(ConditionLine("A_1(L) invertible", False, 0.0))
        a1_ok = False
    if a1_ok and sizes[0] == 2:
        lines.append(_sv_gap_line("A_1(L) distinct singular values", A1, sv_gap_tol))

    for j in range(1, structure.m):
        W = d_chain(Li, structure, j)
        name = f"D^({j})(L^-1) invertible"
        try:
            Winv = invert(W)
            lines.append(ConditionLine(name, True, float(singular_values(W)[-1])))
        except (SingularMatrix, IllConditioned):
            lines.append(ConditionLine(name, False, 0.0))
            continue
        i_next = sizes[j]
        if i_next == 2:
            block = Winv[:i_next, :i_next]
            lines.append(
                _sv_gap_line(
                    f"level-{j + 1} corner block distinct singular values", block, sv_gap_tol
                )
            )
    return ConditionReport(tuple(lines), all(ln.passed for ln in lines))


def _coeff_threshold(max_abs_coeff: np.ndarray, n_angles: int) -> np.ndarray:
    # Diophantine margin: an exact relation sits at distance ~0 while, for
    # almost every angle tuple, |q + p . theta| stays above C / |p|^t
    # (t = number of angles).  The allowance |p|^-(t+1) is safely below
    # that generic floor, so pseudo-random near-hits are not flagged.
    return 1e-3 / (1.0 + max_abs_coeff) ** (n_angles + 1)


def check_angle_independence(thetas, max_coeff: int = 10_000) -> float:
    """Bounded-coefficient rational-independence test for (1, theta_1, ...).

    Returns the worst margin min |q + sum p_i theta_i| / threshold over the
    coefficient box; raises IndependenceFailure when a relation is found.
    Exhaustive for up to two angles, exhaustive-small plus randomized for
    more.
    """
    thetas = tuple(float(t) for t in thetas)
    key = (thetas, max_coeff)
    if key in _independence_cache:
        return _independence_cache[key]

    worst = math.inf
    if len(thetas) == 1:
        theta = thetas[0]
        frac = Fraction(theta)
        # best rational approximations are the continued-fraction convergents
        q = 1
        while q <= max_coeff:
            approx = frac.limit_denominator(q)
            dist = abs(approx.denominator * theta - approx.numerator)
            thr = float(_coeff_threshold(np.array(float(approx.denominator)), 1))
            if dist < thr:
                raise IndependenceFailure(
                    f"theta ~ {approx} to within {dist:.3g} (threshold {thr:.3g})"
                )
            worst = min(worst, dist / thr)
            q = max(q + 1, approx.denominator * 2)
    elif len(thetas) == 2:
        t1, t2 = thetas
        p2 = np.arange(-max_coeff, max_coeff + 1)
        frac2 = (p2 * t2) % 1.0
        order = np.argsort(frac2)
        frac2_sorted = frac2[order]
        p2_sorted = p2[order]
        # For each p1 only the p2 whose fractional part lands near
        # -p1*theta1 can produce a relation; locate them by binary search
        # instead of scanning the whole row.
        for p1 in range(0, max_coeff + 1):
            target = (-p1 * t1) % 1.0
            width = 1e-3 / (1.0 + p1) ** 3  # widest threshold in this row
            lo = np.searchsorted(frac2_sorted, target - width) - 1
            hi = np.searchsorted(frac2_sorted, target + width) + 1
            idx = np.arange(lo, hi) % len(frac2_sorted)
            cand_p2 = p2_sorted[idx]
            vals = (p1 * t1 + cand_p2 * t2) % 1.0
            dist = np.minimum(vals, 1.0 - vals)
            thr = _coeff_threshold(np.maximum(p1, np.abs(cand_p2)), 2)
            nz = ~((cand_p2 == 0) & (p1 == 0))
            bad = (dist < thr) & nz
            if np.any(bad):
                k = int(np.argmax(bad))
                raise IndependenceFailure(
                    f"relation {p1}*theta1 + {int(cand_p2[k])}*theta2 ~ integer "
                    f"(distance {float(dist[k]):.3g})"
                )
            if np.any(nz):
                worst = min(worst, float(np.min((dist / thr)[nz])))
    elif len(thetas) >= 3:
        t = np.array(thetas)
        grids = np.meshgrid(*([np.arange(-64, 65)] * len(thetas)), indexing="ij")
        coeffs = np.stack([g.ravel() for g in grids], axis=1)
        rng = np.random.default_rng(0)
        rand = rng.integers(-max_coeff, max_coeff + 1, size=(500_000, len(thetas)))
        coeffs = np.vstack([coeffs, rand])
        nz = np.any(coeffs != 0, axis=1)
        coeffs = coeffs[nz]
        vals = (coeffs @ t) % 1.0
        dist = np.minimum(vals, 1.0 - vals)
        thr = _coeff_threshold(np.abs(coeffs).max(axis=1), len(thetas))
        bad = dist < thr
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise IndependenceFailure(
                f"relation with coefficients {coeffs[idx].tolist()} ~ integer "
                f"(distance {float(dist[idx]):.3g})"
            )
        worst = float(np.min(dist / thr))

    _independence_cache[key] = worst
    return worst


def random_model_T(structure: BlockStructure, moduli, seed: int = 0) -> DiagonalModel:
    """Normal-form T with seeded low-discrepancy irrational rotation angles."""
    structure = structure if isinstance(structure, BlockStructure) else BlockStructure(tuple(structure))
    moduli = [float(x) for x in moduli]
    if len(moduli) != structure.m:
        raise ValueError("one modulus per block required")
    if any(m2 >= m1 for m1, m2 in zip(moduli, moduli[1:])):
        raise ValueError(f"moduli must strictly decrease, got {moduli}")
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
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
                      coupling: float = 0.08, aniso: float = 0.35,
                      c: float = 0.05, rho_seq: float = 0.5,
                      a: int = 1, b: int = 0,
                      sv_gap_tol: float = 0.02) -> InstanceSpec:
    """Compose a valid instance: normal-form T, generic L, law, progression.

    Moduli follow a geometric ladder around 1 with the given consecutive
    ratio (shifted off 1 so no block is an isometry).  L is built from a
    block-diagonal core whose 2x2 blocks carry singular values (1+aniso,
    1/(1+aniso)) at random orientations, times a generic perturbation of
    strength coupling; the anisotropy keeps the limit blocks of the
    decomposition well away from conformal, so their real-simple rotation
    windows have usable width.
    """
    structure = structure if isinstance(structure, BlockStructure) else BlockStructure(tuple(structure))
    m = structure.m
    exps = [(m - 1) / 2.0 - j for j in range(m)]
    moduli = [1.07 * ratio ** e for e in exps]
    model = random_model_T(structure, moduli, seed)

    rng = np.random.default_rng(seed + 1)
    core_blocks = []
    for size in structure.sizes:
        if size == 1:
            core_blocks.append(np.array([[1.0]]))
        else:
            u, v = rng.uniform(0.0, 1.0, size=2)
            stretch = np.diag([1.0 + aniso, 1.0 / (1.0 + aniso)])
            core_blocks.append(rotation_matrix(u) @ stretch @ rotation_matrix(v))
    core = block_diag(*core_blocks)
    G = rng.standard_normal((structure.d, structure.d))
    G /= max(op_norm(G), 1e-300)
    L = core @ (np.eye(structure.d) + coupling * G)
    L = perturb_to_generic(L, structure, 0.5 * coupling, seed=seed + 2, sv_gap_tol=sv_gap_tol)

    report = check_L_conditions(L, structure, sv_gap_tol)
    if not report.passed:
        raise ConditionFailure(f"generated L fails conditions: {report.failures()}")
    return InstanceSpec(model=model, L=L, law=PerturbationLaw(c, rho_seq, seed), a=a, b=b)
