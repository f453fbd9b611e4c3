"""Reference spectra of products L * T^n, scale-aware.

The product of a dense L with a graded diagonal power T^n spans many orders
of magnitude, so eigenvalues are carried in split form: a unit-modulus
direction together with a natural-log modulus.

Up to NUMPY_DIGIT_CAP decimal digits of modulus spread, the dense QR solver
runs on a rescaled copy of the product.  Beyond that a graded route takes
over whose cost does not depend on n.  It writes T^n = R D, with R
block-orthogonal (rotations through the exact rational phase n*theta mod 1,
and the sign of a negative scalar block at odd n) and D diagonal positive,
and expands the characteristic polynomial of (L R) D by principal minors
(Cauchy-Binet):

    c_k = sum_{|S| = k} det((L R)_SS) * prod_{i in S} d_i.

Everything runs in a private mpmath context at a fixed GRADED_DIGITS digits;
mpf's unbounded exponent absorbs the spread.  The minors are exact: integer
fraction-free elimination on the entries of L R rounded to that precision.  Each block of the ladder is
one segment of the Newton polygon of the polynomial, so a linear or
quadratic in consecutive coefficients seeds that block's roots, which are
then polished on the full polynomial (Newton steps with the Ehrlich-Aberth
correction, which keeps the roots apart).  Every root must pass a residual
check and a distinctness check, and a rerun at CHECK_DIGITS digits must
agree; any failure raises ConvergenceFailure.  The route shares no numerics
with the cascade and has no digit cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConvergenceFailure, PowerOverflow
from .linalg import eigenvalues, phase_mod1, rotation_matrix
from .model import DiagonalModel

GAP_TOL = 1e-9  # imaginary part and relative modulus gap of a real simple spectrum
NUMPY_DIGIT_CAP = 20.0  # the QR route loses accuracy from ~28 digits of spread on
GRADED_DIGITS = 40
CHECK_DIGITS = 80
_LN10 = math.log(10.0)
_AGREE_TOL = 1e-13  # 40- vs 80-digit roots, relative
_RESIDUAL_SLACK_DIGITS = 6  # backward error allowed above the unit roundoff
_MAX_POLISH_STEPS = 60


@dataclass(frozen=True)
class ScaledSpectrum:
    """Eigenvalue multiset stored as unit directions and log moduli."""

    unit: np.ndarray  # complex, modulus 1 (0 for an exact zero)
    log_mod: np.ndarray  # natural log of the modulus

    @classmethod
    def from_values(cls, values, log_scale: float = 0.0) -> "ScaledSpectrum":
        values = np.asarray(values, dtype=complex)
        mods = np.abs(values)
        unit = np.where(mods > 0, values / np.maximum(mods, 1e-300), 0.0)
        log_mod = np.where(mods > 0, np.log(np.maximum(mods, 1e-300)) + log_scale, -np.inf)
        return cls(unit=unit, log_mod=np.asarray(log_mod, dtype=float))

    def __len__(self) -> int:
        return len(self.unit)

    def values(self) -> np.ndarray:
        """Plain complex eigenvalues; fails when they leave float range."""
        if np.any(np.abs(self.log_mod) > 690.0):
            raise PowerOverflow("spectrum moduli exceed the float range")
        return self.unit * np.exp(self.log_mod)

    def real_simple(self, gap_tol: float = GAP_TOL):
        """All-real with distinct moduli, judged in split form.

        Returns (ok, min relative modulus gap); relative gaps are computed
        as 1 - exp(log difference) so arbitrary scales are fine.
        """
        if np.any(np.abs(self.unit.imag) > gap_tol):
            return False, 0.0
        order = np.argsort(self.log_mod)[::-1]
        logs = self.log_mod[order]
        min_gap = math.inf
        ok = True
        for i in range(len(logs) - 1):
            gap = -math.expm1(logs[i + 1] - logs[i])
            min_gap = min(min_gap, gap)
            if gap <= gap_tol:
                ok = False
        return ok, min_gap

    def concat(self, other: "ScaledSpectrum") -> "ScaledSpectrum":
        return ScaledSpectrum(
            unit=np.concatenate([self.unit, other.unit]),
            log_mod=np.concatenate([self.log_mod, other.log_mod]),
        )


def match_scaled(a: ScaledSpectrum, b: ScaledSpectrum) -> float:
    """Maximal relative mismatch between two split-form spectra."""
    if len(a) != len(b):
        raise ValueError(f"spectra of different sizes: {len(a)} vs {len(b)}")
    dlog = a.log_mod[:, None] - b.log_mod[None, :]
    ratio = np.exp(np.clip(dlog, -50.0, 50.0))
    cost = np.abs(a.unit[:, None] * ratio - b.unit[None, :])
    cost = np.where(np.abs(dlog) > 50.0, 1e30, cost)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spread_digits(model: DiagonalModel, n: int) -> float:
    """Decimal digits spanned by the coordinate moduli of T^n."""
    logs = n * model.coordinate_log_moduli()
    return float((logs.max() - logs.min()) / _LN10)


def _scaled_power_blocks(model: DiagonalModel, n: int, center: float) -> np.ndarray:
    """T^n * exp(-center) assembled blockwise in closed form."""
    d = model.d
    out = np.zeros((d, d))
    pos = 0
    for blk in model.diag_blocks:
        log_mag = n * math.log(blk.modulus) - center
        mag = math.exp(log_mag)
        if blk.size == 1:
            sign = -1.0 if (blk.value < 0 and n % 2 == 1) else 1.0
            out[pos, pos] = sign * mag
        else:
            phase = float(phase_mod1(blk.theta, n))
            out[pos : pos + 2, pos : pos + 2] = mag * rotation_matrix(phase)
        pos += blk.size
    return out


def product_spectrum(L: np.ndarray, model: DiagonalModel, n: int) -> ScaledSpectrum:
    """Spectrum of L T^n in split form, independent of the decomposition.

    Serves as the certifying oracle: the numpy eigensolver up to
    NUMPY_DIGIT_CAP digits of modulus spread, the graded principal-minor
    route at any spread beyond.
    """
    L = np.asarray(L, dtype=float)
    logs = n * model.coordinate_log_moduli()
    if (logs.max() - logs.min()) / _LN10 <= NUMPY_DIGIT_CAP:
        center = float((logs.max() + logs.min()) / 2.0)
        M = L @ _scaled_power_blocks(model, n, center)
        return ScaledSpectrum.from_values(eigenvalues(M), log_scale=center)
    return _graded_spectrum(L, model, n)


def _graded_spectrum(L: np.ndarray, model: DiagonalModel, n: int) -> ScaledSpectrum:
    """The graded route at GRADED_DIGITS, checked against a CHECK_DIGITS rerun."""
    roots = _graded_roots(L, model, n, GRADED_DIGITS)
    check = _graded_roots(L, model, n, CHECK_DIGITS)
    ctx = check[0].context
    cost = np.array([[min(float(abs(ctx.convert(z) - w) / abs(w)), 1e30) for w in check]
                     for z in roots])
    rows, cols = linear_sum_assignment(cost)
    mismatch = float(cost[rows, cols].max())
    if not mismatch <= _AGREE_TOL:
        raise ConvergenceFailure(
            f"graded oracle at n={n}: {GRADED_DIGITS}- and {CHECK_DIGITS}-digit "
            f"roots disagree by {mismatch:.3g}"
        )
    mods = [abs(z) for z in roots]
    return ScaledSpectrum(
        unit=np.array([complex(z / m) for z, m in zip(roots, mods)]),
        log_mod=np.array([float(m.context.log(m)) for m in mods]),
    )


def _graded_roots(L: np.ndarray, model: DiagonalModel, n: int, digits: int) -> list:
    """Checked roots of det(x - L T^n), as mpc in a private context."""
    ctx = mpmath.MPContext()
    ctx.dps = digits
    coeffs = _charpoly_coeffs(ctx, L, model, n)
    try:
        roots = _polish(ctx, coeffs, _newton_polygon_seeds(ctx, coeffs, model))
    except ZeroDivisionError as exc:
        raise ConvergenceFailure(f"graded oracle at n={n}: vanishing denominator") from exc
    _check_roots(ctx, coeffs, roots, n)
    return roots


def _charpoly_coeffs(ctx, L: np.ndarray, model: DiagonalModel, n: int) -> list:
    """[c_0, ..., c_d] with det(x - L T^n) = sum_k (-1)^k c_k x^(d-k)."""
    d = model.d
    B = [[ctx.mpf(float(x)) for x in row] for row in L]
    scale = []
    pos = 0
    for blk in model.diag_blocks:
        scale += [ctx.exp(n * ctx.log(blk.modulus))] * blk.size
        if blk.size == 1:
            if blk.value < 0 and n % 2 == 1:
                for row in B:
                    row[pos] = -row[pos]
        else:
            turns = Fraction(blk.theta) * n % 1
            angle = 2 * ctx.mpf(turns.numerator) / turns.denominator
            c, s = ctx.cospi(angle), ctx.sinpi(angle)
            for row in B:  # B <- B R on columns pos, pos+1
                u, v = row[pos], row[pos + 1]
                row[pos], row[pos + 1] = u * c + v * s, v * c - u * s
        pos += blk.size
    # principal minors exactly, on the entries rounded to the working precision
    prec = ctx.prec
    Bint = [[int(ctx.nint(ctx.ldexp(x, prec))) for x in row] for row in B]
    coeffs = [ctx.one] + [ctx.zero] * d
    for k in range(1, d + 1):
        for S in combinations(range(d), k):
            minor = _bareiss_det([[Bint[i][j] for j in S] for i in S])
            weight = ctx.fprod(scale[i] for i in S)
            coeffs[k] += ctx.ldexp(minor, -prec * k) * weight
    return coeffs


def _bareiss_det(A: list) -> int:
    """Exact determinant of an integer matrix (fraction-free; A is consumed)."""
    k = len(A)
    sign, prev = 1, 1
    for c in range(k - 1):
        if A[c][c] == 0:
            swap = next((r for r in range(c + 1, k) if A[r][c] != 0), None)
            if swap is None:
                return 0
            A[c], A[swap] = A[swap], A[c]
            sign = -sign
        for r in range(c + 1, k):
            for col in range(c + 1, k):
                A[r][col] = (A[r][col] * A[c][c] - A[r][c] * A[c][col]) // prev
        prev = A[c][c]
    return sign * A[k - 1][k - 1]


def _newton_polygon_seeds(ctx, coeffs: list, model: DiagonalModel) -> list:
    """One root cluster per block of the ladder, from its polygon segment.

    Block j owns the coefficients c_{K-size} .. c_K (K its last coordinate);
    all others are smaller at its scale by powers of the modulus ratios.
    """
    seeds = []
    K = 0
    for blk in model.diag_blocks:
        K += blk.size
        if blk.size == 1:
            seeds.append(ctx.mpc(coeffs[K] / coeffs[K - 1]))
            continue
        a, b, c = coeffs[K - 2], coeffs[K - 1], coeffs[K]  # a x^2 - b x + c
        root = ctx.sqrt(ctx.mpc(b * b - 4 * a * c))
        q = (b + root if abs(b + root) >= abs(b - root) else b - root) / 2
        seeds += [q / a, c / q]
    return seeds


def _monic(coeffs: list) -> list:
    return [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]


def _horner(poly: list, z):
    """(p(z), p'(z)) for p given by its coefficients, leading first."""
    p, dp = poly[0], 0
    for a in poly[1:]:
        dp = dp * z + p
        p = p * z + a
    return p, dp


def _polish(ctx, coeffs: list, roots: list) -> list:
    """Newton steps with the Ehrlich-Aberth correction on the full polynomial."""
    poly = _monic(coeffs)
    roots = list(roots)
    tol = ctx.ldexp(1, 8 - ctx.prec)
    for _ in range(_MAX_POLISH_STEPS):
        worst = ctx.zero
        for i, z in enumerate(roots):
            p, dp = _horner(poly, z)
            if p == 0:
                continue
            ratio = p / dp
            pull = ctx.fsum(1 / (z - w) for j, w in enumerate(roots) if j != i)
            step = ratio / (1 - ratio * pull)
            roots[i] = z - step
            worst = max(worst, abs(step) / abs(roots[i]))
        if worst <= tol:
            break
    return roots


def _check_roots(ctx, coeffs: list, roots: list, n: int) -> None:
    """Raise ConvergenceFailure unless every root is a distinct true root.

    The residual test bounds the backward error |p(z)| / sum |c_k| |z|^(d-k)
    a few digits above the working precision; roots count as distinct when
    they differ in the first half of the working digits.
    """
    poly = _monic(coeffs)
    d = len(roots)
    res_tol = ctx.mpf(10) ** (_RESIDUAL_SLACK_DIGITS - ctx.dps)
    for z in roots:
        mod = abs(z)
        bound = ctx.fsum(abs(a) * mod ** (d - k) for k, a in enumerate(poly))
        residual = abs(_horner(poly, z)[0])
        if not residual <= res_tol * bound:
            raise ConvergenceFailure(
                f"graded oracle at n={n}: root residual {float(residual / bound):.3g} "
                f"above {float(res_tol):.3g}"
            )
    sep_tol = ctx.mpf(10) ** (-(ctx.dps // 2))
    for i in range(d):
        for j in range(i + 1, d):
            if not abs(roots[i] - roots[j]) > sep_tol * max(abs(roots[i]), abs(roots[j])):
                raise ConvergenceFailure(
                    f"graded oracle at n={n}: roots {i} and {j} coincide"
                )
