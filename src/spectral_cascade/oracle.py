"""Reference spectra of products L * T^n, scale-aware.

The product of a dense L with a graded diagonal power T^n spans many orders
of magnitude, so eigenvalues are carried in split form: a unit-modulus
direction together with a natural-log modulus.

Up to NUMPY_DIGIT_CAP decimal digits of modulus spread, the dense QR solver
runs on a rescaled copy of the product.  Beyond that, and for every hit of
the search at any spread, a certified graded route takes over whose cost
does not depend on n.  It writes T^n = R D, with R block-orthogonal
(rotations through the exact rational phase n*theta mod 1, and the sign of a
negative scalar block at odd n) and D diagonal positive, and expands the
characteristic polynomial of (L R) D by principal minors (Cauchy-Binet):

    c_k = sum_{|S| = k} det((L R)_SS) * prod_{i in S} d_i.

Everything runs at GRADED_DIGITS digits in private per-thread mpmath
contexts; mpf's unbounded exponent absorbs the spread.  The coefficients are
intervals: the rotation entries and the d_i are enclosed in interval
arithmetic, and each minor is the exact fraction-free minor of the rounded
entries widened by a Hadamard perturbation bound.  Each block of the ladder
is one segment of the Newton polygon, so a linear or quadratic in
consecutive coefficients seeds that block's roots, which are then polished
on the midpoint polynomial (Newton steps with the Ehrlich-Aberth correction,
which keeps the roots apart).  Weierstrass inclusion disks (Braess and
Hadeler 1973; Bini and Fiorentino 2000), bounded over the coefficient
intervals, then certify the result: pairwise disjoint disks hold one root
each, or ConvergenceFailure is raised.  The same disks prove a spectrum real
with distinct moduli.  The route shares no numerics with the cascade and has
no digit cap.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import mpf_shift, to_int

from .blocks import block_diag
from .errors import ConvergenceFailure
from .linalg import eigenvalues
from .model import DiagonalModel

GAP_TOL = 1e-9  # imaginary part and relative modulus gap of a real simple spectrum
NUMPY_DIGIT_CAP = 20.0  # the QR route loses accuracy from ~28 digits of spread on
GRADED_DIGITS = 40
_LN10 = math.log(10.0)
_MAX_POLISH_STEPS = 60
_thread_contexts = threading.local()


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

    def real_simple(self):
        """All-real with distinct moduli at GAP_TOL, judged in split form.

        Returns (ok, min relative modulus gap); relative gaps are computed
        as 1 - exp(log difference) so arbitrary scales are fine.
        """
        if np.any(np.abs(self.unit.imag) > GAP_TOL):
            return False, 0.0
        order = np.argsort(self.log_mod)[::-1]
        logs = self.log_mod[order]
        min_gap = math.inf
        ok = True
        for i in range(len(logs) - 1):
            gap = -math.expm1(logs[i + 1] - logs[i])
            min_gap = min(min_gap, gap)
            if gap <= GAP_TOL:
                ok = False
        return ok, min_gap


def match_scaled(a: ScaledSpectrum, b: ScaledSpectrum) -> float:
    """Maximal relative mismatch between two split-form spectra.

    Pairing a_i with b_j costs |a_i - b_j| / |b_j| in split form, or 1e30
    past a modulus ratio of e^50; the result is the largest cost of a
    min-sum assignment.  A NaN in either spectrum raises ValueError.
    """
    cost = _match_cost(a, b).tolist()
    return max(row[j] for row, j in zip(cost, _min_sum_assignment(cost)))


def _match_cost(a: ScaledSpectrum, b: ScaledSpectrum) -> np.ndarray:
    if len(a) != len(b):
        raise ValueError(f"spectra of different sizes: {len(a)} vs {len(b)}")
    dlog = a.log_mod[:, None] - b.log_mod[None, :]
    ratio = np.exp(np.clip(dlog, -50.0, 50.0))
    cost = np.abs(a.unit[:, None] * ratio - b.unit[None, :])
    cost = np.where(np.abs(dlog) > 50.0, 1e30, cost)
    if not np.isfinite(cost).all():
        raise ValueError("spectrum matching cost contains non-finite entries")
    return cost


def _min_sum_assignment(cost: list) -> list:
    """Column of each row in a min-sum assignment of a square cost matrix.

    Shortest augmenting paths with dual potentials (D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
    2016), O(d^3) for d rows; the costs must be finite.  Ties: among
    columns of equal reduced cost an unassigned column wins over an
    assigned one, and otherwise the lowest column index wins.
    """
    d = len(cost)
    u, v = [0.0] * d, [0.0] * d
    col4row, row4col = [-1] * d, [-1] * d
    for cur in range(d):
        dist, path, done = [math.inf] * d, [-1] * d, [False] * d
        rows, i, lowest, sink = [], cur, 0.0, -1
        while sink < 0:  # Dijkstra over reduced costs until a free column
            rows.append(i)
            ci, ui, best = cost[i], u[i], -1
            for j in range(d):
                if done[j]:
                    continue
                r = lowest + ci[j] - ui - v[j]
                if r < dist[j]:
                    dist[j], path[j] = r, i
                if best < 0 or dist[j] < dist[best] or (
                        dist[j] == dist[best] and row4col[j] < 0 <= row4col[best]):
                    best = j
            lowest, done[best] = dist[best], True
            if row4col[best] < 0:
                sink = best
            else:
                i = row4col[best]
        u[cur] += lowest
        for i in rows[1:]:
            u[i] += lowest - dist[col4row[i]]
        for j in range(d):
            if done[j]:
                v[j] -= lowest - dist[j]
        j, i = sink, -1
        while i != cur:  # flip the path back to the new row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return col4row


def spread_digits(model: DiagonalModel, n: int) -> float:
    """Decimal digits spanned by the coordinate moduli of T^n."""
    logs = n * model.coordinate_log_moduli()
    return float((logs.max() - logs.min()) / _LN10)


def product_spectrum(L: np.ndarray, model: DiagonalModel, n: int) -> ScaledSpectrum:
    """Spectrum of L T^n in split form, independent of the decomposition.

    Serves as the reference spectrum: the numpy eigensolver up to
    NUMPY_DIGIT_CAP digits of modulus spread, the certified graded route at
    any spread beyond.
    """
    L = np.asarray(L, dtype=float)
    logs = n * model.coordinate_log_moduli()
    if (logs.max() - logs.min()) / _LN10 <= NUMPY_DIGIT_CAP:
        center = float((logs.max() + logs.min()) / 2.0)
        M = L @ block_diag(*(math.exp(n * math.log(b.modulus) - center) * b.unit_power(n)
                             for b in model.diag_blocks))
        return ScaledSpectrum.from_values(eigenvalues(M), log_scale=center)
    return certified_spectrum(L, model, n)[0]


def certified_spectrum(L: np.ndarray, model: DiagonalModel, n: int):
    """The graded route at any spread: (spectrum, proved real simple).

    Every eigenvalue lies in an isolated inclusion disk around the returned
    one; the flag is True when the disks prove all of them real with
    pairwise distinct moduli.  Raises ConvergenceFailure when the disks do
    not isolate the roots to half the working digits.
    """
    roots, _, real_simple = _inclusion_disks(L, model, n)
    mods = [abs(z) for z in roots]
    spectrum = ScaledSpectrum(
        unit=np.array([complex(z / m) for z, m in zip(roots, mods)]),
        log_mod=np.array([float(m.context.log(m)) for m in mods]),
    )
    return spectrum, real_simple


def _inclusion_disks(L: np.ndarray, model: DiagonalModel, n: int) -> tuple:
    """Roots of det(x - L T^n) as (centres, radius intervals, proved real simple)."""
    ctx, iv = _contexts()
    coeffs = _charpoly_coeffs(iv, np.asarray(L, dtype=float), model, n)
    mids = [ctx.make_mpf(c.mid._mpi_[0]) for c in coeffs]
    try:
        roots = _polish(ctx, mids, _newton_polygon_seeds(ctx, mids, model))
        radii, real_simple = _certify(iv, coeffs, roots)
    except ZeroDivisionError as exc:
        raise ConvergenceFailure(f"graded oracle at n={n}: vanishing denominator") from exc
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"graded oracle at n={n}: {exc}") from exc
    return roots, radii, real_simple


def _contexts():
    """This thread's private mpmath contexts at GRADED_DIGITS: (mpf, interval)."""
    pair = getattr(_thread_contexts, "pair", None)
    if pair is None:
        ctx = mpmath.MPContext()
        ctx.dps = GRADED_DIGITS
        iv = MPIntervalContext()
        iv.prec = ctx.prec
        pair = _thread_contexts.pair = (ctx, iv)
    return pair


def _charpoly_coeffs(iv, L: np.ndarray, model: DiagonalModel, n: int) -> list:
    """Intervals [c_0, ..., c_d] holding the exact coefficients of
    det(x - L T^n) = sum_k (-1)^k c_k x^(d-k).

    The rotation entries of L R are enclosed in exact integer interval
    arithmetic around interval cosines and sines, then rounded to the working
    precision.  Each principal minor is the exact minor of the rounded
    entries, widened by the multilinear Hadamard bound
    prod(|a_i| + |e_i|) - prod |a_i| for its rows a_i with rounding errors
    e_i.  Minors whose coordinates lie in the same blocks share one interval
    weight prod d_i, so they are summed exactly before it is applied.
    """
    d = model.d
    prec = iv.prec
    ratios = [[float(x).as_integer_ratio() for x in row] for row in L]
    F = max(den.bit_length() - 1 for row in ratios for _, den in row)
    A = [[num << (F - den.bit_length() + 1) for num, den in row] for row in ratios]
    lo = [[a << prec for a in row] for row in A]  # entries of L R, units 2^-(F+prec)
    hi = [row[:] for row in lo]
    power = []  # 2^-prec d_b per block
    owner = []  # block of each coordinate
    pos = 0
    for b, blk in enumerate(model.diag_blocks):
        power.append(iv.ldexp(iv.exp(n * iv.log(iv.mpf(blk.modulus))), -prec))
        owner += [b] * blk.size
        if blk.size == 1:
            if blk.value < 0 and n % 2 == 1:
                for rl, rh in zip(lo, hi):
                    rl[pos], rh[pos] = -rh[pos], -rl[pos]
        else:
            turns = Fraction(blk.theta) * n % 1
            angle = 2 * iv.pi * turns.numerator / turns.denominator
            cl, ch = _int_bounds(iv.cos(angle), prec)
            sl, sh = _int_bounds(iv.sin(angle), prec)
            for a, rl, rh in zip(A, lo, hi):  # B <- B R on columns pos, pos+1
                uc, us = _times(a[pos], cl, ch), _times(a[pos], sl, sh)
                vc, vs = _times(a[pos + 1], cl, ch), _times(a[pos + 1], sl, sh)
                rl[pos], rh[pos] = uc[0] + vs[0], uc[1] + vs[1]
                rl[pos + 1], rh[pos + 1] = vc[0] - us[1], vc[1] - us[0]
        pos += blk.size
    # rounded entries and their rounding errors, units 2^-prec
    Bint, err = [], []
    for rl, rh in zip(lo, hi):
        low, high = [x >> F for x in rl], [-(-x >> F) for x in rh]
        Bint.append([(a + b) // 2 for a, b in zip(low, high)])
        err.append([b - r for b, r in zip(high, Bint[-1])])
    norm = [math.isqrt(sum(a * a for a in row)) + 1 for row in Bint]
    slack = [math.isqrt(sum(e * e for e in row)) + 1 for row in err]

    prefix = {(): (1, 1)}  # S -> (prod (norm + slack), prod norm) over its rows
    sums = {}  # blocks of S -> exact [low, high] sums of its minors
    for k in range(1, d + 1):
        for S in combinations(range(d), k):
            wide, tight = prefix[S[:-1]]
            i = S[-1]
            wide, tight = wide * (norm[i] + slack[i]), tight * norm[i]
            prefix[S] = (wide, tight)
            minor = _bareiss_det([[Bint[r][c] for c in S] for r in S])
            bounds = sums.setdefault(tuple(owner[i] for i in S), [0, 0])
            bounds[0] += minor - (wide - tight)
            bounds[1] += minor + (wide - tight)

    weight = {(): iv.one}
    coeffs = [iv.one] + [iv.zero] * d
    for key, (low, high) in sums.items():  # every key comes after its prefix
        weight[key] = weight[key[:-1]] * power[key[-1]]
        coeffs[len(key)] += iv.mpf([low, high]) * weight[key]
    return coeffs


def _int_bounds(x, prec: int) -> tuple:
    """floor(a 2^prec) and ceil(b 2^prec) for the interval x = [a, b]."""
    a, b = x._mpi_
    return to_int(mpf_shift(a, prec), "f"), to_int(mpf_shift(b, prec), "c")


def _times(u: int, lo: int, hi: int) -> tuple:
    """The interval u [lo, hi] for an exact integer u."""
    return (u * lo, u * hi) if u >= 0 else (u * hi, u * lo)


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


def _certify(iv, coeffs: list, roots: list) -> tuple:
    """Prove each root isolated: (radius intervals, real with distinct moduli).

    ``coeffs`` are intervals holding [c_0, ..., c_d], ``roots`` the polished
    approximations z_i.  With W_i = p(z_i) / prod_{j != i} (z_i - z_j) the
    Weierstrass corrections of the monic p, the roots of p are the
    eigenvalues of diag(z) - 1 W^T, whose Gerschgorin column disks
    D(z_i - W_i, (d-1)|W_i|) lie inside D(z_i, d|W_i|).  |W_i| is bounded
    above over every polynomial in the intervals.  Pairwise disjoint disks
    hold exactly one root each.  When the modulus ranges |z_i| +- r_i are
    pairwise disjoint too, the moduli are distinct and every root is real:
    the conjugate of a root is a root of the same modulus, which only the
    root's own disk can hold.  Raises ConvergenceFailure when two disks
    meet or a disk is wider than half the working digits.
    """
    d = len(roots)
    poly = _monic(coeffs)
    # centres on the real axis keep the interval arithmetic real
    zs = [iv.mpf(z.real) if z.imag == 0 else iv.mpc(z.real, z.imag) for z in roots]
    gap = {}
    for i, j in combinations(range(d), 2):
        gap[i, j] = gap[j, i] = abs(zs[i] - zs[j])
    mods = [abs(z) for z in zs]
    tol = iv.mpf(10) ** (-(iv.dps // 2))
    radii = []
    for i, z in enumerate(zs):
        p = poly[0]
        for a in poly[1:]:
            p = p * z + a
        r = d * abs(p) / iv.fprod(gap[i, j] for j in range(d) if j != i)
        if not r.b <= (tol * mods[i]).a:
            raise ConvergenceFailure(f"root {i} is not isolated to {iv.dps // 2} digits")
        radii.append(r)

    def apart(x, y):  # every point of x above every point of y
        return x.a > y.b

    real_simple = True
    for i, j in combinations(range(d), 2):
        if not apart(gap[i, j], radii[i] + radii[j]):
            raise ConvergenceFailure(f"inclusion disks of roots {i} and {j} meet")
        real_simple = real_simple and (apart(mods[i] - radii[i], mods[j] + radii[j])
                                       or apart(mods[j] - radii[j], mods[i] + radii[i]))
    return radii, real_simple
