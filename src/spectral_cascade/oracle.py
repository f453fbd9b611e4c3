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

Minors whose coordinates fall in the same blocks, one key, share their
weight prod d_i, and each key's minor sum is sum_eps C_eps prod (c_b or s_b)
over the rotation blocks it cuts in half, with integers C_eps that depend
only on the bits of L (see the minors module); a negative scalar adds a
factor -1 at odd n.  The tables of C_eps and of each key's Hadamard bound,
which decides with the weights whether the key is formed, are kept per L.
Per exponent only the weights, the phases and one exact evaluation and
rounding per formed key are new.

Everything runs on Python integers, in midpoint-radius balls: an integer
centre times a power of two, with a radius rounded outward (F. Johansson,
"Arb", IEEE Trans. Comput. 66, 2017), at GRADED_DIGITS digits.  A weight
d_i = modulus^n comes from binary powering of the exact dyadic modulus,
rounded down and up.  Among the enclosures, mpmath (at libmp level)
serves the cosines and sines of the phases only: a phase turn
n*theta mod 1 is an exact dyadic rational, so its cosine and sine come
from one evaluation at that turn, (p n mod q) / q for theta = p / q in
integers, widened outward as libmp's own interval cosine widens its
evaluations.  Terms that are negligible against the largest of their
coefficient are not formed.  Each block of the ladder is one segment of
the Newton polygon, so a linear or quadratic in consecutive coefficients
seeds that block's roots.  One loop then evaluates p by Horner at every
exact centre as a ball, multiplies the differences of the centres, and
forms the Weierstrass corrections W_i, stepping z_i <- z_i - mid W_i
(Durand-Kerner) until they are small; a product of real balls forms no
imaginary part and no radius term of one.  The last corrections give
Weierstrass inclusion disks (Braess and Hadeler 1973; Bini and Fiorentino
2000), bounded over the coefficient balls.  Pairwise disjoint disks hold
one root each, or ConvergenceFailure is raised.  The same disks prove a spectrum real with distinct moduli.  The route shares no
numerics with the cascade and has no digit cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
from mpmath import libmp

from . import minors
from .blocks import block_diag
from .errors import ConvergenceFailure
from .linalg import eigenvalues
from .model import DiagonalModel

GAP_TOL = 1e-9  # imaginary part and relative modulus gap of a real simple spectrum
NUMPY_DIGIT_CAP = 20.0  # QR agrees with the graded route to 1e-11 up to here; from
# ~28 digits of spread on it is off by up to 1e-3 on (1,1,2) and (2,2)
GRADED_DIGITS = 40
_LN10 = math.log(10.0)
_PREC = libmp.dps_to_prec(GRADED_DIGITS)  # 136 bits
_MAX_POLISH_STEPS = 60
_ONE, _ZERO = (1, 0, 0, 0), (0, 0, 0, 0)


@dataclass(frozen=True)
class ScaledSpectrum:
    """Eigenvalue multiset stored as unit directions and log moduli."""

    unit: np.ndarray  # complex, modulus 1 (0 for an exact zero)
    log_mod: np.ndarray  # natural log of the modulus

    @classmethod
    def from_values(cls, values, log_scale: float = 0.0) -> "ScaledSpectrum":
        values = np.asarray(values, dtype=complex)
        mods = np.abs(values)
        if mods.min(initial=math.inf) >= 1e-300:  # the same values as below, without the masks
            return cls(unit=values / mods, log_mod=np.log(mods) + log_scale)
        positive = mods > 0
        safe = np.maximum(mods, 1e-300)
        unit = np.where(positive, values / safe, 0.0)
        log_mod = np.where(positive, np.log(safe) + log_scale, -np.inf)
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
    centres, _, real_simple = _inclusion_disks(L, model, n)
    parts = [_split_form(z) for z in centres]
    spectrum = ScaledSpectrum(unit=np.array([u for u, _ in parts], dtype=complex),
                              log_mod=np.array([m for _, m in parts], dtype=float))
    return spectrum, real_simple


def _inclusion_disks(L: np.ndarray, model: DiagonalModel, n: int) -> tuple:
    """Roots of det(x - L T^n) as (centre balls, radius bounds, proved real simple)."""
    coeffs = _charpoly_coeffs(np.asarray(L, dtype=float), model, n)
    try:
        centres, corrections = _refine(coeffs, _newton_polygon_seeds(coeffs, model))
        radii, real_simple = _certify(centres, corrections)
    except ZeroDivisionError as exc:
        raise ConvergenceFailure(f"graded oracle at n={n}: vanishing denominator") from exc
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"graded oracle at n={n}: {exc}") from exc
    return centres, radii, real_simple


# A ball (x, y, r, e) is the disk of centre (x + iy) 2^e and radius r 2^e,
# for integers x, y and r >= 0; a real ball has y = 0 and an exact one r = 0.
# Each operation encloses its exact result and rounds the centre to _PREC
# bits, adding the rounding error to the radius.  A bound (m, e) is m 2^e.

def _trim(x, y, r, e) -> tuple:
    m = abs(x) | abs(y)
    s = (m if m > r else r).bit_length() - _PREC
    if s <= 0:
        return x, y, r, e
    return x >> s, y >> s, -(-r >> s) + _floor_error(x | y, s), e + s


def _floor_error(v: int, s: int) -> int:
    """Units that x >> s and y >> s may move x + iy by, for v = x | y."""
    return 2 if 0 < (v & -v).bit_length() <= s else 0  # a set bit below 2^s


def _sum(*balls) -> tuple:
    """The sum, at most _PREC + log2(len(balls)) bits of centre."""
    e = None
    for x, y, r, f in balls:
        if x or y or r:
            m = abs(x) | abs(y)
            top = f + (m if m > r else r).bit_length()
            e = top if e is None or top > e else e
    if e is None:
        return _ZERO
    e -= _PREC
    X = Y = R = 0
    for x, y, r, f in balls:
        s = e - f
        if s <= 0:
            X, Y, R = X + (x << -s), Y + (y << -s), R + (r << -s)
        else:
            X, Y, R = X + (x >> s), Y + (y >> s), R - (-r >> s) + _floor_error(x | y, s)
    return X, Y, R, e


def _neg(b: tuple) -> tuple:
    return -b[0], -b[1], b[2], b[3]


def _mul(a: tuple, b: tuple) -> tuple:
    ax, ay, ar, ae = a
    bx, by, br, be = b
    if ay or by:
        r = ar * (abs(bx) + abs(by) + br) + br * (abs(ax) + abs(ay))
        return _trim(ax * bx - ay * by, ax * by + ay * bx, r, ae + be)
    return _trim(ax * bx, 0, ar * (abs(bx) + br) + br * abs(ax), ae + be)  # real factors


def _div(a: tuple, b: tuple) -> tuple:
    """a / b; ZeroDivisionError when the ball b holds 0."""
    ax, ay, ar, ae = a
    bx, by, br, be = b
    den = bx * bx + by * by
    low = math.isqrt(den) - br  # |b| >= low 2^be
    if low <= 0:
        raise ZeroDivisionError("divisor ball holds 0")
    nx, ny = ax * bx + ay * by, ay * bx - ax * by
    k = max(0, _PREC + den.bit_length() - (abs(nx) | abs(ny)).bit_length())
    qx, rx = divmod(nx << k, den)
    qy, ry = divmod(ny << k, den)
    # |a'/b' - a/b| <= (ar + |a/b| br) / (|b| - br), in units 2^(ae - be - k)
    r = -(-((ar << k) + (abs(qx) + abs(qy) + 2) * br) // low) + (2 if rx or ry else 0)
    return _trim(qx, qy, r, ae - be - k)


def _mag(b: tuple) -> tuple:
    """Upper bound of |z| over the ball."""
    x, y, r, e = b
    return (abs(x) if y == 0 else math.isqrt(x * x + y * y) + 1) + r, e


def _mig(b: tuple) -> tuple:
    """Lower bound, at least 0, of |z| over the ball."""
    x, y, r, e = b
    return max((abs(x) if y == 0 else math.isqrt(x * x + y * y)) - r, 0), e


def _minus(bound: tuple) -> tuple:
    return -bound[0], bound[1]


def _sign(*bounds) -> int:
    """Sign of the exact sum of the bounds (m, e).

    The terms are added largest first, by their top bit t (|m| 2^e < 2^t),
    into an exact partial sum, which stops once it exceeds the count of the
    terms left times 2^t of the next: these cannot change its sign.  A term
    far below the sum is thus never aligned to it; with every term added the
    sum is exact, exact cancellations included.
    """
    terms = sorted([(f + abs(m).bit_length(), m, f) for m, f in bounds if m], reverse=True)
    total = e = 0
    for i, (t, m, f) in enumerate(terms):
        if not total:
            total, e = m, f
        elif abs(total).bit_length() + e > (len(terms) - i).bit_length() + t:
            break
        elif f < e:
            total, e = (total << (e - f)) + m, f
        else:
            total += m << (f - e)
    return (total > 0) - (total < 0)


def _charpoly_coeffs(L: np.ndarray, model: DiagonalModel, n: int) -> list:
    """Real balls [c_0, ..., c_d] holding the exact coefficients of
    det(x - L T^n) = sum_k (-1)^k c_k x^(d-k).

    Each term is a key's minor sum, evaluated exactly in the midpoint-radius
    enclosures of its phases' cosines and sines, times the key's weight
    ball.  Terms go in decreasing order of their bound; a term whose bound
    lies below cut, 2 _PREC bits under the largest term formed for its c_k,
    is not formed: together they only widen the radius, as the disk of
    radius (their count) 2^cut about 0.
    """
    table = minors.minor_table(L, tuple(blk.size for blk in model.diag_blocks))
    power = [_weight(blk.modulus, n) for blk in model.diag_blocks]
    exps = [e + (x + r).bit_length() for x, _, r, e in power]  # |d_b| < 2^exps[b]
    phase = {}  # rotation block -> (cos, sin) as (mid, rad), units 2^-(_PREC+1)
    for b, blk in enumerate(model.diag_blocks):
        if blk.size == 2:
            num, den = blk.theta.as_integer_ratio()  # the turn n theta mod 1, exactly
            phase[b] = [(lo + hi, hi - lo) for lo, hi in _cos_sin(Fraction(num * n % den, den))]
    monomials = {(): [(1, 0)]}  # halves -> per eps, prod (cos or sin) as (mid, rad)

    def monomials_of(halves):
        if halves not in monomials:
            out = []
            for eps in range(1 << len(halves)):
                mid = wide = 1
                for i, b in enumerate(halves):
                    m, w = phase[b][eps >> i & 1]
                    mid, wide = mid * m, wide * (abs(m) + w)
                out.append((mid, wide - abs(mid)))
            monomials[halves] = out
        return monomials[halves]

    flips = {b for b, blk in enumerate(model.diag_blocks)
             if n % 2 == 1 and blk.size == 1 and blk.value < 0}
    weight = {(): _ONE}

    def weight_of(key):
        if key not in weight:
            weight[key] = _mul(weight_of(key[:-1]), power[key[-1]])
        return weight[key]

    terms = [[_ONE]] + [[] for _ in range(model.d)]
    for k in range(1, model.d + 1):
        keys = table.keys[k]
        scale = {key: sum(exps[b] for b in key) for key in keys}  # |weight| < 2^scale
        bound = {key: bits - table.F * k + scale[key] for key, (bits, _) in keys.items()}
        cut, dropped = -math.inf, 0
        for key in sorted(bound, key=bound.get, reverse=True):
            if bound[key] < cut:
                dropped += 1
                continue
            halves = keys[key][1]
            ball = _minor_sum(table, key, halves, monomials_of(halves),
                              len(flips.intersection(key)) % 2)
            x, _, r, e = ball
            cut = max(cut, (abs(x) + r).bit_length() + e + scale[key] - 2 * _PREC)
            terms[k].append(_mul(ball, weight_of(key)))
        if dropped:
            terms[k].append((0, 0, dropped, cut))
    return [_sum(*balls) for balls in terms]


def _minor_sum(table: minors.MinorTable, key: tuple, halves: tuple, monomials: list,
               negate: bool) -> tuple:
    """Exact real ball (x, 0, r, e) of a key's minor sum over its phase
    enclosures: sum_eps C_eps prod (cos or sin), each product given as
    (mid, rad) in units 2^-(_PREC+1) per half; negated when ``negate``."""
    x = r = 0
    for C, (mid, rad) in zip(table.sums(key), monomials):
        x, r = x + C * mid, r + abs(C) * rad
    return -x if negate else x, 0, r, -table.F * len(key) - (_PREC + 1) * len(halves)


def _weight(modulus: float, n: int) -> tuple:
    """Real ball of modulus^n, from the exact bounds of _power_bounds."""
    lo, hi, e = _power_bounds(modulus, n)
    return _trim(lo + hi, 0, hi - lo, e - 1)


def _power_bounds(modulus: float, n: int) -> tuple:
    """Integers (lo, hi, e) with lo 2^e <= modulus^n <= hi 2^e.

    The modulus is an exact dyadic m 2^f; binary powering keeps a lower and
    an upper bound of modulus^n, truncated to wp bits by floor and by
    ceiling after each step.  Each truncation moves a bound by a relative
    2^(2-wp) at most, and a squaring doubles the log ratio of the bounds, so
    after the bits(n) steps that ratio is below n 2^(4-wp): 2^-(_PREC+4) at
    wp = _PREC + bits(n) + 8.
    """
    m, den = modulus.as_integer_ratio()
    f = 1 - den.bit_length()
    wp = _PREC + n.bit_length() + 8
    lo = hi = 1
    e = 0
    for bit in bin(n)[2:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi, e = lo * m, hi * m, e + f
        s = hi.bit_length() - wp
        if s > 0:
            lo, hi, e = lo >> s, -(-hi >> s), e + s
    return lo, hi, e


def _cos_sin(turns: Fraction) -> tuple:
    """Integer bounds of 2^_PREC cos and 2^_PREC sin of the angle 2 pi turns.

    A dyadic turn is exact in libmp, so one evaluation at wp = _PREC + 20
    bits encloses each value once widened outward by the factor
    1 +- 2^(10 - wp), the factor with which libmp.mpi_cos_sin widens its own
    evaluations.  Raises ValueError on a turn that is not dyadic.
    """
    q = turns.denominator
    if q & (q - 1):
        raise ValueError(f"turn {turns} is not dyadic")
    wp = _PREC + 20
    x = libmp.from_man_exp(2 * turns.numerator, 1 - q.bit_length())  # 2 turns, exactly
    one, more = 1 << wp, 1 << 10
    bounds = []
    for sign, man, exp, _ in libmp.mpf_cos_sin(x, wp, pi=True):
        v = -int(man) if sign else int(man)  # value v 2^exp; gmpy2 mpz or int
        lo, hi = sorted((v * (one - more), v * (one + more)))  # units 2^(exp - wp)
        shift = int(exp) - wp + _PREC
        if shift >= 0:
            lo, hi = lo << shift, hi << shift
        else:
            lo, hi = lo >> -shift, -(-hi >> -shift)  # floor and ceiling
        bounds.append((max(lo, -1 << _PREC), min(hi, 1 << _PREC)))
    return tuple(bounds)


def _newton_polygon_seeds(coeffs: list, model: DiagonalModel) -> list:
    """One root cluster per block of the ladder, from its polygon segment.

    Block j owns the coefficients c_{K-size} .. c_K (K its last coordinate);
    all others are smaller at its scale by powers of the modulus ratios.
    """
    mids = [(x, 0, 0, e) for x, _, _, e in coeffs]
    seeds = []
    K = 0
    for blk in model.diag_blocks:
        K += blk.size
        if blk.size == 1:
            seeds.append(_div(mids[K], mids[K - 1]))
            continue
        a, b, c = mids[K - 2], mids[K - 1], mids[K]  # a x^2 - b x + c
        x, _, _, e = _sum(_mul(b, b), _mul((-4, 0, 0, 0), _mul(a, c)))
        s = max(0, 2 * _PREC - x.bit_length())
        s += (e - s) % 2
        root = math.isqrt(abs(x) << s)
        if x < 0:
            root = (0, root, 0, (e - s) // 2)
        else:
            root = (root if b[0] >= 0 else -root, 0, 0, (e - s) // 2)
        q = _mul(_sum(b, root), (1, 0, 0, -1))  # the larger of (b +- root) / 2
        seeds += [_div(q, a), _div(c, q)]
    return [(x, y, 0, e) for x, y, _, e in seeds]


def _refine(coeffs: list, centres: list) -> tuple:
    """Durand-Kerner steps on the monic p: (centres, Weierstrass corrections).

    Each pass evaluates p at every centre as a ball and forms the
    corrections W_i = p(z_i) / prod_{j != i} (z_i - z_j) (None where the
    divisor holds 0); it stops once every |mid W_i| <= 2^(8-prec) |z_i|, or
    after _MAX_POLISH_STEPS steps z_i <- z_i - mid W_i.
    """
    for _ in range(_MAX_POLISH_STEPS):
        W = _corrections(coeffs, centres)
        if None in W or all(_sign(_mig(z), _minus(_mag((w[0], w[1], 0, w[3] + _PREC - 8)))) >= 0
                            for z, w in zip(centres, W)):
            return centres, W
        # a real centre takes a real step: the exact W_i of conjugate centres is real
        centres = [(x, y, 0, e) for x, y, _, e in
                   (_sum(z, (-w[0], -w[1] if z[1] else 0, 0, w[3])) for z, w in zip(centres, W))]
    return centres, _corrections(coeffs, centres)


def _corrections(coeffs: list, centres: list) -> list:
    poly = [c if k % 2 == 0 else _neg(c) for k, c in enumerate(coeffs)]  # monic p
    diff = {}
    for i, j in combinations(range(len(centres)), 2):
        diff[i, j] = _sum(centres[i], _neg(centres[j]))
        diff[j, i] = _neg(diff[i, j])
    out = []
    for i, z in enumerate(centres):
        p = poly[0]
        for a in poly[1:]:
            p = _sum(_mul(p, z), a)
        q = _ONE
        for j in range(len(centres)):
            if j != i:
                q = _mul(q, diff[i, j])
        try:
            out.append(_div(p, q))
        except ZeroDivisionError:
            out.append(None)
    return out


def _certify(centres: list, corrections: list) -> tuple:
    """Prove each root isolated: (radius bounds, real with distinct moduli).

    ``centres`` are exact balls z_i and ``corrections`` the balls W_i of
    _refine at them.  The roots of p are the eigenvalues of
    diag(z) - 1 W^T, whose Gerschgorin column disks D(z_i - W_i, (d-1)|W_i|)
    lie inside D(z_i, d|W_i|), for every polynomial in the coefficient
    balls.  Pairwise disjoint disks hold exactly one root each.  When the
    modulus ranges |z_i| +- r_i are pairwise disjoint too, the moduli are
    distinct and every root is real: the conjugate of a root is a root of
    the same modulus, which only the root's own disk can hold.  The ranges
    are disjoint when, sorted by their exact lower ends, each lies strictly
    below the next; then the disks, which lie in them, are disjoint as well,
    and only otherwise are the disks compared pair by pair.  Raises
    ConvergenceFailure when two disks meet or a disk is wider than half the
    working digits.
    """
    d = len(centres)
    digits = GRADED_DIGITS // 2
    radii = []
    for i, (z, w) in enumerate(zip(centres, corrections)):
        m, e = (0, 0) if w is None else _mag(w)
        if w is None or _sign(_mig(z), (-(10 ** digits) * d * m, e)) < 0:
            raise ConvergenceFailure(f"root {i} is not isolated to {digits} digits")
        radii.append((d * m, e))
    low = [(_mig(z), _minus(r)) for z, r in zip(centres, radii)]  # |z_i| - r_i
    order = sorted(range(d), key=functools.cmp_to_key(
        lambda i, j: _sign(*low[i], *map(_minus, low[j]))))
    real_simple = all(_sign(*low[j], _minus(_mag(centres[i])), _minus(radii[i])) > 0
                      for i, j in zip(order, order[1:]))
    if not real_simple:
        for i, j in combinations(range(d), 2):
            if _sign(_mig(_sum(centres[i], _neg(centres[j]))),
                     _minus(radii[i]), _minus(radii[j])) <= 0:
                raise ConvergenceFailure(f"inclusion disks of roots {i} and {j} meet")
    return radii, real_simple


def _split_form(z: tuple) -> tuple:
    """(unit, natural log of the modulus) of an exact centre, as floats."""
    x, y, _, e = z
    if y == 0:
        if x == 0:
            return 0j, -math.inf
        square = libmp.from_man_exp(x * x, 2 * e)
        unit = complex(1.0 if x > 0 else -1.0)
    else:
        s = x * x + y * y
        square = libmp.from_man_exp(s, 2 * e)
        k = max(0, 2 * _PREC - s.bit_length() // 2)
        root = math.isqrt(s << 2 * k)  # |x + iy| 2^k
        unit = complex((x << k) / root, (y << k) / root)
    log_mod = libmp.mpf_shift(libmp.mpf_log(square, _PREC, "n"), -1)
    return unit, libmp.to_float(log_mod, rnd="n")
