"""Dense small-matrix primitives: rotations, inverses, spectra, polar forms.

All matrices are 2-D numpy float arrays of dimension up to ~10.  Angles are in
turns (theta in [0, 1), rotation by 2*pi*theta) throughout the package.
The lattice routines at the end work on rows of Python integers instead,
exactly.

This is the package's one LAPACK caller.  It calls the gufuncs behind
numpy.linalg (``svd``, ``inv``, ``eigvals``, ``det``) directly, bound once
at import, because numpy's per-call wrappers cost more than LAPACK itself
on these small matrices.  It keeps what the wrappers guarantee: the same
LAPACK routine, hence the same values bit for bit; LinAlgError on a NaN or
infinite entry (numpy's svd and inv would return NaN or a wrong inverse
for an infinite one); numpy's own error state around svd, inv and eigvals,
so a LAPACK failure raises numpy's LinAlgError and no RuntimeWarning; and
a real eigvals result when every imaginary part is 0.

Norms that are only compared, never stored, skip the SVD when a Frobenius
bound settles them (||M||_2 <= ||M||_F).  ``norm_below(M, bound)`` is True
when hypot(*M.flat) < bound (1 - 1e-12); for matrices of this size the
computed Frobenius norm and LAPACK's sigma_max each err by a few hundred
eps at most, far below the 1e-12 slack, so the answer is op_norm's, which
decides when the bound does not.  ``invert`` of a d x d matrix, or of a
stack (N, d, d), returns LAPACK's inverse at once when f^2 =
||J||_F^2 ||J^-1||_F^2 <= min(d^2 (1 / (4 SINGULAR_SCALE_TOL))^(2/d),
CONDITION_CAP^2 / 4), both norms taken over the whole array.  By AM-GM and
Hadamard's inequality the product of the row norms is then at most
|det J| / (4 SINGULAR_SCALE_TOL), and cond_2 J <= f <= CONDITION_CAP / 2:
the guards pass with a factor 4 and 2 to spare, which covers the rounding
of f, of the inverse (cond_2 J < 1e7 under this limit) and of the guards.
On a stack f^2 bounds each item's own product, so it only ever passes
items, and LAPACK gives each item the bits it gives the item alone.  A
larger f runs the guards, item by item on a stack: the SVD, and the LU
determinant against the row norms by ``_below_threshold``, the singularity
test that ``polar_2x2`` shares.
"""

from __future__ import annotations

import functools
import math
from itertools import starmap

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegeneratePolar,
    IllConditioned,
    NegativeDeterminant,
    SingularMatrix,
)

try:  # numpy 1.x has svd_n/svd_m here instead of svd, and no numpy._core
    from numpy._core._ufunc_config import _extobj_contextvar
    from numpy._core.umath import _make_extobj
    from numpy.linalg._umath_linalg import det as _det_gufunc
    from numpy.linalg._umath_linalg import eigvals as _eigvals_gufunc
    from numpy.linalg._umath_linalg import inv as _inv_gufunc
    from numpy.linalg._umath_linalg import svd as _svd_gufunc
except ImportError as exc:
    raise ImportError(f"spectral_cascade needs numpy>=2.0 for the LAPACK gufuncs behind "
                      f"numpy.linalg; numpy {np.__version__} is installed") from exc

SINGULAR_SCALE_TOL = 1e-14
CONDITION_CAP = 1e12
_FLOAT_MIN = 2.0 ** -1022  # the least normal float


def _failing_with(message: str):
    """numpy.linalg's error state around one gufunc: a LAPACK failure (which
    sets the invalid flag) raises LinAlgError(message), and overflow,
    division and underflow inside LAPACK are ignored."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


_SVD_FAILS = _failing_with("SVD did not converge")
_INV_FAILS = _failing_with("Singular matrix")
_EIGVALS_FAILS = _failing_with("Eigenvalues did not converge")
_QUIET = _make_extobj(invalid="ignore", over="ignore", divide="ignore", under="ignore")


def _finite(M: np.ndarray) -> np.ndarray:
    """M, after raising LinAlgError if an entry is NaN or infinite.

    The sum of squares is finite exactly when every entry is, unless it
    overflows (entries beyond ~1e154); only then are the entries tested.
    """
    if not math.isfinite(np.vdot(M, M)) and not np.isfinite(M).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return M


def _lapack(gufunc, M: np.ndarray, signature: str, state) -> np.ndarray:
    """gufunc(M) of a finite M, under the error state numpy.linalg sets for it."""
    token = _extobj_contextvar.set(state)
    try:
        return gufunc(M, signature=signature)
    finally:
        _extobj_contextvar.reset(token)


def _svd(M: np.ndarray) -> np.ndarray:
    """numpy.linalg.svd(M, compute_uv=False) of a 2-D float array."""
    return _lapack(_svd_gufunc, _finite(M), "d->d", _SVD_FAILS)


def _inv(M: np.ndarray) -> np.ndarray:
    """numpy.linalg.inv(M) of a square float array or stack, whose entries its
    callers check (invert's guards, through _svd) or whose inverse they keep
    only under a finite certificate (_certified_inverse)."""
    return _lapack(_inv_gufunc, M, "d->d", _INV_FAILS)


def _eigvals(M: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvals(M) of a square float array: real when every
    imaginary part is 0, complex otherwise."""
    w = _lapack(_eigvals_gufunc, _finite(M), "d->D", _EIGVALS_FAILS)
    return w if np.count_nonzero(w.imag) else w.real


def _det(M: np.ndarray) -> float:
    """numpy.linalg.det(M) of a square float array (numpy sets no error state)."""
    return _det_gufunc(_finite(M), signature="d->d")


def _cos_sin_turns(theta: float) -> tuple[float, float]:
    """(cos, sin) of 2*pi*theta, exact at quarter turns."""
    r = theta - math.floor(theta)
    q = 4.0 * r
    if q == round(q):
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[int(q) % 4]
    return math.cos(2.0 * math.pi * r), math.sin(2.0 * math.pi * r)


def rotation_matrix(theta) -> np.ndarray:
    """2x2 rigid rotation by the angle ``theta`` in turns; for an array of
    angles, the stack of their rotations, each formed as alone."""
    if isinstance(theta, np.ndarray) and theta.ndim:
        stack = [rotation_matrix(t) for t in theta.ravel().tolist()]
        return np.array(stack).reshape(theta.shape + (2, 2))
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    c, s = _cos_sin_turns(theta)
    return np.array([[c, -s], [s, c]])


def op_norm(M: np.ndarray) -> float:
    """Operator (spectral) norm."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(_svd(M)[0])


def norm_below(M: np.ndarray, bound: float):
    """op_norm(M) < bound, without an SVD when ||M||_F settles it (see the
    module docstring for the 1e-12 slack).  On a stack (N, r, c) it answers
    in a list, item by item."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 3:
        fro = starmap(math.hypot, M.reshape(len(M), M.shape[1] * M.shape[2]).tolist())
        return [f < bound * (1.0 - 1e-12) or op_norm(M[i]) < bound for i, f in enumerate(fro)]
    return math.hypot(*M.ravel().tolist()) < bound * (1.0 - 1e-12) or op_norm(M) < bound


def singular_values_2x2(M: np.ndarray) -> tuple[float, float]:
    """(sigma_max, sigma_min) of a 2x2 matrix in closed form.

    For M = [[a, b], [c, d]], sigma_max = (hypot(a+d, c-b) + hypot(a-d, b+c)) / 2,
    exact in real arithmetic, and sigma_min = |ad - bc| / sigma_max (0 for M = 0).
    """
    (a, b), (c, d) = M.tolist()
    smax = 0.5 * (math.hypot(a + d, c - b) + math.hypot(a - d, b + c))
    return smax, (abs(a * d - b * c) / smax if smax else 0.0)


def _row_norm_product(rows: list) -> tuple[float, int]:
    """The product of the row norms of a matrix, given as its rows
    (``J.tolist()``), each floored at 1e-300, as a mantissa and a binary
    exponent (``math.frexp``).

    The explicit left-to-right sums equal numpy's row norms bit for bit up to
    7 columns (numpy sums 8 or more terms pairwise; builtin ``sum``
    compensates from Python 3.12 on).  A sum that overflows or leaves the
    normal range, for a row norm above ~1.3e154 or below ~1.5e-154, is
    replaced by the row's norm from ``math.hypot``.  The product never leaves
    the float range; wherever the plain running product stays normal, mant
    2^exp is that product, bit for bit.
    """
    mant, exp = 1.0, 0
    for row in rows:
        s = 0.0
        for x in row:
            s += x * x
        norm = math.sqrt(s) if _FLOAT_MIN <= s < math.inf else math.hypot(*row)
        mant, e = math.frexp(mant * max(norm, 1e-300))
        exp += e
    return mant, exp


def _below_threshold(det: float, e: int, rows: list) -> bool:
    """|det| 2^e below SINGULAR_SCALE_TOL times the row-norm product of a
    matrix given as its rows, in mantissa-exponent form: the plain comparison
    wherever both sides are normal floats, and scale-free beyond them."""
    mant, exp = _row_norm_product(rows)
    m, f = math.frexp(abs(det))
    # from f + e > exp on, |det| 2^e >= 2^exp passes the threshold, below 1e-14 2^exp
    return math.ldexp(m, min(f + e - exp, 0)) < SINGULAR_SCALE_TOL * mant


def _ldexp(x: float, e: int) -> float:
    """x 2^e, or +-inf past the float range: the value an error message prints."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _certified_inverse(J: np.ndarray):
    """LAPACK's inverse of a d x d matrix J, or of a stack (N, d, d), when
    ||J||_F ||J^-1||_F over the whole array proves that invert's guards pass
    on every item (see the module docstring); else None."""
    fro2 = float(np.vdot(J, J))
    if not math.isfinite(fro2):
        return None
    try:
        Ji = _inv(J)
    except np.linalg.LinAlgError:  # an exact zero pivot: the guards decide
        return None
    return Ji if fro2 * float(np.vdot(Ji, Ji)) <= _certificate_limit(J.shape[-1]) else None


@functools.cache
def _certificate_limit(d: int) -> float:
    return min(d * d * (0.25 / SINGULAR_SCALE_TOL) ** (2.0 / d), 0.25 * CONDITION_CAP ** 2)


def invert(J: np.ndarray) -> np.ndarray:
    """Matrix inverse with scale-invariant singularity / conditioning guards.

    SingularMatrix when |det J| is below the scale threshold (see
    ``_below_threshold``) or a singular value is 0; IllConditioned when
    sigma_max / sigma_min passes CONDITION_CAP.  1x1 matrices are inverted
    as 1/x at once when every entry has modulus 1e-290 or more.  Otherwise
    the inverse is LAPACK's, returned at once when the Frobenius certificate
    passes and after the guards on the SVD and the LU determinant of J 2^-k
    if not.  A stack (N, d, d) that the certificate does not pass whole goes
    item by item, raising the error of the first item refused.
    """
    J = np.asarray(J, dtype=float)
    d = J.shape[-1]
    if d != J.shape[-2]:
        raise ValueError(f"invert: matrix not square: {J.shape}")
    if d == 1 and all(1e-290 <= abs(x) < math.inf for x in J.ravel().tolist()):  # guards pass
        return 1.0 / J
    Ji = _certified_inverse(J)
    if Ji is not None:
        return Ji
    if J.ndim == 3:
        return np.array([invert(M) for M in J])
    sv = _svd(J).tolist()
    # the LU determinant of J 2^-k, whose entries are at most 1, is
    # |det J| 2^(-d k) in the float range; quiet where it leaves it
    k = math.frexp(sv[0])[1]
    det = float(_lapack(_det_gufunc, np.ldexp(J, -k), "d->d", _QUIET))
    if _below_threshold(det, d * k, J.tolist()) or sv[-1] == 0:
        raise SingularMatrix(f"|determinant| {_ldexp(abs(det), d * k):g} below scale threshold")
    if sv[0] / sv[-1] > CONDITION_CAP:
        raise IllConditioned(f"condition number {sv[0] / sv[-1]:.3g} above cap")
    return _inv(J)


def singular_values(J: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    return _svd(np.asarray(J, dtype=float))


def eigenvalues(J: np.ndarray) -> np.ndarray:
    """All eigenvalues (complex, conjugate-paired) via the QR eigensolver."""
    J = np.asarray(J, dtype=float)
    if J.shape[-1] != J.shape[-2]:
        raise ValueError(f"eigenvalues: matrix not square: {J.shape}")
    try:
        return _eigvals(J)
    except np.linalg.LinAlgError as exc:  # a NaN or infinite entry, or no convergence
        raise ConvergenceFailure(str(exc)) from exc


def polar_2x2(M: np.ndarray):
    """Closed-form polar form M = P R_alpha of a 2x2 matrix with det M > 0.

    Returns ``(P, alpha, eps_hat)``: P symmetric positive-definite, alpha in
    turns in [0, 1), and the rotation margin eps_hat = arccos(2 sqrt(det P) /
    tr P) / (2 pi) of P, so every |eps| < eps_hat gives tr(P R_eps)^2 >
    4 det(P R_eps), hence real simple eigenvalues.  For M = [[a, b], [c, d]]
    the rotation has cos = (a+d)/s and sin = (c-b)/s with s = hypot(a+d, c-b);
    then P = M R^T is symmetric with tr P = s and det P = det M.  det, tr,
    skew and s are formed on M 2^-k, k the binary exponent of M's largest
    entry, which scales them exactly, so neither overflows or underflows and
    M is singular by ``_below_threshold``, as in ``invert``.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"polar decomposition needs a 2x2 matrix, got {M.shape}")
    rows = M.tolist()
    (a, b), (c, d) = rows
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    sa, sb, sc, sd = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k), math.ldexp(d, -k)
    det = sa * sd - sb * sc  # det M 2^-2k
    if _below_threshold(det, 2 * k, rows):
        raise SingularMatrix(f"determinant {_ldexp(det, 2 * k):g} below scale threshold")
    if det < 0:
        raise NegativeDeterminant(f"determinant {_ldexp(det, 2 * k):g} < 0: reflection case")
    tr, skew = sa + sd, sc - sb
    s = math.hypot(tr, skew)
    ratio = 2.0 * math.sqrt(det) / s  # s^2 - 4 det = (sa-sd)^2 + (sb+sc)^2 >= 0
    if ratio >= 1.0 - 1e-12:
        raise DegeneratePolar("equal eigenvalues: zero rotation margin")
    co, si = tr / s, skew / s
    P = np.array([[a * co - b * si, a * si + b * co],
                  [c * co - d * si, c * si + d * co]])
    alpha = math.atan2(skew, tr) / (2.0 * math.pi)
    return P, alpha % 1.0, math.acos(ratio) / (2.0 * math.pi)


def signed_fraction(x) -> np.ndarray:
    """Reduce to the symmetric unit interval [-1/2, 1/2)."""
    return np.asarray((np.asarray(x) + 0.5) % 1.0 - 0.5)


def phase_mod1(theta: float, n, offset: float = 0.0) -> np.ndarray:
    """(n * theta + offset) mod 1, in [0, 1), for an integer or integer array n.

    theta = p / 2**q exactly, so n theta mod 1 is n p mod 2**q over 2**q,
    rounded once, for any |n| < 2**63: by numpy's uint64 product, which wraps
    mod 2**64, on an array with q <= 64 (theta >= 2**-12), else by Python
    integers, with the same bits.  The offset adds in floating point, within
    2 * 2**-53 of the exact phase around the circle; beside an array n it may
    be an array of the same shape, one offset per exponent.  An array past
    int64 raises OverflowError.
    """
    p, den = theta.as_integer_ratio()
    if isinstance(n, int) or np.ndim(n) == 0:  # a Python int skips np.ndim's microsecond
        return np.float64((int(n) * p % den / den + offset % 1.0) % 1.0)
    n = np.asarray(n, dtype=np.int64)
    turn = ((n.astype(object) * p % den / den).astype(float) if den > 2 ** 64 else
            (n.view(np.uint64) * np.uint64(p) & np.uint64(den - 1)) / float(den))
    return (turn + offset % 1.0) % 1.0


def lll_reduce(b: list) -> tuple[list, list]:
    """LLL-reduce the independent integer rows b in place, delta = 99/100.

    Integral bookkeeping of Cohen, Alg. 2.6.7: returns the Gram-Schmidt data of
    the reduced rows exactly, ||b*_i||^2 = d[i+1] / d[i] and
    mu_kj = lam[k][j] / d[j+1].
    """
    n = len(b)
    d, lam = [1] + [0] * n, [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            lam[k][j] = u
        d[k + 1] = lam[k][k]
    k = 1
    while k < n:
        for l in range(k - 1, -1, -1):
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[l])]
                lam[k][l] -= q * d[l + 1]
                for i in range(l):
                    lam[k][i] -= q * lam[l][i]
        lk = lam[k][k - 1]
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * lk ** 2:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        d_new = (d[k - 1] * d[k + 1] + lk ** 2) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (d_new * t + lk * lam[i][k]) // d[k + 1]
        d[k] = d_new
        k = max(1, k - 1)
    return d, lam


def short_vectors(d: list, lam: list, radius2: int):
    """Fincke-Pohst enumeration over the Gram-Schmidt data of lll_reduce.

    Yields every integer coefficient vector x (the zero vector included)
    with ||sum_i x_i b_i||^2 <= radius2, the last coefficient outermost.
    With N_i = d[i+1] x_i + sum_{j>i} lam[j][i] x_j the squared norm is
    sum_i N_i^2 / (d[i] d[i+1]); every term and the remaining radius are
    kept over the common denominator Q = prod_i d[i] d[i+1], so each level's
    range of x_i follows from an integer square root, exactly.
    """
    n = len(d) - 1
    x = [0] * n
    Q = math.prod(d[i] * d[i + 1] for i in range(n))
    w = [Q // (d[i] * d[i + 1]) for i in range(n)]  # N_i^2 / (d[i] d[i+1]) = w[i] N_i^2 / Q

    def level(i, rest):
        if i < 0:
            yield list(x)
            return
        s = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        m = math.isqrt(rest // w[i])  # |N_i| <= m
        for x[i] in range(-((m + s) // d[i + 1]), (m - s) // d[i + 1] + 1):
            N = d[i + 1] * x[i] + s
            yield from level(i - 1, rest - w[i] * N * N)
        x[i] = 0

    yield from level(n - 1, radius2 * Q)
