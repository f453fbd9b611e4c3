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
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegeneratePolar,
    IllConditioned,
    NegativeDeterminant,
    PowerOverflow,
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
PHASE_EXPONENT_LIMIT = 2 ** 26  # phase_mod1's exact range
_OVERFLOW_NORM = 1e300


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
    """numpy.linalg.inv(M) of a finite square float array: invert's guards
    have checked M (the 2x2 closed form holds only for finite entries, and
    _svd tests them)."""
    return _lapack(_inv_gufunc, M, "d->d", _INV_FAILS)


def _eigvals(M: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvals(M) of a square float array: real when every
    imaginary part is 0, complex otherwise."""
    w = _lapack(_eigvals_gufunc, _finite(M), "d->D", _EIGVALS_FAILS)
    return w if np.count_nonzero(w.imag) else w.real


def _det(M: np.ndarray) -> float:
    """numpy.linalg.det(M) of a square float array (numpy sets no error state)."""
    return _det_gufunc(_finite(M), signature="d->d")


def cos_turns(theta: float) -> float:
    """cos(2*pi*theta), exact at quarter turns."""
    r = theta - math.floor(theta)
    q = 4.0 * r
    if q == round(q):
        return (1.0, 0.0, -1.0, 0.0)[int(q) % 4]
    return math.cos(2.0 * math.pi * r)


def sin_turns(theta: float) -> float:
    """sin(2*pi*theta), exact at quarter turns."""
    r = theta - math.floor(theta)
    q = 4.0 * r
    if q == round(q):
        return (0.0, 1.0, 0.0, -1.0)[int(q) % 4]
    return math.sin(2.0 * math.pi * r)


def rotation_matrix(theta: float) -> np.ndarray:
    """2x2 rigid rotation by the angle ``theta`` in turns."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    c, s = cos_turns(theta), sin_turns(theta)
    return np.array([[c, -s], [s, c]])


def op_norm(M: np.ndarray) -> float:
    """Operator (spectral) norm."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(_svd(M)[0])


def singular_values_2x2(M: np.ndarray) -> tuple[float, float]:
    """(sigma_max, sigma_min) of a 2x2 matrix in closed form.

    For M = [[a, b], [c, d]], sigma_max = (hypot(a+d, c-b) + hypot(a-d, b+c)) / 2,
    exact in real arithmetic, and sigma_min = |ad - bc| / sigma_max (0 for M = 0).
    """
    (a, b), (c, d) = M.tolist()
    smax = 0.5 * (math.hypot(a + d, c - b) + math.hypot(a - d, b + c))
    return smax, (abs(a * d - b * c) / smax if smax else 0.0)


def _singular_threshold(J: np.ndarray) -> float:
    """SINGULAR_SCALE_TOL times the product of the row norms of J.

    The explicit left-to-right sums equal numpy's row norms bit for bit up to
    7 columns (numpy sums 8 or more terms pairwise; builtin ``sum``
    compensates from Python 3.12 on).
    """
    scale = 1.0
    for row in J.tolist():
        s = 0.0
        for x in row:
            s += x * x
        scale *= max(math.sqrt(s), 1e-300)
    return SINGULAR_SCALE_TOL * scale


def invert(J: np.ndarray) -> np.ndarray:
    """Matrix inverse with scale-invariant singularity / conditioning guards."""
    J = np.asarray(J, dtype=float)
    if J.shape[0] != J.shape[1]:
        raise ValueError(f"invert: matrix not square: {J.shape}")
    sv = singular_values_2x2(J) if J.shape[0] == 2 else None
    if sv is None or not 0.0 < sv[1] < math.inf:  # SVD where ad - bc is 0 or out of range
        sv = _svd(J).tolist()
    abs_det = math.prod(sv)
    if abs_det < _singular_threshold(J):
        raise SingularMatrix(f"|determinant| {abs_det:g} below scale threshold")
    if sv[-1] <= 0 or sv[0] / sv[-1] > CONDITION_CAP:
        raise IllConditioned(f"condition number {sv[0] / max(sv[-1], 1e-300):.3g} above cap")
    return _inv(J)


def singular_values(J: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    return _svd(np.asarray(J, dtype=float))


def eigenvalues(J: np.ndarray) -> np.ndarray:
    """All eigenvalues (complex, conjugate-paired) via the QR eigensolver."""
    J = np.asarray(J, dtype=float)
    if J.shape[0] != J.shape[1]:
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
    then P = M R^T is symmetric with tr P = s and det P = det M.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"polar decomposition needs a 2x2 matrix, got {M.shape}")
    (a, b), (c, d) = M.tolist()
    det = a * d - b * c
    if abs(det) < _singular_threshold(M) or det == 0:  # the threshold underflows at M = 0
        raise SingularMatrix(f"determinant {det:g} below scale threshold")
    if det < 0:
        raise NegativeDeterminant(f"determinant {det:g} < 0: reflection case")
    tr, skew = a + d, c - b
    s = math.hypot(tr, skew)
    ratio = 2.0 * math.sqrt(det) / s  # s^2 - 4 det = (a-d)^2 + (b+c)^2 >= 0
    if ratio >= 1.0 - 1e-12:
        raise DegeneratePolar("equal eigenvalues: zero rotation margin")
    co, si = tr / s, skew / s
    P = np.array([[a * co - b * si, a * si + b * co],
                  [c * co - d * si, c * si + d * co]])
    alpha = math.atan2(skew, tr) / (2.0 * math.pi)
    return P, alpha % 1.0, math.acos(ratio) / (2.0 * math.pi)


def matrix_power_checked(M: np.ndarray, n: int) -> np.ndarray:
    """M^n by binary powering with an overflow guard on the running norm."""
    M = np.asarray(M, dtype=float)
    if n < 0:
        raise ValueError("negative power; invert first")
    d = M.shape[0]
    result = np.eye(d)
    base = np.array(M, copy=True)
    e = n
    with np.errstate(over="ignore", invalid="ignore"):
        while e:
            if e & 1:
                result = result @ base
                if not np.all(np.isfinite(result)) or np.abs(result).max() > _OVERFLOW_NORM:
                    raise PowerOverflow(f"power {n} overflows the representable range")
            e >>= 1
            if e:
                base = base @ base
                if not np.all(np.isfinite(base)) or np.abs(base).max() > _OVERFLOW_NORM:
                    raise PowerOverflow(f"power {n} overflows the representable range")
    return result


def signed_fraction(x) -> np.ndarray:
    """Reduce to the symmetric unit interval [-1/2, 1/2)."""
    return np.asarray((np.asarray(x) + 0.5) % 1.0 - 0.5)


def phase_mod1(theta: float, n, offset: float = 0.0) -> np.ndarray:
    """(n * theta + offset) mod 1 with compensated reduction.

    ``n`` may be a scalar or an integer array; exact for |n| < 2**26 up to
    ~1e-11 absolute error, so the ranged search may scan every exponent
    below PHASE_EXPONENT_LIMIT.  Raises ValueError for any |n| >=
    PHASE_EXPONENT_LIMIT.
    """
    n = np.asarray(n, dtype=float)
    top = abs(float(n)) if n.ndim == 0 else float(np.abs(n).max(initial=0.0))
    if top >= PHASE_EXPONENT_LIMIT:
        raise ValueError(f"phase_mod1 is exact only for |n| < 2**26, got {top:.0f}")
    hi = math.floor(theta * 2.0 ** 26) / 2.0 ** 26
    lo = theta - hi
    return ((n * hi) % 1.0 + n * lo + offset % 1.0) % 1.0


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
    with ||sum_i x_i b_i||^2 <= radius2.  With N_i = d[i+1] x_i +
    sum_{j>i} lam[j][i] x_j the squared norm is sum_i N_i^2 / (d[i] d[i+1]),
    so each level's range of x_i follows from an integer square root, exactly.
    """
    n = len(d) - 1
    x = [0] * n

    def level(i, rest):
        if i < 0:
            yield list(x)
            return
        s = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        m = math.isqrt(math.floor(rest * d[i] * d[i + 1]))  # |N_i| <= m
        for x[i] in range(-((m + s) // d[i + 1]), (m - s) // d[i + 1] + 1):
            N = d[i + 1] * x[i] + s
            yield from level(i - 1, rest - Fraction(N * N, d[i] * d[i + 1]))
        x[i] = 0

    yield from level(n - 1, Fraction(radius2))
