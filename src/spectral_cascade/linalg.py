"""Dense small-matrix primitives: rotations, inverses, spectra, polar forms.

All matrices are numpy float arrays of dimension up to ~10.  Angles are in
turns (theta in [0, 1), rotation by 2*pi*theta) throughout the package.
The lattice routines at the end work on rows of Python integers instead,
exactly.
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

SINGULAR_SCALE_TOL = 1e-14
CONDITION_CAP = 1e12
PHASE_EXPONENT_LIMIT = 2 ** 26  # phase_mod1's exact range
_OVERFLOW_NORM = 1e300


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


def _as_matrix(M) -> np.ndarray:
    """M as a float array, wrapped by atleast_2d only when it is not 2-D."""
    M = np.asarray(M, dtype=float)
    return M if M.ndim == 2 else np.atleast_2d(M)


def op_norm(M: np.ndarray) -> float:
    """Operator (spectral) norm."""
    M = _as_matrix(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


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
    J = _as_matrix(J)
    if J.shape[0] != J.shape[1]:
        raise ValueError(f"invert: matrix not square: {J.shape}")
    sv = singular_values_2x2(J) if J.shape[0] == 2 else None
    if sv is None or not 0.0 < sv[1] < math.inf:  # SVD where ad - bc is 0 or out of range
        sv = np.linalg.svd(J, compute_uv=False).tolist()
    abs_det = math.prod(sv)
    if abs_det < _singular_threshold(J):
        raise SingularMatrix(f"|determinant| {abs_det:g} below scale threshold")
    if sv[-1] <= 0 or sv[0] / sv[-1] > CONDITION_CAP:
        raise IllConditioned(f"condition number {sv[0] / max(sv[-1], 1e-300):.3g} above cap")
    return np.linalg.inv(J)


def singular_values(J: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    J = _as_matrix(J)
    return np.linalg.svd(J, compute_uv=False)


def eigenvalues(J: np.ndarray) -> np.ndarray:
    """All eigenvalues (complex, conjugate-paired) via the QR eigensolver."""
    J = _as_matrix(J)
    if J.shape[0] != J.shape[1]:
        raise ValueError(f"eigenvalues: matrix not square: {J.shape}")
    try:
        return np.linalg.eigvals(J)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
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
    M = _as_matrix(M)
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
