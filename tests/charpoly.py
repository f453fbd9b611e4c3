"""Second eigensolver for small matrices, the reference of acceptance criterion 7.

Characteristic polynomial by Faddeev-LeVerrier, roots by Durand-Kerner with
Newton polishing: no numerics shared with the QR route of
``spectral_cascade.linalg.eigenvalues``.
"""

import cmath

import numpy as np

from spectral_cascade.errors import ConvergenceFailure


def _charpoly_coeffs(M: np.ndarray) -> list[float]:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [a_1, ..., a_d] with p(x) = x^d + a_1 x^{d-1} + ... + a_d.
    """
    d = M.shape[0]
    coeffs = []
    Mk = np.array(M, copy=True)
    for k in range(1, d + 1):
        ak = -np.trace(Mk) / k
        coeffs.append(float(ak))
        if k < d:
            Mk = M @ (Mk + ak * np.eye(d))
    return coeffs


def _poly_roots(coeffs: list[float]) -> np.ndarray:
    """Roots of a monic polynomial by Durand-Kerner with Newton polishing."""
    d = len(coeffs)
    if d == 0:
        return np.array([], dtype=complex)
    if d == 1:
        return np.array([-coeffs[0]], dtype=complex)
    if d == 2:
        b, c = coeffs
        disc = cmath.sqrt(b * b - 4.0 * c)
        if b >= 0:
            r1 = (-b - disc) / 2.0
        else:
            r1 = (-b + disc) / 2.0
        r2 = c / r1 if r1 != 0 else -b - r1
        return np.array([r1, r2], dtype=complex)

    # Cauchy-style radius keeps the simultaneous iteration well scaled.
    radius = max(abs(a) ** (1.0 / (i + 1)) for i, a in enumerate(coeffs))
    radius = max(radius, 1e-30)
    seed = 0.4 + 0.9j
    roots = np.array([radius * seed ** k for k in range(1, d + 1)], dtype=complex)

    def peval(z):
        acc = np.ones_like(z)
        for a in coeffs:
            acc = acc * z + a
        return acc

    for _ in range(300):
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        denom = np.prod(diffs, axis=1)
        step = peval(roots) / denom
        roots = roots - step
        # a few ulps of slack: near convergence the step limit-cycles at
        # roundoff level; the Newton polish below recovers the last digits
        if np.max(np.abs(step)) < 1e-14 * max(radius, np.max(np.abs(roots))):
            break
    else:
        raise ConvergenceFailure("Durand-Kerner iteration did not settle")

    # Newton polish, one root at a time.
    dcoeffs = [a * (d - i) for i, a in enumerate([1.0] + coeffs[:-1])]
    for _ in range(3):
        pv = peval(roots)
        dv = np.zeros_like(roots)
        for a in dcoeffs:
            dv = dv * roots + a
        mask = np.abs(dv) > 0
        roots[mask] = roots[mask] - pv[mask] / dv[mask]
    return roots


def eigenvalues_charpoly(J: np.ndarray) -> np.ndarray:
    """Eigenvalues via characteristic polynomial root finding (dim <= 4).

    Independent of the QR route in ``linalg.eigenvalues``; used for
    cross-validation of small spectra.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    d = J.shape[0]
    if J.shape != (d, d) or d > 4:
        raise ValueError(f"charpoly eigensolver limited to square dim <= 4, got {J.shape}")
    return _poly_roots(_charpoly_coeffs(J))
