import math

import mpmath
import numpy as np
import pytest

import spectral_cascade as sc
from spectral_cascade.linalg import op_norm


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def demo_instance():
    """A (1,2,2) instance shared by the slower integration tests."""
    return sc.generate_instance((1, 2, 2), seed=3)


@pytest.fixture(scope="session")
def demo_cascade(demo_instance):
    return sc.choose_parameters(
        demo_instance.model, demo_instance.L, 1e-3, law=demo_instance.law
    )


def _check_polar_reference(M, P, alpha, eps_hat):
    """Compare a polar form M = P R_alpha and its margin with the textbook route.

    The route takes P = sqrtm(M M^T) in closed form, R = P^-1 M, alpha from
    atan2 of R's first column, and eps_hat from the determinant and trace of
    P.  It runs in mpmath at 50 digits on the exact entries of M, whose
    exponent range M M^T cannot leave: the route loses about cond(M)^2 ulp
    of those digits, so the comparison measures the float form alone, to
    1e-14 cond(M) on M scaled by a power of two to unit size (P scales with
    M, alpha and eps_hat do not).  arccos near 1 multiplies eps_hat's error
    by about 1/(1-c), c = cos(2 pi eps_hat).
    """
    M = np.asarray(M, dtype=float)
    scale = 2.0 ** math.frexp(float(np.abs(M).max()))[1]
    tol = 1e-14 * float(np.linalg.cond(M / scale))
    with mpmath.workdps(50):
        Mp = mpmath.matrix(M.tolist())
        S = Mp * Mp.T
        t = mpmath.sqrt(mpmath.det(S))
        P_ref = (S + t * mpmath.eye(2)) / mpmath.sqrt(S[0, 0] + S[1, 1] + 2 * t)
        R = mpmath.inverse(P_ref) * Mp
        alpha_ref = mpmath.atan2(R[1, 0], R[0, 0]) / (2 * mpmath.pi)
        c = 2 * mpmath.sqrt(mpmath.det(P_ref)) / (P_ref[0, 0] + P_ref[1, 1])
        eps_ref = mpmath.acos(c) / (2 * mpmath.pi)
        P_err = np.array((mpmath.matrix(P.tolist()) - P_ref).tolist(), dtype=float) / scale
        alpha_err = alpha - alpha_ref
        alpha_err = float(abs(alpha_err - mpmath.floor(alpha_err + 0.5)))
        eps_err, eps_ref, c = float(abs(eps_hat - eps_ref)), float(eps_ref), float(c)
    assert op_norm(P_err) <= tol
    assert alpha_err <= tol
    assert eps_err <= tol * eps_ref / (1.0 - c)


@pytest.fixture(scope="session")
def polar_reference():
    """Checker of (M, P, alpha, eps_hat) against the sqrtm/solve polar route in mpmath."""
    return _check_polar_reference
