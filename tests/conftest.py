import math

import numpy as np
import pytest

import spectral_cascade as sc
from spectral_cascade.linalg import op_norm, signed_fraction


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

    The route takes P = sqrtm(M M^T) in closed form, R = P^-1 M by a linear
    solve, alpha from atan2 of R's first column, and eps_hat from the
    determinant and trace of P.  It runs on M scaled by a power of two to
    unit size, since M M^T overflows or underflows once |det M| passes
    ~1e+-154; P scales with M, alpha and eps_hat do not.  The route loses
    about cond(M) ulp, and arccos near 1 multiplies eps_hat's error by about
    1/(1-c), c = cos(2 pi eps_hat).
    """
    M = np.asarray(M, dtype=float)
    scale = 2.0 ** math.frexp(float(np.abs(M).max()))[1]
    Mu = M / scale
    S = Mu @ Mu.T
    t = math.sqrt(float(np.linalg.det(S)))
    P_ref = (S + t * np.eye(2)) / math.sqrt(float(np.trace(S)) + 2.0 * t)
    R = np.linalg.solve(P_ref, Mu)
    alpha_ref = math.atan2(R[1, 0], R[0, 0]) / (2.0 * math.pi)
    c = 2.0 * math.sqrt(float(np.linalg.det(P_ref))) / float(np.trace(P_ref))
    eps_ref = math.acos(c) / (2.0 * math.pi)
    tol = 1e-14 * float(np.linalg.cond(M))
    assert op_norm(P / scale - P_ref) <= tol
    assert abs(float(signed_fraction(alpha - alpha_ref))) <= tol
    assert abs(eps_hat - eps_ref) <= tol * eps_ref / (1.0 - c)


@pytest.fixture(scope="session")
def polar_reference():
    """Checker of (M, P, alpha, eps_hat) against the sqrtm/solve polar route."""
    return _check_polar_reference
