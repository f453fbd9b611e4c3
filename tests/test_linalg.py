import itertools
import math
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_cascade
from spectral_cascade.errors import (
    ConvergenceFailure,
    DegeneratePolar,
    IllConditioned,
    NegativeDeterminant,
    SingularMatrix,
)
from spectral_cascade import linalg
from spectral_cascade.linalg import (
    CONDITION_CAP,
    SINGULAR_SCALE_TOL,
    _det,
    _inv,
    _singular_threshold,
    eigenvalues,
    invert,
    lll_reduce,
    norm_below,
    op_norm,
    phase_mod1,
    polar_2x2,
    rotation_matrix,
    short_vectors,
    signed_fraction,
    singular_values,
    singular_values_2x2,
)
from spectral_cascade.oracle import ScaledSpectrum, match_scaled

from charpoly import eigenvalues_charpoly
from lattice_reference import reference_short_vectors


def _real_simple(values):
    return ScaledSpectrum.from_values(values).real_simple()


def test_quarter_turns_exact():
    np.testing.assert_array_equal(rotation_matrix(0.25), [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(rotation_matrix(0.5), [[-1.0, 0.0], [0.0, -1.0]])
    np.testing.assert_array_equal(rotation_matrix(0.75), [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(rotation_matrix(-1.0), np.eye(2))


@given(st.floats(-3, 3))
def test_rotation_is_orthogonal(theta):
    R = rotation_matrix(theta)
    np.testing.assert_allclose(R @ R.T, np.eye(2), atol=1e-14)
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_invert_guards():
    with pytest.raises(SingularMatrix):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(IllConditioned):
        invert(np.diag([1.0, 1e-13]))
    M = np.array([[2.0, 1.0], [0.0, 3.0]])
    np.testing.assert_allclose(invert(M) @ M, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zero_matrix_is_singular(d):
    """The zero matrix is singular, alone and in a stack, although the
    threshold, the row norm product, underflows to 0 from d = 2 on.  A
    well-conditioned matrix whose determinant underflows to 0 still inverts."""
    M = np.zeros((d, d))
    for J in (M, np.array([np.eye(d), M])):
        with pytest.raises(SingularMatrix, match=r"^\|determinant\| 0 below scale threshold$"):
            invert(J)
    tiny = np.diag([1e-200] * d)
    np.testing.assert_array_equal(invert(tiny), np.linalg.inv(tiny))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_charpoly_eigensolver_matches_qr(d, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > 1e6:
        return
    mismatch = match_scaled(ScaledSpectrum.from_values(eigenvalues_charpoly(M)),
                            ScaledSpectrum.from_values(eigenvalues(M)))
    assert mismatch < 1e-9


def test_charpoly_rejects_large():
    with pytest.raises(ValueError):
        eigenvalues_charpoly(np.eye(5))


def test_real_simple_spectrum_checks():
    ok, gap = _real_simple(np.array([3.0, -1.0, 0.5]))
    assert ok and gap > 0.4
    ok, _ = _real_simple(np.array([1.0 + 0.1j, 1.0 - 0.1j]))
    assert not ok
    # distinct values with equal moduli are not "simple" here
    ok, gap = _real_simple(np.array([2.0, -2.0]))
    assert not ok and gap == 0.0
    ok, _ = _real_simple(eigenvalues(np.diag([4.0, 2.0, 1.0])))
    assert ok


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_polar_roundtrip(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((2, 2))
    if np.linalg.det(M) < 1e-6:
        # det(M + cI) = det M + c tr M + c^2 > 0 for this c
        c = abs(np.trace(M)) + abs(np.linalg.det(M)) + 3.0
        M = M + c * np.eye(2)
    P, theta, _ = polar_2x2(M)
    np.testing.assert_allclose(P @ rotation_matrix(theta), M, atol=1e-12)
    evals = np.linalg.eigvalsh(P)
    assert evals.min() > 0
    np.testing.assert_allclose(P, P.T, atol=1e-12)


def test_polar_negative_det_raises():
    with pytest.raises(NegativeDeterminant):
        polar_2x2(np.diag([1.0, -2.0]))


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100], ids=["1", "1e100", "1e-100"])
def test_polar_matches_sqrtm_route(scale, polar_reference):
    rng = np.random.default_rng(2024)
    for _ in range(200):
        M = rng.standard_normal((2, 2))
        if np.linalg.det(M) < 0:
            M[0] = -M[0]
        P, alpha, eps_hat = polar_2x2(scale * M)
        assert 0.0 <= alpha < 1.0
        polar_reference(scale * M, P, alpha, eps_hat)


def test_polar_singular_threshold_edge():
    # det = e exactly for e >= 2**-52; the threshold is about 2e-14
    for e, singular in ((1.8e-14, True), (2.2e-14, False)):
        M = np.array([[1.0, 1.0], [1.0, 1.0 + e]])
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        assert (det < _singular_threshold(M.tolist())) == singular
        if singular:
            with pytest.raises(SingularMatrix):
                polar_2x2(M)
        else:
            P, _, _ = polar_2x2(M)
            assert np.linalg.eigvalsh(P).min() > 0
    with pytest.raises(SingularMatrix):
        polar_2x2(np.zeros((2, 2)))


def test_max_real_simple_angle_is_sharp():
    P = np.diag([2.0, 1.0])
    P_out, alpha, eps_hat = polar_2x2(P)
    np.testing.assert_array_equal(P_out, P)
    assert alpha == 0.0
    below = P @ rotation_matrix(0.999 * eps_hat)
    above = P @ rotation_matrix(1.001 * eps_hat)
    assert _real_simple(eigenvalues(below))[0]
    vals = np.linalg.eigvals(above)
    assert np.abs(vals.imag).max() > 0
    with pytest.raises(DegeneratePolar):
        polar_2x2(np.eye(2))
    for scale in (1.0, 1e100, 1e-100):
        with pytest.raises(DegeneratePolar):
            polar_2x2(scale * 3.0 * rotation_matrix(0.3))


def test_signed_fraction_range():
    x = signed_fraction(np.array([0.0, 0.4999, 0.5, 0.75, 1.25]))
    np.testing.assert_allclose(x, [0.0, 0.4999, -0.5, -0.25, 0.25])


def test_phase_mod1_compensated_accuracy():
    theta = math.sqrt(2) % 1.0
    exact_theta = Fraction(theta)
    for n in (1, 1000, 99_991):
        got = float(phase_mod1(theta, n))
        want = float((n * exact_theta) % 1)
        err = min(abs(got - want), 1 - abs(got - want))
        assert err < 1e-10, (n, err)


def test_phase_mod1_vectorized_offset():
    theta = 0.3125  # exactly representable
    out = phase_mod1(theta, np.array([0, 1, 2, 3]), offset=0.5)
    np.testing.assert_allclose(out, [0.5, 0.8125, 0.125, 0.4375], atol=1e-15)


def test_phase_mod1_rejects_exponents_beyond_exact_range():
    theta = math.sqrt(2) % 1.0
    last = 2 ** 26 - 1
    got = float(phase_mod1(theta, last))
    assert abs(got - float(last * Fraction(theta) % 1)) < 1e-10
    for n in (2 ** 26, -(2 ** 26), np.array([1, 2 ** 26 + 5])):
        with pytest.raises(ValueError):
            phase_mod1(theta, n)


def test_phase_mod1_error_bound():
    """Within 4 * 2**-53 of the exact phase around the circle, for scalar and
    array n up to 2**26 - 1 in size, with and without an offset."""
    rng = np.random.default_rng(26)
    ulp = Fraction(1, 2 ** 53)

    def error(got, theta, n, offset):
        d = abs(Fraction(float(got)) - (n * Fraction(theta) + Fraction(offset)) % 1)
        return min(d, 1 - d)

    worst = 0
    for i in range(3000):
        theta = float(rng.random())
        n = 2 ** 26 - 1 - int(rng.integers(100)) if i % 3 == 0 else int(rng.integers(1, 2 ** 26))
        n = -n if i % 5 == 0 else n
        offset = (0.0, float(rng.random()), float(rng.uniform(-3, 3)))[i % 3]
        got = phase_mod1(theta, n, offset=offset) if offset else phase_mod1(theta, n)
        worst = max(worst, error(got, theta, n, offset))
    for i in range(60):
        theta, offset = float(rng.random()), (0.0, float(rng.uniform(-3, 3)))[i % 2]
        ns = rng.integers(-(2 ** 26) + 1, 2 ** 26, size=50)
        ns[0] = 2 ** 26 - 1
        for got, n in zip(phase_mod1(theta, ns, offset=offset), ns.tolist()):
            worst = max(worst, error(got, theta, n, offset))
    assert worst <= 4 * ulp, float(worst / ulp)


def _gram_schmidt(rows):
    """Squared Gram-Schmidt norms and mu, from scratch in Fractions."""
    star, mu = [], [[Fraction(0)] * len(rows) for _ in rows]
    for k, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j, w in enumerate(star):
            mu[k][j] = sum(x * y for x, y in zip(row, w)) / sum(y * y for y in w)
            v = [a - mu[k][j] * b for a, b in zip(v, w)]
        star.append(v)
    return [sum(y * y for y in v) for v in star], mu


def _random_rows(rng, n, digits):
    return [[int(rng.integers(-10 ** 6, 10 ** 6)) * 10 ** int(rng.integers(0, digits))
             for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("seed", range(20))
def test_lll_reduce_returns_exact_reduced_gram_schmidt(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 4
    rows = _random_rows(rng, n, 30)
    B0, _ = _gram_schmidt(rows)
    assert all(B0)  # independent rows
    reduced = [r[:] for r in rows]
    d, lam = lll_reduce(reduced)
    B, mu = _gram_schmidt(reduced)
    assert math.prod(B) == math.prod(B0) == d[n]  # same lattice volume
    for k in range(n):
        assert Fraction(d[k + 1], d[k]) == B[k]
        for j in range(k):
            assert Fraction(lam[k][j], d[j + 1]) == mu[k][j]
            assert abs(mu[k][j]) <= Fraction(1, 2)
        if k:
            assert B[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * B[k - 1]
    # the reduced rows are integer combinations of the original ones and back
    for a, b in ((rows, reduced), (reduced, rows)):
        coeffs = np.linalg.solve(np.array(a, dtype=float).T, np.array(b, dtype=float).T)
        assert np.allclose(coeffs, np.round(coeffs), atol=1e-6)


@pytest.mark.parametrize("seed", range(12))
def test_short_vectors_matches_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    n = 1 + seed % 3
    while True:
        rows = [[int(v) for v in rng.integers(-9, 10, size=n)] for _ in range(n)]
        if round(np.linalg.det(np.array(rows, dtype=float))):
            break
    d, lam = lll_reduce(rows)
    radius2 = int(rng.integers(0, 400))
    # every coefficient of a vector within the radius is at most R ||B^-1||
    box = int(math.sqrt(radius2) * np.linalg.norm(np.linalg.inv(np.array(rows, dtype=float)), 2)) + 2

    def norm2(x):
        return sum(sum(xi * r[j] for xi, r in zip(x, rows)) ** 2 for j in range(n))

    want = {x for x in itertools.product(range(-box, box + 1), repeat=n) if norm2(x) <= radius2}
    got = [tuple(x) for x in short_vectors(d, lam, radius2)]
    assert len(got) == len(set(got))
    assert set(got) == want


def test_short_vectors_matches_the_fraction_reference():
    """The same vectors in the same order as the enumeration that carries its
    remaining radius as a Fraction, on reduced lattices of dimension 3 to 9
    whose Gram-Schmidt norms grow geometrically, at radii 2 to 20 times the
    shortest Gram-Schmidt norm."""
    rng = np.random.default_rng(7)
    total = 0
    for case in range(63):
        n = 3 + case % 7
        g = rng.uniform(1.6, 4.0)
        s = [int(1000 * g ** i * rng.uniform(1, 2)) for i in range(n)]
        rows = [[int(rng.integers(-5 * s[j], 5 * s[j] + 1)) if j < i else s[i] * (i == j)
                 for j in range(n)] for i in range(n)]
        d, lam = lll_reduce(rows)
        radius2 = math.floor(rng.uniform(2, 20) ** 2 * min(Fraction(d[i + 1], d[i]) for i in range(n)))
        want = list(reference_short_vectors(d, lam, radius2))
        assert list(short_vectors(d, lam, radius2)) == want, case
        total += len(want)
    assert total == 105_533


def _mixed(sigmas):
    """Q1 diag(sigmas) Q2^T for two fixed orthogonal matrices that mix every row."""
    d = len(sigmas)
    Q1 = np.linalg.qr(np.ones((d, d)) + np.diag(np.arange(1.0, d + 1)))[0]
    Q2 = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))[0]
    return Q1 @ np.diag(sigmas) @ Q2.T


def _hadamard_ratio(M):
    return abs(np.linalg.det(M)) / np.prod(np.linalg.norm(M, axis=1))


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_invert_singular_threshold_edges(factor):
    """|det| / prod(row norms) 1% below or above SINGULAR_SCALE_TOL, condition far under the cap."""
    s0 = 1e-7
    s = s0 * math.sqrt(factor * SINGULAR_SCALE_TOL / _hadamard_ratio(_mixed([1.0, s0, s0])))
    M = _mixed([1.0, s, s])
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[0] / sv[-1] < 1e-3 * CONDITION_CAP
    assert (_hadamard_ratio(M) > SINGULAR_SCALE_TOL) == (factor > 1.0)
    if factor < 1.0:
        with pytest.raises(SingularMatrix):
            invert(M)
    else:
        np.testing.assert_array_equal(invert(M), np.linalg.inv(M))


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_invert_condition_cap_edges(factor):
    """Condition number 1% below or above CONDITION_CAP, far from singular."""
    M = _mixed([1.0, 1.0 / (factor * CONDITION_CAP)])
    assert _hadamard_ratio(M) > 10 * SINGULAR_SCALE_TOL
    if factor > 1.0:
        with pytest.raises(IllConditioned):
            invert(M)
    else:
        np.testing.assert_array_equal(invert(M), np.linalg.inv(M))


@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e200, 1e-200])
def test_invert_is_scale_free(scale):
    """A well-conditioned 3x3 or 2x2 stays invertible at any scale, and invert is
    numpy's inverse; at 1e+-200, ad - bc of the 2x2 leaves the float range."""
    for sigmas in ([3.0, 2.0, 1.0], [3.0, 2.0]):
        M = scale * _mixed(sigmas)
        np.testing.assert_array_equal(invert(M), np.linalg.inv(M))


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_singular_threshold_is_numpy_row_norm_product(rng, scale):
    """The threshold's row norms are np.linalg.norm(J, axis=1), bit for bit."""
    shapes = [(1, 1)] + [(d, d) for d in range(2, 7)] * 20
    for shape in shapes:
        J = scale * rng.standard_normal(shape)
        norms = np.linalg.norm(J, axis=1)
        with np.errstate(over="ignore"):  # the product is inf at 1e150 from d = 3 on
            expected = SINGULAR_SCALE_TOL * float(np.prod(np.maximum(norms, 1e-300)))
            assert _singular_threshold(J.tolist()) == expected


@pytest.mark.parametrize("M", [np.array([[1e300]]), np.diag([1e155, 1e145])],
                         ids=["1x1-1e300", "2x2-1e155"])
def test_invert_rows_beyond_the_squared_float_range(M):
    """A row norm above ~1.3e154 squares past the float range; the threshold
    still holds its norm, so a well-conditioned matrix inverts."""
    assert _singular_threshold(M.tolist()) == SINGULAR_SCALE_TOL * math.prod(M.max(axis=1))
    np.testing.assert_array_equal(invert(M), np.linalg.inv(M))


def test_threshold_product_leaves_the_float_range_only_at_its_end():
    """A running row-norm product that overflows or underflows before its last
    factor decides no guard: diag(1e200, 1e200, 1e-100) has |det| equal to
    that product, 1e300, and condition number 1e300; the rank-two matrix
    with rows near 2^-664 and 2^664 is as singular as its twin with rows
    scaled to 1."""
    wide = np.diag([1e200, 1e200, 1e-100])
    assert _singular_threshold(wide.tolist()) == pytest.approx(SINGULAR_SCALE_TOL * 1e300,
                                                               rel=1e-15)
    with pytest.raises(IllConditioned):
        invert(wide)
    t = 2.0 ** -664
    rank_two = np.array([[t, t, 0.0], [t, t, 0.0], [0.0, 0.0, 1.0 / t]])
    # its row norms square below the float range, and are taken by hypot
    assert _singular_threshold(rank_two.tolist()) == pytest.approx(
        SINGULAR_SCALE_TOL * 2.0 ** -663, rel=1e-15)
    for M in (rank_two, rank_two / np.abs(rank_two).max(axis=1, keepdims=True)):
        with pytest.raises(SingularMatrix):
            invert(M)
    # past the float range at the end the threshold is inf or 0, as before
    assert _singular_threshold(np.diag([1e200, 1e200, 1e100]).tolist()) == math.inf
    assert _singular_threshold(np.diag([1e-200, 1e-200, 1e-100]).tolist()) == 0.0


# The plain numpy expressions the lean kernels replace, kept as the reference.
def _numpy_singular_threshold(J):
    with np.errstate(over="ignore"):
        row_norms = np.sqrt((J * J).sum(axis=1))
    # a row norm above ~1.3e154, whose squares overflow, by repeated hypot
    row_norms = np.where(row_norms == np.inf, np.hypot.reduce(np.abs(J), axis=1), row_norms)
    return SINGULAR_SCALE_TOL * float(np.prod(np.maximum(row_norms, 1e-300)))


def _numpy_invert(J):
    """The guards on |det J| (the LU determinant from d = 3 on) and the SVD."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    sv = np.linalg.svd(J, compute_uv=False)
    with np.errstate(all="ignore"):  # det saturates at 0 or inf as the product does
        abs_det = abs(np.linalg.det(J)) if len(J) >= 3 else np.prod(sv)
    if abs_det < _numpy_singular_threshold(J) or sv[-1] == 0:  # the zero matrix too
        raise SingularMatrix("reference")
    if sv[-1] <= 0 or sv[0] / sv[-1] > CONDITION_CAP:
        raise IllConditioned("reference")
    return np.linalg.inv(J)


def _outcome(fn, J):
    """The inverse's bytes, or the type of the guard error raised."""
    try:
        return fn(J).tobytes()
    except (SingularMatrix, IllConditioned) as exc:
        return type(exc)


def _scaled_rows(rng, d):
    return 10.0 ** rng.uniform(-5, 5, (d, 1)) * rng.standard_normal((d, d))


@pytest.mark.parametrize("d", range(1, 8))
def test_lean_guards_match_numpy(rng, d):
    """_singular_threshold and invert equal the numpy expressions bit for bit,
    raised errors included, on rows scaled by 1e-5..1e5.

    Besides generic matrices, the last row is made a combination of the
    others plus a relative perturbation of 1e-9 (invertible), 1e-13 (ill
    conditioned), 1e-16 or 0 (singular), a decade or more from either guard.
    """
    mats = []
    for _ in range(60):
        J = _scaled_rows(rng, d)
        mats.append(J)
        if d == 1:
            continue
        combo = rng.standard_normal(d - 1) @ J[:-1]
        for rel in (1e-9, 1e-13, 1e-16, 0.0):
            K = J.copy()
            K[-1] = combo + rel * np.linalg.norm(combo) * rng.standard_normal(d)
            mats.append(K)
    outcomes = set()
    for J in mats:
        assert _singular_threshold(J.tolist()) == _numpy_singular_threshold(J)
        got = _outcome(invert, J)
        assert got == _outcome(_numpy_invert, J)
        outcomes.add(got if isinstance(got, type) else bytes)
    assert outcomes == ({bytes} if d == 1 else {bytes, SingularMatrix, IllConditioned})


@pytest.mark.parametrize("d", range(1, 8))
def test_lean_spectra_match_numpy(rng, d):
    """op_norm, singular_values and eigenvalues are numpy's, bit for bit, on
    matrices and on non-contiguous views."""
    J = _scaled_rows(rng, d + 1)
    for M in (J[:d, :d], np.ascontiguousarray(J[1:, 1:]), J[1:, 1:].T):
        assert op_norm(M) == float(np.linalg.svd(M, compute_uv=False)[0])
        assert singular_values(M).tobytes() == np.linalg.svd(M, compute_uv=False).tobytes()
        assert eigenvalues(M).tobytes() == np.linalg.eigvals(M).tobytes()


def _random_2x2(rng, cond):
    """Q1 diag(s, s / cond) Q2^T, one per condition number, with random
    rotations, reflections and scales s in 1e-5..1e5."""
    count = len(cond)
    t = rng.uniform(0.0, 2.0 * math.pi, (2, count))
    Q = np.stack([np.stack([np.cos(t), -np.sin(t)], -1), np.stack([np.sin(t), np.cos(t)], -1)], -2)
    Q[1, :, :, 1] *= rng.choice([-1.0, 1.0], count)[:, None]
    s = 10.0 ** rng.uniform(-5, 5, count)
    sigma = np.zeros((count, 2, 2))
    sigma[:, 0, 0], sigma[:, 1, 1] = s, s / np.asarray(cond)
    return Q[0] @ sigma @ np.swapaxes(Q[1], -1, -2)


def test_singular_values_2x2_match_lapack(rng):
    """Over condition numbers 1..1e13: sigma_max within 8 ulps of LAPACK's and
    sigma_min within 3 eps sigma_max (3 eps cond, relative).  LAPACK's sigma_max
    is itself up to ~5 ulps off; against 60-digit arithmetic the closed form is
    within 2 ulps and 2 eps sigma_max."""
    eps = np.finfo(float).eps
    M = _random_2x2(rng, 10.0 ** rng.uniform(0, 13, 20_000))
    ref = np.linalg.svd(M, compute_uv=False)
    got = np.array([singular_values_2x2(m) for m in M])
    assert np.all(np.abs(got[:, 0] - ref[:, 0]) <= 8 * np.spacing(ref[:, 0]))
    assert np.all(np.abs(got[:, 1] - ref[:, 1]) <= 3 * eps * ref[:, 0])
    with localcontext() as ctx:
        ctx.prec = 60
        for m, (smax, smin) in zip(M[:2_000], got):
            (a, b), (c, d) = [[Decimal(x) for x in row] for row in m.tolist()]
            exact = (((a + d) ** 2 + (c - b) ** 2).sqrt()
                     + ((a - d) ** 2 + (b + c) ** 2).sqrt()) / 2
            assert abs(Decimal(smax) - exact) <= 2 * Decimal(math.ulp(smax))
            assert abs(Decimal(smin) - abs(a * d - b * c) / exact) <= 2 * Decimal(eps) * exact
    assert singular_values_2x2(np.zeros((2, 2))) == (0.0, 0.0)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_2x2_condition_guard_matches_lapack(rng, factor):
    """At condition numbers 1% below and above CONDITION_CAP the closed-form
    guard decides as the SVD one, over random rotations, reflections and scales."""
    for M in _random_2x2(rng, np.full(2_000, factor * CONDITION_CAP)):
        assert _outcome(invert, M) == _outcome(_numpy_invert, M)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_2x2_singular_guard_is_exact_at_the_threshold(factor):
    """|det| / prod(row norms) 1% below or above SINGULAR_SCALE_TOL on 2x2
    matrices whose determinant is exact in floating point: invert raises
    SingularMatrix below and IllConditioned above (the condition number is
    ~1e14 either way).  LAPACK's product of singular values errs by about
    eps cond ~ 2% here, so the SVD guard is no reference at this edge.
    """
    expected = SingularMatrix if factor < 1.0 else IllConditioned
    eps = factor * SINGULAR_SCALE_TOL
    for base in ([[1.0, 0.0], [1.0, eps]], [[1.0, 1.0], [1.0, 1.0 + 2.0 * eps]]):
        for flips in itertools.product((False, True), repeat=3):
            M = np.array(base)
            M = M[::-1] if flips[0] else M
            M = M[:, ::-1] if flips[1] else M
            M = -M if flips[2] else M
            for e in (-60, 0, 60):
                assert _outcome(invert, 2.0 ** e * M) is expected


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_singular_guard_is_exact_at_the_threshold_from_3x3(factor):
    """The same edge on diag(B, 1), with B the exact-determinant 2x2 matrices
    above: the LU determinant of each is exact, so invert raises SingularMatrix
    below the threshold and IllConditioned above it, as on B itself.  A product
    of LAPACK's singular values would err by about 2% and decide by rounding.
    """
    expected = SingularMatrix if factor < 1.0 else IllConditioned
    eps = factor * SINGULAR_SCALE_TOL
    for base in ([[1.0, 0.0], [1.0, eps]], [[1.0, 1.0], [1.0, 1.0 + 2.0 * eps]]):
        for flips in itertools.product((False, True), repeat=3):
            B = np.array(base)
            B = B[::-1] if flips[0] else B
            B = B[:, ::-1] if flips[1] else B
            B = -B if flips[2] else B
            M = np.eye(3)
            M[:2, :2] = B
            for e in (-60, 0, 60):
                assert _outcome(invert, 2.0 ** e * M) is expected, (B, e)


def test_norm_below_is_the_op_norm_comparison(rng):
    """norm_below(M, b) == (op_norm(M) < b) at the bounds where a rounding
    error would show: sigma_max and its neighbours, sigma_max (1 +- 1e-12),
    ||M||_F and the float below it, and the Frobenius shortcut's own edge
    ||M||_F / (1 - 1e-12) with its neighbours.  Rank-one matrices have
    sigma_max = ||M||_F, so there the edge is tight."""
    settled = 0
    for _ in range(1_000):
        p, q = rng.integers(1, 7, 2)
        M = rng.standard_normal((p, q))
        if rng.integers(2):
            M = np.outer(M[:, 0], M[0])
        M *= 10.0 ** rng.uniform(-100, 100)
        s, fro = op_norm(M), math.sqrt(np.vdot(M, M))
        edge = fro / (1.0 - 1e-12)
        for b in (s, math.nextafter(s, math.inf), math.nextafter(s, -math.inf),
                  s * (1.0 + 1e-12), s * (1.0 - 1e-12), fro, math.nextafter(fro, -math.inf),
                  edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf),
                  edge * (1.0 + 1e-15)):
            assert norm_below(M, b) == (s < b), (M, b)
            settled += fro < b * (1.0 - 1e-12)
            # a stack answers per item as each item alone, settled or not
            stack = np.array([M, M * (1.0 + 2e-12), M * (1.0 - 2e-12), M * (1.0 - 4e-12)])
            assert norm_below(stack, b) == [norm_below(Mi, b) for Mi in stack], (M, b)
    assert settled > 2_000
    with pytest.raises(np.linalg.LinAlgError):
        norm_below(np.array([[1.0, math.nan]]), 10.0)


def _invert_outcome(J):
    try:
        return invert(J).tobytes()
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


# exactly singular matrices on which LAPACK's LU meets a zero pivot
ZERO_PIVOT = {2: [[1.0, 2.0], [2.0, 4.0]], 3: [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_invert_stack_is_each_item_alone(d, monkeypatch):
    """A stack raises the error of its first item that invert refuses, type and
    text as the item raises alone, and the other items invert bit for bit as
    they do alone: well conditioned at any scale, at both sides of the singular
    threshold and of the condition cap, exactly singular (the stacked LAPACK
    call fails), and not finite; no RuntimeWarning escapes."""
    items = [scale * _mixed([3.0, 2.0, 1.0, 0.5, 0.25][:d]) for scale in (1.0, 1e-150, 1e150)]
    if d >= 2:
        items += [_mixed([1.0, *[1.0 / (f * CONDITION_CAP)] * (d - 1)]) for f in (0.99, 1.01)]
        items += [_mixed([1.0, *[s0] * (d - 1)]) for s0 in (1e-7, 1e-9)]
    items += [np.zeros((d, d)), np.full((d, d), math.nan), np.full((d, d), 1e-300)]
    alone = [_invert_outcome(M) for M in items]
    failing = [i for i, o in enumerate(alone) if isinstance(o, tuple)]
    assert len(failing) >= 2
    for i in failing:  # each failing item first in a stack of all items after it
        assert _invert_outcome(np.array(items[i:])) == alone[i], i
    ok = [i for i in range(len(items)) if i not in failing]
    assert [Ji.tobytes() for Ji in invert(np.array(items)[ok])] == [alone[i] for i in ok]
    if d not in ZERO_PIVOT:
        return
    # a zero pivot fails the stacked call: every item goes alone, in order, and
    # the first singular item raises its own error
    singular = [np.array(ZERO_PIVOT[d]), np.zeros((d, d))]
    for M in singular:
        with pytest.raises(np.linalg.LinAlgError):
            _inv(M)
    stack = np.array([*(items[i] for i in ok), *singular])
    ran = []
    monkeypatch.setattr(linalg, "invert", lambda J: ran.append((J.tobytes(), _invert_outcome(J)))
                        or invert(J))
    assert _invert_outcome(stack) == _invert_outcome(singular[0])
    assert ran == [(M.tobytes(), _invert_outcome(M)) for M in stack[:len(ok) + 1]]


def _guard_outcome(J):
    """invert's inverse bytes, or the type and message of the guard error."""
    try:
        return invert(J).tobytes()
    except (SingularMatrix, IllConditioned) as exc:
        return type(exc), str(exc)


def _orthogonal(rng, d):
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


@pytest.mark.parametrize("d", range(3, 9))
def test_certified_inverse_changes_no_outcome(rng, d, monkeypatch):
    """invert returns the same inverse bytes, or raises the same error with the
    same message, with and without its Frobenius shortcut: on near-singular
    and condition-cap sweeps and at f^2 within 1e-9 of the shortcut's limit."""
    limit = min(d * d * (0.25 / SINGULAR_SCALE_TOL) ** (2.0 / d), 0.25 * CONDITION_CAP ** 2)
    mats = []
    for _ in range(100):
        J = _scaled_rows(rng, d)
        combo = rng.standard_normal(d - 1) @ J[:-1]
        J[-1] = combo + 10.0 ** rng.uniform(-17, -2) * np.linalg.norm(combo) * rng.standard_normal(d)
        mats.append(J)
        sigma = np.append(10.0 ** rng.uniform(-1, 1, d - 1), 10.0 ** -rng.uniform(0, 14))
        mats.append(10.0 ** rng.uniform(-5, 5) * _orthogonal(rng, d) @ np.diag(sigma)
                    @ _orthogonal(rng, d).T)
        # sigma = (1, ..., 1, t): f^2 = (a + t^2)(a + t^-2) with a = d - 1
        a, target = d - 1, limit * (1.0 + rng.uniform(-1e-9, 1e-9))
        b = a * a + 1.0 - target
        t = math.sqrt(2.0 * a / (-b + math.sqrt(b * b - 4.0 * a * a)))
        mats.append(_orthogonal(rng, d) @ np.diag([1.0] * a + [t]) @ _orthogonal(rng, d).T)
    taken = [0]

    def counted(J):
        Ji = certified(J)
        taken[0] += Ji is not None
        return Ji

    certified = linalg._certified_inverse
    monkeypatch.setattr(linalg, "_certified_inverse", counted)
    fast = [_guard_outcome(J) for J in mats]
    monkeypatch.setattr(linalg, "_certified_inverse", lambda J: None)
    assert fast == [_guard_outcome(J) for J in mats]
    assert {o[0] for o in fast if not isinstance(o, bytes)} == {SingularMatrix, IllConditioned}
    assert 0 < taken[0] < len(mats)


def test_1x1_inverse_is_lapacks():
    """A 1x1 inverse is 1/x, LAPACK's bytes; below 1e-314 (the threshold's
    1e-300 floor times SINGULAR_SCALE_TOL) it is singular, as the SVD guard said.
    From 1.4e154 on, where x * x overflows, the threshold still holds |x|."""
    for x in (1.0, -3.0, 7.0, 0.1, 1.0 / 3.0, 1e-300, -1e-310, 2e-314, 1e300, -1.7e308,
              0.0, -0.0, 5e-324, 1e-315):
        for y in (x, -x):
            J = np.array([[y]])
            want = _outcome(_numpy_invert, J)
            assert _outcome(invert, J) == want
            assert (want is SingularMatrix) == (abs(y) < 1e-314)
            if want is SingularMatrix:
                with pytest.raises(SingularMatrix, match=re.escape(f"|determinant| {abs(y):g} below")):
                    invert(J)


KERNEL_SCALES = (1e-200, 1.0, 1e200)


def _kernel_inputs(rng, p, q):
    """Generic p x q matrices, their transposed views when square, and exactly
    singular ones: zero, rank one, a zero row and a repeated row."""
    M = rng.standard_normal((p, q))
    mats = [M, np.zeros((p, q)), np.outer(rng.standard_normal(p), rng.standard_normal(q))]
    if p == q:
        mats.append(M.T)
    if p > 1:
        for row in (np.zeros(q), M[0]):
            K = M.copy()
            K[-1] = row
            mats.append(K)
    return mats


def _same_array(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", range(1, 8))
def test_kernels_match_numpy_linalg(rng, d):
    """op_norm, singular_values, invert, eigenvalues and _det equal numpy.linalg's
    results bit for bit, dtype included, at scales 1e-200, 1 and 1e200, on
    generic and exactly singular matrices; singular values also on every
    non-square block that fits in d = 7.  invert's guard errors are the
    numpy reference's.  Warnings are errors."""
    shapes = [(d, d)] + [(d, q) for q in range(1, 8 - d) if q != d]
    for (p, q), scale in itertools.product(shapes, KERNEL_SCALES):
        for M in _kernel_inputs(rng, p, q):
            M = scale * M
            sv = np.linalg.svd(M, compute_uv=False)
            assert _same_array(singular_values(M), sv)
            assert op_norm(M) == float(sv[0])
            if p != q:
                continue
            assert _same_array(eigenvalues(M), np.linalg.eigvals(M))
            with np.errstate(all="ignore"):  # the reference's np.prod meets inf * 0
                want = _outcome(_numpy_invert, M)
            assert _outcome(invert, M) == want
            with np.errstate(over="ignore"):  # numpy.linalg.det sets no error state
                det = _det(M)
                assert type(det) is np.float64 and det == np.linalg.det(M)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_raise_on_non_finite_entries(bad):
    """A NaN or infinite entry anywhere raises LinAlgError (ConvergenceFailure
    with numpy's message from eigenvalues), with no warning.  numpy.linalg.svd
    and inv would return NaN or a wrong inverse for an infinite entry."""
    for p, q in [(d, d) for d in range(1, 8)] + [(1, 2), (2, 1), (2, 4), (4, 2)]:
        for i, j in {(0, 0), (0, q - 1), (p - 1, 0), (p - 1, q - 1), (p // 2, q // 2)}:
            M = np.eye(p, q) + 0.5
            M[i, j] = bad
            for fn in (op_norm, singular_values):
                with pytest.raises(np.linalg.LinAlgError):
                    fn(M)
            if p != q:
                continue
            for fn in (invert, _det):
                with pytest.raises(np.linalg.LinAlgError):
                    fn(M)
            with pytest.raises(ConvergenceFailure, match="must not contain infs or NaNs"):
                eigenvalues(M)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("state", ["raise", "warn", "ignore"])
def test_lapack_failure_is_numpys_error_whatever_the_error_state(state):
    """A LAPACK failure on finite input (inv's zero pivot) raises numpy's
    LinAlgError and no warning, under any error state of the caller, as
    numpy.linalg.inv does."""
    for M in (np.zeros((1, 1)), np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])):
        with np.errstate(all=state):
            with pytest.raises(np.linalg.LinAlgError) as want:
                np.linalg.inv(M)
            with pytest.raises(np.linalg.LinAlgError) as got:
                _inv(M)
        assert str(got.value) == str(want.value) == "Singular matrix"


def test_import_names_the_numpy_floor():
    """Without the unsuffixed svd gufunc (numpy 1.x) the import fails and names
    the floor that pyproject.toml declares."""
    probe = ("import sys, types, numpy.linalg._umath_linalg as u\n"
             "stub = types.ModuleType(u.__name__)\n"
             "stub.__dict__.update({k: v for k, v in vars(u).items() if k != 'svd'})\n"
             "sys.modules[u.__name__] = stub\n"
             "import spectral_cascade.linalg\n")
    src = Path(spectral_cascade.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode != 0
    assert "ImportError: spectral_cascade needs numpy>=2.0" in out.stderr
    pyproject = (src.parent / "pyproject.toml").read_text()
    assert '"numpy>=2.0",' in pyproject
