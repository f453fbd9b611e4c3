import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_cascade.errors import (
    DegeneratePolar,
    IllConditioned,
    NegativeDeterminant,
    PowerOverflow,
    SingularMatrix,
)
from spectral_cascade.linalg import (
    CONDITION_CAP,
    SINGULAR_SCALE_TOL,
    _singular_threshold,
    cos_turns,
    eigenvalues,
    invert,
    lll_reduce,
    matrix_power_checked,
    op_norm,
    phase_mod1,
    polar_2x2,
    rotation_matrix,
    short_vectors,
    signed_fraction,
    sin_turns,
    singular_values,
    singular_values_2x2,
)
from spectral_cascade.oracle import ScaledSpectrum, match_scaled

from charpoly import eigenvalues_charpoly


def _real_simple(values):
    return ScaledSpectrum.from_values(values).real_simple()


def test_quarter_turns_exact():
    assert cos_turns(0.25) == 0.0
    assert sin_turns(0.25) == 1.0
    assert cos_turns(0.5) == -1.0
    assert sin_turns(0.75) == -1.0
    np.testing.assert_array_equal(rotation_matrix(0.25), [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(rotation_matrix(0.5), [[-1.0, 0.0], [0.0, -1.0]])


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
        assert (det < _singular_threshold(M)) == singular
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


def test_matrix_power_overflow():
    with pytest.raises(PowerOverflow):
        matrix_power_checked(np.diag([10.0, 0.1]), 400)
    np.testing.assert_allclose(
        matrix_power_checked(np.diag([2.0, 3.0]), 10), np.diag([1024.0, 59049.0])
    )


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
            assert _singular_threshold(J) == expected


# The plain numpy expressions the lean kernels replace, kept as the reference.
def _numpy_singular_threshold(J):
    row_norms = np.sqrt((J * J).sum(axis=1))
    return SINGULAR_SCALE_TOL * float(np.prod(np.maximum(row_norms, 1e-300)))


def _numpy_invert(J):
    J = np.atleast_2d(np.asarray(J, dtype=float))
    sv = np.linalg.svd(J, compute_uv=False)
    if np.prod(sv) < _numpy_singular_threshold(J):
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
        assert _singular_threshold(J) == _numpy_singular_threshold(J)
        got = _outcome(invert, J)
        assert got == _outcome(_numpy_invert, J)
        outcomes.add(got if isinstance(got, type) else bytes)
    assert outcomes == ({bytes} if d == 1 else {bytes, SingularMatrix, IllConditioned})


@pytest.mark.parametrize("d", range(1, 8))
def test_lean_spectra_match_numpy(rng, d):
    """op_norm, singular_values and eigenvalues are numpy's, bit for bit, on
    matrices, on non-contiguous views and (d = 1) on scalars and vectors."""
    J = _scaled_rows(rng, d + 1)
    for M in (J[:d, :d], np.ascontiguousarray(J[1:, 1:]), J[1:, 1:].T):
        assert op_norm(M) == float(np.linalg.svd(M, compute_uv=False)[0])
        assert singular_values(M).tobytes() == np.linalg.svd(M, compute_uv=False).tobytes()
        assert eigenvalues(M).tobytes() == np.linalg.eigvals(M).tobytes()
    if d == 1:
        for x in (J[0, 0], J[0, :1]):
            assert op_norm(x) == float(np.linalg.svd(np.atleast_2d(x), compute_uv=False)[0])
            assert eigenvalues(x).tobytes() == np.linalg.eigvals(np.atleast_2d(x)).tobytes()
            assert invert(x).tobytes() == np.linalg.inv(np.atleast_2d(x)).tobytes()


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
