import math

import numpy as np
import pytest

import spectral_cascade as sc
from spectral_cascade.blocks import block_diag, split_blocks
from spectral_cascade.cascade import stage_input
from spectral_cascade.errors import (
    CertificateFailure,
    ConvergenceFailure,
    HypothesisFailure,
    PowerOverflow,
)
from spectral_cascade.graph_transform import (
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_STEP_TOL,
    DensePowers,
    SplitProblem,
    _fixed_point,
    check_hypotheses,
    derive_constants,
    invariant_pair,
    solve_eta,
    solve_xi,
    verify_certificate,
)
from spectral_cascade.linalg import invert, op_norm


def make_problem(seed=0, k1=1, k2=2, delta=0.05, coupling=0.2):
    """A dominated block-diagonal V with a generic J0 nearby."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k1, k1)) + 2.0 * np.eye(k1)
    sA = np.linalg.svd(A, compute_uv=False)[-1]
    D = rng.standard_normal((k2, k2))
    D *= 0.4 * sA / max(op_norm(D), 1e-12)
    V = block_diag(A, D)
    J0 = np.eye(k1 + k2) + coupling * rng.standard_normal((k1 + k2, k1 + k2))
    return SplitProblem(V=V, J0=J0, k1=k1, k2=k2, delta=delta)


def ball_sample(problem, constants, rng):
    G = rng.standard_normal((problem.d, problem.d))
    return problem.J0 + 0.9 * constants.beta * G / op_norm(G)


def test_hypotheses_pass_and_fail():
    p = make_problem()
    assert check_hypotheses(p).passed
    # undominated V: tail as large as the head
    bad = SplitProblem(V=np.eye(3), J0=p.J0, k1=1, k2=2, delta=0.05)
    report = check_hypotheses(bad)
    assert not report.passed and report.rho >= 1.0
    with pytest.raises(HypothesisFailure) as info:
        derive_constants(bad)
    # the report's repr shows rho and the verdict only, not the inverses it carries
    expected = f"split hypotheses fail: HypothesisReport(rho={report.rho!r}, passed=False)"
    assert str(info.value) == expected
    assert report == type(report)(report.rho, False)


def _dominated_V(DV):
    return block_diag(np.array([[2.0]]), DV)


# check_hypotheses reads no powers; DensePowers would invert a singular A(V)
@pytest.mark.parametrize("V,J0,rho_inf", [
    (block_diag(np.zeros((1, 1)), 0.1 * np.eye(2)), np.eye(3), True),
    (_dominated_V(np.diag([0.1, 0.0])), np.eye(3), False),
    # A(J0) = 0, so by Jacobi's identity D(J0^-1) = D(J0) is singular too
    (_dominated_V(0.1 * np.eye(2)), np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]]), False),
], ids=["singular-A(V)", "singular-D(V)", "singular-A(J0)"])
def test_hypotheses_fail_on_singular_blocks(V, J0, rho_inf):
    p = SplitProblem(V=V, J0=J0, k1=1, k2=2, delta=0.05, powers=object())
    report = check_hypotheses(p)
    assert not report.passed
    assert math.isinf(report.rho) == rho_inf
    with pytest.raises(HypothesisFailure):
        derive_constants(p)


def test_hypotheses_fail_on_ill_conditioned_block():
    """An ill-conditioned A(J0) fails the hypotheses as a singular one does.

    J0 itself has condition number 5.8, but its 2x2 corner A(J0) has 4e13.
    """
    J0 = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 1.0], [0.0, 1.0, 1.0]])
    V = block_diag(2.0 * np.eye(2), np.array([[0.1]]))
    p = SplitProblem(V=V, J0=J0, k1=2, k2=1, delta=0.05)
    report = check_hypotheses(p)
    assert not report.passed
    assert report.rho == pytest.approx(0.05)
    with pytest.raises(HypothesisFailure):
        derive_constants(p)


def test_threshold_minimality():
    p = make_problem(seed=4)
    c = derive_constants(p)
    a, g, r = c.alpha, c.gamma, c.rho
    assert a + a * a * g * (1 + g) * r ** c.n1 <= g
    if c.n1 > 0:
        assert a + a * a * g * (1 + g) * r ** (c.n1 - 1) > g
    assert a * a * (1 + 2 * g) * r ** c.n2 < 1.0
    if c.n2 > 0:
        assert a * a * (1 + 2 * g) * r ** (c.n2 - 1) >= 1.0
    assert g * a * r ** c.n3 < p.delta / 2.0
    assert c.n0 >= max(c.n1, c.n2, c.n3)


def test_beta_keeps_ball_invertible():
    p = make_problem(seed=7)
    c = derive_constants(p)
    rng = np.random.default_rng(1)
    for _ in range(20):
        J = ball_sample(p, c, rng)
        invert(J)  # must not raise anywhere in the ball
        A, _, _, _ = split_blocks(J, p.k1)
        invert(A)


def test_xi_is_a_fixed_point():
    p = make_problem(seed=2)
    c = derive_constants(p)
    rng = np.random.default_rng(3)
    J = ball_sample(p, c, rng)
    n = c.n0 + 2
    xi = solve_xi(p, J, n)
    A, B, C, D = split_blocks(J, p.k1)
    S = p.powers.dvn_u_avmn(xi, n)
    # xi = phi(xi) multiplied through by X = A(J) + B(J) S
    assert op_norm(C + D @ S - xi @ (A + B @ S)) < 1e-11 * max(1.0, op_norm(xi))
    assert invariant_pair(p, J, n, c).residuals["forward_invariance"] < 1e-11


def test_eta_decays_geometrically():
    p = make_problem(seed=5)
    c = derive_constants(p)
    rng = np.random.default_rng(6)
    J = ball_sample(p, c, rng)
    Ji = invert(J)
    norms = [op_norm(p.powers.avmn_u_dvn(solve_eta(p, Ji, n), n))
             for n in (c.n0, c.n0 + 4, c.n0 + 8)]
    assert norms[0] < c.gamma * c.rho ** c.n0
    assert norms[2] < norms[1] < norms[0]


def test_invariant_pair_certifies():
    p = make_problem(seed=9)
    c = derive_constants(p)
    rng = np.random.default_rng(10)
    J = ball_sample(p, c, rng)
    cert = invariant_pair(p, J, c.n0 + 1, c)
    assert cert.residuals["forward_invariance"] < 1e-10
    assert cert.residuals["backward_invariance"] < 1e-10
    assert cert.bounds["item3"] < p.delta
    assert cert.bounds["item4"] < p.delta
    report = verify_certificate(cert, p)
    assert report["passed"]


def test_verify_detects_tampering():
    p = make_problem(seed=11)
    c = derive_constants(p)
    rng = np.random.default_rng(12)
    cert = invariant_pair(p, ball_sample(p, c, rng), c.n0 + 1, c)
    assert verify_certificate(cert, p)["passed"]
    for name in ("xi", "eta_hat", "X", "Y_inv"):
        original = getattr(cert, name)
        setattr(cert, name, original + 1e-3)
        report = verify_certificate(cert, p)
        assert not report["passed"], name
        setattr(cert, name, original)


def test_conjugated_blocks_carry_the_spectrum():
    """spectrum(J V^n) splits into spectrum(X A(V)^n) + spectrum(Y D(V)^n)."""
    p = make_problem(seed=13)
    c = derive_constants(p)
    rng = np.random.default_rng(14)
    J = ball_sample(p, c, rng)
    n = c.n0 + 1
    cert = invariant_pair(p, J, n, c)
    AV, _, _, DV = split_blocks(p.V, p.k1)
    full = np.sort_complex(np.linalg.eigvals(J @ np.linalg.matrix_power(p.V, n)))
    top = np.linalg.eigvals(cert.X @ np.linalg.matrix_power(AV, n))
    bottom = np.linalg.eigvals(np.linalg.inv(cert.Y_inv) @ np.linalg.matrix_power(DV, n))
    split = np.sort_complex(np.concatenate([top, bottom]))
    np.testing.assert_allclose(split, full, rtol=1e-8, atol=1e-12)


def test_block_diagonal_input_is_exact():
    p = make_problem(seed=15)
    c = derive_constants(p)
    # a block-diagonal J close to J0 in structure terms: zero off-blocks
    A0, _, _, D0 = split_blocks(p.J0, p.k1)
    J = block_diag(A0, D0)
    n = c.n0 + 1
    xi = solve_xi(p, J, n)
    eta = p.powers.avmn_u_dvn(solve_eta(p, invert(J), n), n)
    assert op_norm(xi) == 0.0
    assert op_norm(eta) == 0.0


def test_delta_violation_raises_item():
    p = make_problem(seed=16, delta=1e-9)
    # delta this tight cannot absorb a J0 with visible off-diagonal blocks
    with pytest.raises((CertificateFailure, HypothesisFailure)):
        c = derive_constants(p)
        rng = np.random.default_rng(17)
        J = p.J0 + 10 * c.beta * np.ones((p.d, p.d))
        invariant_pair(p, J, c.n0 + 1, c)


@pytest.fixture(scope="module", params=[(1, 2, 2), (2, 2, 2)], ids=["122", "222"])
def seed3(request):
    spec = sc.generate_instance(request.param, seed=3)
    return spec, sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)


@pytest.mark.parametrize("n", [3_000, 10_000, 100_000])
def test_split_certificates_hold_at_large_n(seed3, n):
    """Both stages certify and re-verify far past the range of J V^n."""
    spec, casc = seed3
    L_k = spec.L_n(casc.k0)
    for j, stage in enumerate(casc.stages, start=1):
        J = stage_input(L_k, n, casc, j)
        cert = invariant_pair(stage.problem, J, n, stage.constants)
        assert verify_certificate(cert, stage.problem)["passed"], (j, n)


def test_split_problem_rejects_coupled_V():
    """V enters only through A(V) and D(V), so its off-diagonal blocks must vanish."""
    p = make_problem()
    for i, j in ((0, 1), (2, 0)):
        V = p.V.copy()
        V[i, j] = 1e-3
        with pytest.raises(ValueError):
            SplitProblem(V=V, J0=p.J0, k1=p.k1, k2=p.k2, delta=p.delta)


def test_dense_sandwich_cache_follows_the_exponent():
    """One DensePowers queried at interleaved n equals a fresh one at each n."""
    p = make_problem(seed=8)
    rng = np.random.default_rng(9)
    for i, n in enumerate((7, 3, 7, 0)):
        u, v = rng.standard_normal((p.k2, p.k1)), rng.standard_normal((p.k1, p.k2))
        calls = [("dvn_u_avmn", u), ("avmn_u_dvn", v)][:: 1 if i % 2 == 0 else -1]
        for name, w in calls:
            expected = getattr(DensePowers(p.V, p.k1), name)(w, n)
            np.testing.assert_array_equal(getattr(p.powers, name)(w, n), expected)
    # A(V)^-n overflows at n = 2000; the cache must still hold n = 7 afterwards
    powers, u = DensePowers(np.diag([0.5, 0.25, 0.25]), 1), np.ones((2, 1))
    before = powers.dvn_u_avmn(u, 7)
    with pytest.raises(PowerOverflow):
        powers.dvn_u_avmn(u, 2000)
    np.testing.assert_array_equal(powers.dvn_u_avmn(u, 7), before)


@pytest.mark.parametrize("pattern", [(1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 2), (2, 2, 2)],
                         ids=lambda p: "".join(map(str, p)))
def test_fixed_points_pass_the_two_norm_stopping_test(pattern):
    """The Frobenius stopping test is conservative against the 2-norm one.

    One more operator step from the returned xi and eta_hat moves them by
    less than FIXED_POINT_STEP_TOL * max(1, ||u||_2) in the 2-norm.
    """
    spec = sc.generate_instance(pattern, seed=0)
    casc = sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    for n in (casc.n0, 1_000, 100_000):
        for j, stage in enumerate(casc.stages, start=1):
            p, J = stage.problem, stage_input(L_k, n, casc, j)
            A, B, C, D = split_blocks(J, p.k1)
            Ai, Bi, Ci, Di = split_blocks(np.linalg.inv(J), p.k1)
            xi = solve_xi(p, J, n)
            eta_hat = solve_eta(p, invert(J), n)
            Ainv, Dinv = np.linalg.inv(A), np.linalg.inv(Di)
            xi_next = C @ Ainv + (D - xi @ B) @ p.powers.dvn_u_avmn(xi, n) @ Ainv
            eta_next = Bi @ Dinv + (Ai - eta_hat @ Ci) @ p.powers.avmn_u_dvn(eta_hat, n) @ Dinv
            for u, u_next in ((xi, xi_next), (eta_hat, eta_next)):
                assert op_norm(u_next - u) < FIXED_POINT_STEP_TOL * max(1.0, op_norm(u)), (j, n)


def _fixed_point_from_zero(first, left, right, outer, sandwich, n):
    """The fixed-point loop started from u = 0, with its stopping test written out."""
    u = np.zeros_like(first)
    for _ in range(FIXED_POINT_MAX_ITER):
        u_new = first + (right - u @ left) @ sandwich(u, n) @ outer
        scale = max(1.0, math.hypot(*u_new.flat) / math.sqrt(min(u.shape)))
        if math.hypot(*(u_new - u).flat) < FIXED_POINT_STEP_TOL * scale:
            return u_new
        u = u_new
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("k1,k2", [(1, 2), (2, 1), (2, 2), (2, 4)])
def test_fixed_point_matches_the_loop_from_zero(k1, k2):
    """Starting from first, the exact step from u = 0, gives the same xi and
    eta_hat bit for bit with one sandwich call fewer; a first iterate already
    below the step tolerance (C(J) ~ 0 or = 0) is returned as it is.  A loop
    that never converges gives up after FIXED_POINT_MAX_ITER steps, the step
    from u = 0 counted."""
    calls = [0]

    def counted(sandwich):
        def wrapper(u, n):
            calls[0] += 1
            return sandwich(u, n)
        return wrapper

    for seed in range(4):
        p = make_problem(seed, k1=k1, k2=k2)
        constants = derive_constants(p)
        J = ball_sample(p, constants, np.random.default_rng(seed))
        Ji = np.linalg.inv(J)
        A, B, C, D = split_blocks(J, k1)
        Ai, Bi, Ci, Di = split_blocks(Ji, k1)
        Ainv, Dinv = invert(A), invert(Di)
        cases = [(C @ Ainv, B, D, Ainv, p.powers.dvn_u_avmn),
                 (Bi @ Dinv, Ci, Ai, Dinv, p.powers.avmn_u_dvn),
                 (1e-15 * C @ Ainv, B, D, Ainv, p.powers.dvn_u_avmn),
                 (0.0 * C @ Ainv, B, D, Ainv, p.powers.dvn_u_avmn)]
        for n in (constants.n0, constants.n0 + 7, 1_000):
            for first, left, right, outer, sandwich in cases:
                calls[0] = 0
                want = _fixed_point_from_zero(first, left, right, outer, counted(sandwich), n)
                ref_calls, calls[0] = calls[0], 0
                got = _fixed_point(first, left, right, outer, counted(sandwich), n, "u")
                assert got.tobytes() == want.tobytes(), (seed, n)
                assert calls[0] == ref_calls - 1, (seed, n)

    flip = (np.ones((2, 2)), np.zeros((2, 2)), -np.eye(2), np.eye(2))  # u <- first - u
    calls[0] = 0
    with pytest.raises(ConvergenceFailure):
        _fixed_point(*flip, counted(lambda u, n: u), 0, "u")
    assert calls[0] == FIXED_POINT_MAX_ITER - 1
