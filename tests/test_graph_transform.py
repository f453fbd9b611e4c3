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
)
from spectral_cascade.graph_transform import (
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_STEP_TOL,
    SplitProblem,
    _converged,
    _fixed_point,
    _identity,
    derive_constants,
    invariant_pair,
    report_values,
    solve_eta,
    solve_xi,
    verify_certificate,
)
from spectral_cascade.linalg import invert, op_norm
from spectral_cascade.model import DiagonalModel, RotationBlock, Sandwich, ScalarBlock

from check_reference import reference_check
from split_problems import random_split_problem


def make_problem(seed=0, k1=1, k2=2, delta=0.05, coupling=0.2):
    """The split of a random dominated diagonal model, with a generic J0 nearby."""
    return random_split_problem(np.random.default_rng(seed), k1, k2, delta, coupling)


def exponent(n):
    """A sandwich at n without factors, for a product that reads none."""
    return Sandwich(n, None, None, None)


def ball_sample(problem, constants, rng):
    G = rng.standard_normal((problem.d, problem.d))
    return problem.J0 + 0.9 * constants.beta * G / op_norm(G)


def test_hypotheses_pass_and_fail():
    p = make_problem()
    assert derive_constants(p).rho < 1.0
    # one block has no tail to split off
    with pytest.raises(ValueError, match="^need at least two blocks to split$"):
        SplitProblem(p.model.tail(2), p.J0[1:, 1:], 0.05)


def _model(*blocks):
    return DiagonalModel(sc.BlockStructure(tuple(b.size for b in blocks)), blocks)


# a model's blocks are nonzero, so of the four only A(J0) can be exactly singular
@pytest.mark.parametrize("tail,J0,block,reason", [
    # A(J0) = 0, so by Jacobi's identity D(J0^-1) = D(J0) is singular too
    ((RotationBlock(0.1, 0.0),), np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]]), "A(J0)",
     "|determinant| 0 below scale threshold"),
    ((ScalarBlock(0.1), ScalarBlock(1e-14)), np.eye(3), "D(V)",
     "condition number 1e+13 above cap"),
], ids=["singular-A(J0)", "ill-conditioned-D(V)"])
def test_hypotheses_fail_on_singular_blocks(tail, J0, block, reason):
    model = _model(ScalarBlock(2.0), *tail)
    with pytest.raises(HypothesisFailure) as info:
        derive_constants(SplitProblem(model, J0, 0.05))
    assert str(info.value) == f"split hypotheses fail: {block} does not invert ({reason})"


def test_hypotheses_fail_on_ill_conditioned_block():
    """An ill-conditioned A(J0) fails the hypotheses as a singular one does.

    J0 itself has condition number 5.8, but its 2x2 corner A(J0) has 4e13.
    """
    J0 = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 1.0], [0.0, 1.0, 1.0]])
    p = SplitProblem(_model(RotationBlock(2.0, 0.0), ScalarBlock(0.1)), J0, 0.05)
    with pytest.raises(HypothesisFailure, match=r"^split hypotheses fail: A\(J0\) does not "
                       r"invert \(condition number 4e\+13 above cap\)$"):
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
    s = p.powers.at(n)
    xi = solve_xi(p, J, s)
    A, B, C, D = split_blocks(J, p.k1)
    S = p.powers.dvn_u_avmn(xi, s)
    # xi = phi(xi) multiplied through by X = A(J) + B(J) S
    assert op_norm(C + D @ S - xi @ (A + B @ S)) < 1e-11 * max(1.0, op_norm(xi))
    assert invariant_pair(p, J, n, c).residuals["forward_invariance"] < 1e-11


def test_eta_decays_geometrically():
    p = make_problem(seed=5)
    c = derive_constants(p)
    rng = np.random.default_rng(6)
    J = ball_sample(p, c, rng)
    Ji = invert(J)
    norms = [op_norm(p.powers.avmn_u_dvn(solve_eta(p, Ji, s), s))
             for s in map(p.powers.at, (c.n0, c.n0 + 4, c.n0 + 8))]
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
    # X or Y^{-1} moved inside the delta-ball, off the graph of xi or eta_hat:
    # its invariance residual is the one item that fails
    for name, item in (("X", "forward_invariance"), ("Y_inv", "backward_invariance")):
        original = getattr(cert, name)
        setattr(cert, name, original + 1e-6)
        report = verify_certificate(cert, p)
        assert [k for k, v in report.items() if isinstance(v, dict) and not v["passed"]] == [item]
        setattr(cert, name, original)


def test_check_identities_are_read_only():
    """The identities the check shares across calls are formed once per size
    and cannot be written to."""
    for k in (1, 2, 4):
        I = _identity(k)
        assert I is _identity(k)
        np.testing.assert_array_equal(I, np.eye(k))
        with pytest.raises(ValueError):
            I[0, 0] = 2.0
        with pytest.raises(ValueError):
            I += 1.0


def _bits(report):
    """A check report, or its values, with every float as its hex form."""
    return {k: _bits(v) if isinstance(v, dict) else v.hex() if isinstance(v, float) else v
            for k, v in report.items()}


BENCH_PATTERNS = [(1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 2), (2, 2, 2)]


@pytest.mark.parametrize("pattern", BENCH_PATTERNS, ids=lambda p: "".join(map(str, p)))
def test_check_matches_its_block_reference_bit_for_bit(pattern):
    """verify_certificate's report and invariant_pair's residuals and bounds
    are those of the np.block form of the check, bit for bit: seeds 0-3, every
    stage, n from the threshold n0 to 1e9."""
    for seed in range(4):
        spec = sc.generate_instance(pattern, seed=seed)
        casc = sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
        L_k = spec.L_n(casc.k0)
        for j, stage in enumerate(casc.stages, start=1):
            p = stage.problem
            for n in (casc.n0, 100, 1_000, 10**5, 10**9):
                cert = invariant_pair(p, stage_input(L_k, n, casc, j), n, stage.constants)
                ref = reference_check(p, cert, invert(cert.J), p.powers.at(n))
                assert ref["passed"], (seed, j, n)
                assert _bits(verify_certificate(cert, p)) == _bits(ref), (seed, j, n)
                residuals, bounds = report_values(ref)
                assert _bits(cert.residuals) == _bits(residuals), (seed, j, n)
                assert _bits(cert.bounds) == _bits(bounds), (seed, j, n)


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
    s = p.powers.at(c.n0 + 1)
    xi = solve_xi(p, J, s)
    eta = p.powers.avmn_u_dvn(solve_eta(p, invert(J), s), s)
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


@pytest.mark.parametrize("pattern", BENCH_PATTERNS, ids=lambda p: "".join(map(str, p)))
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
            s = p.powers.at(n)
            xi = solve_xi(p, J, s)
            eta_hat = solve_eta(p, invert(J), s)
            Ainv, Dinv = np.linalg.inv(A), np.linalg.inv(Di)
            xi_next = C @ Ainv + (D - xi @ B) @ p.powers.dvn_u_avmn(xi, s) @ Ainv
            eta_next = Bi @ Dinv + (Ai - eta_hat @ Ci) @ p.powers.avmn_u_dvn(eta_hat, s) @ Dinv
            for u, u_next in ((xi, xi_next), (eta_hat, eta_next)):
                assert op_norm(u_next - u) < FIXED_POINT_STEP_TOL * max(1.0, op_norm(u)), (j, n)


def _fixed_point_from_zero(first, left, right, outer, product, s):
    """The fixed-point loop started from u = 0, with its stopping test written out."""
    u = np.zeros_like(first)
    for _ in range(FIXED_POINT_MAX_ITER):
        u_new = first + (right - u @ left) @ product(u, s) @ outer
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

    def counted(product):
        def wrapper(u, s):
            calls[0] += 1
            return product(u, s)
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
            s = p.powers.at(n)
            for first, left, right, outer, product in cases:
                calls[0] = 0
                want = _fixed_point_from_zero(first, left, right, outer, counted(product), s)
                ref_calls, calls[0] = calls[0], 0
                got = _fixed_point(first, left, right, outer, counted(product), s, "u")
                assert got.tobytes() == want.tobytes(), (seed, n)
                assert calls[0] == ref_calls - 1, (seed, n)

    flip = (np.ones((2, 2)), np.zeros((2, 2)), -np.eye(2), np.eye(2))  # u <- first - u
    calls[0] = 0
    with pytest.raises(ConvergenceFailure):
        _fixed_point(*flip, counted(lambda u, s: u), exponent(0), "u")
    assert calls[0] == FIXED_POINT_MAX_ITER - 1


def test_fixed_point_stack_fails_per_item():
    """A stack raises the error of its first item that never converges, with
    that item's own exponent, as the item raises alone; the items that
    converge give, as a stack, each item's own iterate alone."""
    first = np.ones((3, 2, 2))
    left = np.zeros((3, 2, 2))
    right = np.array([-np.eye(2), 0.5 * np.eye(2), -np.eye(2)])  # u <- first - u, first + u / 2
    n = np.array([9, 7, 11])
    with pytest.raises(ConvergenceFailure) as stacked:
        _fixed_point(first, left, right, np.eye(2), lambda u, s: u, exponent(n), "u")
    with pytest.raises(ConvergenceFailure) as alone:
        _fixed_point(first[0], left[0], right[0], np.eye(2), lambda u, s: u, exponent(9), "u")
    assert str(stacked.value) == str(alone.value) and "n=9" in str(alone.value)
    kept = _fixed_point(first[1:2], left[1:2], right[1:2], np.eye(2), lambda u, s: u,
                        exponent(n[1:2]), "u")
    lone = _fixed_point(first[1], left[1], right[1], np.eye(2), lambda u, s: u, exponent(7), "u")
    assert kept[0].tobytes() == lone.tobytes()


def test_stopping_test_on_a_stack_is_each_item_alone(rng):
    """Steps at the tolerance and a few ulp around it, where numpy's norms and
    math.hypot's may part, stop an item of a stack exactly when they stop it
    alone."""
    for shape in [(2, 1), (1, 2), (2, 2), (4, 2)]:
        u = rng.standard_normal((40,) + shape) * 10.0 ** rng.uniform(-3, 3, (40, 1, 1))
        steps = rng.standard_normal((40,) + shape)
        for i in range(40):
            scale = max(1.0, math.hypot(*u[i].flat) / math.sqrt(min(shape)))
            steps[i] *= FIXED_POINT_STEP_TOL * scale / math.hypot(*steps[i].flat)
            steps[i] *= 1.0 + (i - 20) * 2.0 ** -52
        alone = [_converged(ui, si)[0] for ui, si in zip(u, steps)]
        assert _converged(u, steps) == alone
        assert 0 < sum(alone) < 40
