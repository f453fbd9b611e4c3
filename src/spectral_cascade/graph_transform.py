"""Invariant graphs of J*V^n under a dominated split: one kernel, one check.

Given a block-diagonal V = diag(A(V), D(V)) with ||D(V)|| < ||A(V)^{-1}||^{-1}
and a reference J0, the operator

    phi(u) = C(J) A(J)^{-1} + (D(J) - u B(J)) D(V)^n u A(V)^{-n} A(J)^{-1}

is a contraction on a ball of linear maps for all n past explicit thresholds
and all J in a ball around J0.  Its fixed point xi, together with the fixed
point eta_hat of the analogous inverse-side operator (the graph itself is
eta = A(V)^{-n} eta_hat D(V)^n), splits R^d into a pair of invariant graphs
whose conjugated corner blocks

    X      = A(J) + B(J) S,          S = D(V)^n xi A(V)^{-n}
    Y^{-1} = C(J^{-1}) eta + D(J^{-1})

carry the spectrum: spectrum(J V^n) = spectrum(X A(V)^n) + spectrum(Y D(V)^n).

``dominated_split`` is the one kernel that computes xi, eta_hat, X and
Y^{-1} at a (J, n); the cascade, ``invariant_pair`` and ``verify`` all use it
or its check.  ``admit`` is the one admission check: the split's hypotheses
hold only for J in the beta ball around J0 and n from the threshold n0 on,
for the cascade's stage loop, ``invariant_pair`` and ``verify`` alike.

The certificate check is scale-free.  The invariance equations of the two
graphs, J V^n G_xi = G_xi X A(V)^n and V^{-n} J^{-1} G_eta = G_eta D(V)^{-n}
Y^{-1}, are multiplied through by A(V)^{-n} and V^n respectively:

    forward   ||J [I; S] - [I; xi] X|| / ||J||
    backward  ||J^{-1} [eta; I] - [eta_hat; I] Y^{-1}|| / ||J^{-1}||

Their first (forward) and last (backward) block rows restate the
definitions of X and Y^{-1}, so a stored X or Y^{-1} that does not belong to
xi and eta_hat fails them.  V enters only through the two bounded sandwich
products, so the check holds at any n.  Item 1 bounds ||xi|| and ||eta_hat||
by gamma (which gives ||eta|| <= gamma rho^n), item 2 is transversality,
items 3 and 4 the delta-closeness of X to A(J0) and of Y^{-1} to D(J0^{-1}).

All constants are derived constructively: the ball radius beta comes from a
Neumann-series Lipschitz bound on matrix inversion, the uniform block-norm
bound alpha from perturbation bounds over the beta-ball, and the thresholds
n1/n2/n3 by direct upward scan of the defining inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blocks import split_blocks
from .errors import (
    CertificateFailure,
    ConvergenceFailure,
    HypothesisFailure,
    IllConditioned,
    SingularMatrix,
)
from .linalg import _det, invert, matrix_power_checked, op_norm

FIXED_POINT_STEP_TOL = 1e-13
FIXED_POINT_MAX_ITER = 500
RESIDUAL_TOL = 1e-8
TRANSVERSALITY_TOL = 1e-12
_RESIDUALS = ("forward_invariance", "backward_invariance")
_SCAN_CAP = 200_000


class DensePowers:
    """Sandwich products of a block-diagonal V by repeated multiplication, kept for the last n."""

    def __init__(self, V: np.ndarray, k1: int):
        AV, _, _, DV = split_blocks(np.asarray(V, dtype=float), k1)
        self._AVi = invert(AV)
        self._DV = DV
        self._cache = (None,)

    def _powers(self, n: int):
        """(n, D(V)^n, A(V)^{-n}), rebuilt only when n changes."""
        if self._cache[0] != n:
            DVn = matrix_power_checked(self._DV, n)
            self._cache = (n, DVn, matrix_power_checked(self._AVi, n))
        return self._cache

    def dvn_u_avmn(self, u: np.ndarray, n: int) -> np.ndarray:
        _, DVn, AVmn = self._powers(n)
        return DVn @ u @ AVmn

    def avmn_u_dvn(self, u: np.ndarray, n: int) -> np.ndarray:
        _, DVn, AVmn = self._powers(n)
        return AVmn @ u @ DVn


@dataclass(eq=False)
class SplitProblem:
    """A dominated-split instance (V, J0, k1 | k2, delta).

    V must be block-diagonal along k1 | k2.  J0^{-1} and the reference
    blocks A(J0) and D(J0^{-1}) are computed once, here.
    """

    V: np.ndarray
    J0: np.ndarray
    k1: int
    k2: int
    delta: float
    powers: object = None
    J0i: np.ndarray = field(init=False, repr=False)
    A0: np.ndarray = field(init=False, repr=False)
    D0i: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        self.J0 = np.asarray(self.J0, dtype=float)
        d = self.k1 + self.k2
        if self.V.shape != (d, d) or self.J0.shape != (d, d):
            raise ValueError(
                f"V and J0 must be {d}x{d} for split {self.k1}|{self.k2}, "
                f"got {self.V.shape} and {self.J0.shape}"
            )
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        _, BV, CV, _ = split_blocks(self.V, self.k1)
        if np.any(BV) or np.any(CV):
            raise ValueError(f"V must be block-diagonal along the split {self.k1}|{self.k2}")
        self.J0i = invert(self.J0)
        self.A0 = split_blocks(self.J0, self.k1)[0]
        self.D0i = split_blocks(self.J0i, self.k1)[3]
        if self.powers is None:
            self.powers = DensePowers(self.V, self.k1)

    @property
    def d(self) -> int:
        return self.k1 + self.k2


@dataclass(frozen=True)
class HypothesisReport:
    """rho and the verdict; when the blocks invert, also A(J0)^-1 and D(J0^-1)^-1."""

    rho: float
    passed: bool
    A0_inv: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    D0i_inv: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class TransformConstants:
    """Uniform constants of one dominated-split application.

    The same alpha bounds every block norm appearing in both the forward
    and the inverse-side operator, so one threshold n0_plus serves both;
    n0 = max(n0_plus, n_dom) is the one admission threshold.
    """

    alpha: float
    beta: float
    gamma: float
    rho: float
    n1: int
    n2: int
    n3: int
    n_dom: int
    n0_plus: int
    n0: int


@dataclass(eq=False)
class SplitCertificate:
    """One split at (J, n): the graphs, the conjugated blocks, the checked items.

    ``dominated_split`` fills the first six fields; ``invariant_pair`` adds
    the constants and the residuals and bounds it checked.
    """

    n: int
    J: np.ndarray
    xi: np.ndarray
    eta_hat: np.ndarray
    X: np.ndarray
    Y_inv: np.ndarray
    constants: Optional[TransformConstants] = None
    residuals: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)


def check_hypotheses(problem: SplitProblem) -> HypothesisReport:
    """Invertibility of the four corner blocks plus the domination ratio.

    rho = ||D(V)|| ||A(V)^{-1}|| is infinite only when A(V) is singular.
    """
    AV, _, _, DV = split_blocks(problem.V, problem.k1)
    rho, passed, A0_inv, D0i_inv = math.inf, False, None, None
    try:
        rho = op_norm(DV) * op_norm(invert(AV))
        A0_inv = invert(problem.A0)
        invert(DV)
        D0i_inv = invert(problem.D0i)
        passed = rho < 1.0
    except (SingularMatrix, IllConditioned):
        pass
    return HypothesisReport(rho, passed, A0_inv, D0i_inv)


def _min_n(predicate) -> int:
    for n in range(_SCAN_CAP):
        if predicate(n):
            return n
    raise HypothesisFailure("threshold scan exhausted; constants diverge")


def derive_constants(problem: SplitProblem) -> TransformConstants:
    """Ball radius, uniform norm bound, and iteration thresholds.

    beta is chosen (with a 0.5 safety factor) so that on the beta-ball the
    top block stays delta/2-close, the inverse map is 2*||J0^-1||^2
    Lipschitz, and the blocks that get inverted keep a Neumann margin.
    The thresholds are the minimal integers satisfying the self-mapping,
    contraction and delta/2 tail conditions; they are found by direct scan
    rather than closed-form ceilings.
    """
    report = check_hypotheses(problem)
    if not report.passed:
        raise HypothesisFailure(f"split hypotheses fail: {report}")
    rho = report.rho
    delta = problem.delta

    _, B0, C0, D0 = split_blocks(problem.J0, problem.k1)
    Ai0, Bi0, Ci0, _ = split_blocks(problem.J0i, problem.k1)

    r0 = op_norm(problem.J0i)
    a0inv = op_norm(report.A0_inv)  # the guard's inverses of A(J0) and D(J0^-1)
    d0i_inv = op_norm(report.D0i_inv)

    beta = 0.5 * min(
        delta / 2.0,
        1.0 / (2.0 * r0),
        delta / (4.0 * r0 * r0),
        1.0 / (2.0 * a0inv),
        1.0 / (4.0 * r0 * r0 * d0i_inv),
    )
    rho_inv_lip = 2.0 * r0 * r0 * beta  # bound on ||J^-1 - J0^-1|| over the ball

    n_a_inv = a0inv / (1.0 - beta * a0inv)
    n_di_inv = d0i_inv / (1.0 - rho_inv_lip * d0i_inv)
    alpha = max(
        op_norm(D0) + beta,
        n_a_inv,
        op_norm(B0) + beta,
        (op_norm(C0) + beta) * n_a_inv,
        op_norm(Ai0) + rho_inv_lip,
        op_norm(Ci0) + rho_inv_lip,
        n_di_inv,
        (op_norm(Bi0) + rho_inv_lip) * n_di_inv,
    )
    gamma = 2.0 * alpha

    n1 = _min_n(lambda n: alpha + alpha * alpha * gamma * (1 + gamma) * rho ** n <= gamma)
    n2 = _min_n(lambda n: alpha * alpha * (1 + 2 * gamma) * rho ** n < 1.0)
    n3 = _min_n(lambda n: gamma * alpha * rho ** n < delta / 2.0)
    n0_plus = max(n1, n2, n3)

    # Domination reserve: with X_n delta-close to A(J0) and Y_n^-1
    # delta-close to D(J0^-1), spectra separate once the bound below drops
    # under 1.  If delta is too coarse for the a-priori bound, the runtime
    # modulus comparison in the split takes over.
    n_dom = 0
    if delta * a0inv < 1.0 and delta * d0i_inv < 1.0:
        bx = a0inv / (1.0 - delta * a0inv)
        by = d0i_inv / (1.0 - delta * d0i_inv)
        n_dom = _min_n(lambda n: bx * by * rho ** n < 1.0)

    return TransformConstants(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        rho=rho,
        n1=n1,
        n2=n2,
        n3=n3,
        n_dom=n_dom,
        n0_plus=n0_plus,
        n0=max(n0_plus, n_dom),
    )


def _converged(u_new: np.ndarray, step: np.ndarray) -> bool:
    """Stopping test on Frobenius norms; it implies the 2-norm test, by
    ||M||_2 <= ||M||_F <= sqrt(min(M.shape)) ||M||_2."""
    scale = max(1.0, math.hypot(*u_new.ravel().tolist()) / math.sqrt(min(u_new.shape)))
    return math.hypot(*step.ravel().tolist()) < FIXED_POINT_STEP_TOL * scale


def _fixed_point(first, left, right, outer, sandwich, n: int, name: str) -> np.ndarray:
    """Iterate u <- first + (right - u left) sandwich(u, n) outer from u = first.

    ``first`` is exactly the step from u = 0, which FIXED_POINT_MAX_ITER counts.
    """
    u = first
    if _converged(u, u):
        return u
    for _ in range(FIXED_POINT_MAX_ITER - 1):
        u_new = first + (right - u @ left) @ sandwich(u, n) @ outer
        if _converged(u_new, u_new - u):
            return u_new
        u = u_new
    raise ConvergenceFailure(f"{name} iteration did not converge at n={n}; constants violated")


def solve_xi(problem: SplitProblem, J: np.ndarray, n: int) -> np.ndarray:
    """Fixed point of the forward operator."""
    A, B, C, D = split_blocks(np.asarray(J, dtype=float), problem.k1)
    Ainv = invert(A)
    return _fixed_point(C @ Ainv, B, D, Ainv, problem.powers.dvn_u_avmn, n, "xi")


def solve_eta(problem: SplitProblem, Ji: np.ndarray, n: int) -> np.ndarray:
    """Fixed point eta_hat of the inverse-side operator, given Ji = J^{-1}.

    The graph itself is eta = A(V)^{-n} eta_hat D(V)^n, which decays like
    rho^n.
    """
    Ai, Bi, Ci, Di = split_blocks(Ji, problem.k1)
    Dinv = invert(Di)
    return _fixed_point(Bi @ Dinv, Ci, Ai, Dinv, problem.powers.avmn_u_dvn, n, "eta")


def admit(problem: SplitProblem, constants: TransformConstants, J: np.ndarray,
          n: int) -> None:
    """Raise HypothesisFailure unless ||J - J0|| < beta and n >= n0."""
    dist = op_norm(J - problem.J0)
    if dist >= constants.beta:
        raise HypothesisFailure(
            f"input outside the beta ball ({dist:.3g} >= {constants.beta:.3g})"
        )
    if n < constants.n0:
        raise HypothesisFailure(f"exponent {n} below threshold {constants.n0}")


def dominated_split(problem: SplitProblem, J: np.ndarray, n: int):
    """The split kernel: xi, eta_hat, X and Y^{-1} at one (J, n).

    Returns the unchecked certificate and J^{-1}, which it computes once.
    Raises CertificateFailure (item 3 or 4) when X drifts delta away from
    A(J0) or Y^{-1} from D(J0^{-1}).
    """
    J = np.asarray(J, dtype=float)
    Ji = invert(J)
    xi = solve_xi(problem, J, n)
    eta_hat = solve_eta(problem, Ji, n)
    A, B, _, _ = split_blocks(J, problem.k1)
    _, _, Ci, Di = split_blocks(Ji, problem.k1)
    X = A + B @ problem.powers.dvn_u_avmn(xi, n)
    Y_inv = Ci @ problem.powers.avmn_u_dvn(eta_hat, n) + Di
    x_drift = op_norm(X - problem.A0)
    if x_drift >= problem.delta:
        raise CertificateFailure(
            f"top block drifts {x_drift:.3g} >= delta {problem.delta:.3g}", item=3
        )
    y_drift = op_norm(Y_inv - problem.D0i)
    if y_drift >= problem.delta:
        raise CertificateFailure(
            f"inverse bottom block drifts {y_drift:.3g} >= delta {problem.delta:.3g}", item=4
        )
    return SplitCertificate(n=n, J=J, xi=xi, eta_hat=eta_hat, X=X, Y_inv=Y_inv), Ji


def _check(problem: SplitProblem, cert: SplitCertificate, Ji: np.ndarray) -> dict:
    """Recompute every item of ``cert`` in scale-free form (see the module doc).

    Returns {name: {"value", "passed", "item"}}, the informative "eta_norm"
    and the overall "passed".
    """
    n, I1, I2 = cert.n, np.eye(problem.k1), np.eye(problem.k2)
    S = problem.powers.dvn_u_avmn(cert.xi, n)
    eta = problem.powers.avmn_u_dvn(cert.eta_hat, n)
    fwd = op_norm(cert.J @ np.vstack([I1, S]) - np.vstack([I1, cert.xi]) @ cert.X)
    back = op_norm(Ji @ np.vstack([eta, I2]) - np.vstack([cert.eta_hat, I2]) @ cert.Y_inv)
    fwd /= op_norm(cert.J)
    back /= op_norm(Ji)
    xi_norm = op_norm(cert.xi)
    eta_hat_norm = op_norm(cert.eta_hat)
    trans = abs(float(_det(np.block([[I1, eta], [cert.xi, I2]]))))
    item3 = op_norm(cert.X - problem.A0)
    item4 = op_norm(cert.Y_inv - problem.D0i)
    gamma, delta = cert.constants.gamma, problem.delta
    items = (
        ("forward_invariance", fwd, fwd < RESIDUAL_TOL, 1),
        ("backward_invariance", back, back < RESIDUAL_TOL, 1),
        ("xi_norm", xi_norm, xi_norm <= gamma, 1),
        ("eta_hat_norm", eta_hat_norm, eta_hat_norm <= gamma, 1),
        ("transversality_det", trans, trans > TRANSVERSALITY_TOL, 2),
        ("item3", item3, item3 < delta, 3),
        ("item4", item4, item4 < delta, 4),
    )
    report = {name: {"value": value, "passed": bool(ok), "item": item}
              for name, value, ok, item in items}
    report["eta_norm"] = op_norm(eta)
    report["passed"] = all(ok for _, _, ok, _ in items)
    return report


def invariant_pair(problem: SplitProblem, J: np.ndarray, n: int,
                   constants: TransformConstants) -> SplitCertificate:
    """Admit (J, n) against n0, split and certify.

    Raises HypothesisFailure when (J, n) is not admitted and
    CertificateFailure on a failed item.
    """
    admit(problem, constants, J, n)
    cert, Ji = dominated_split(problem, J, n)
    cert.constants = constants
    report = _check(problem, cert, Ji)
    entries = {k: v for k, v in report.items() if isinstance(v, dict)}
    for name, entry in entries.items():
        if not entry["passed"]:
            raise CertificateFailure(f"{name} = {entry['value']:.3g} fails", item=entry["item"])
    cert.residuals = {k: entries[k]["value"] for k in _RESIDUALS}
    cert.bounds = {k: v["value"] for k, v in entries.items() if k not in _RESIDUALS}
    cert.bounds["eta_norm"] = report["eta_norm"]
    return cert


def verify_certificate(cert: SplitCertificate, problem: SplitProblem) -> dict:
    """Recompute every item of a certificate from scratch.

    Returns the per-item report of ``invariant_pair``'s check; never raises
    on a failed item.
    """
    return _check(problem, cert, invert(cert.J))
