"""Invariant graphs of J*V^n under a dominated split: one kernel, one check.

V is the matrix of a diagonal model diag[T_j : ... : T_m] (a tail of the
normal form), split into A(V) = T_j and D(V) = diag[T_j+1 : ... : T_m];
its strictly decreasing moduli give ||D(V)|| < ||A(V)^{-1}||^{-1}.  Given a
reference J0, the operator

    phi(u) = C(J) A(J)^{-1} + (D(J) - u B(J)) D(V)^n u A(V)^{-n} A(J)^{-1}

is a contraction on a ball of linear maps for all n past explicit thresholds
and all J in a ball around J0.  Its fixed point xi, together with the fixed
point eta_hat of the analogous inverse-side operator (the graph itself is
eta = A(V)^{-n} eta_hat D(V)^n), splits R^d into a pair of invariant graphs
whose conjugated corner blocks

    X      = A(J) + B(J) S,          S = D(V)^n xi A(V)^{-n}
    Y^{-1} = C(J^{-1}) eta + D(J^{-1})

carry the spectrum: spectrum(J V^n) = spectrum(X A(V)^n) + spectrum(Y D(V)^n).

``dominated_split`` is the one kernel that computes xi, eta_hat, X and Y^{-1}
at a (J, n), n given with its factors as a ``model.Sandwich``; the cascade,
``invariant_pair`` and ``verify`` all use it or its check.  ``admit`` is the
one admission check: the split's hypotheses hold only for J in the beta ball
around J0 and n from the threshold n0 on, for every caller alike.

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
from itertools import starmap
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
from .linalg import _det, invert, norm_below, op_norm
from .model import DiagonalModel, DiagonalPowers, Sandwich

FIXED_POINT_STEP_TOL = 1e-13
FIXED_POINT_MAX_ITER = 500
RESIDUAL_TOL = 1e-8
TRANSVERSALITY_TOL = 1e-12
_RESIDUALS = ("forward_invariance", "backward_invariance")
_SCAN_CAP = 200_000


@dataclass(frozen=True, eq=False)
class SplitProblem:
    """A dominated split (model, J0, delta): the first block of ``model`` off the rest.

    V is the model's matrix, split k1 | k2 after its first block, and its
    sandwich products come from ``DiagonalPowers``.  J0^{-1} and the
    reference blocks A(J0) and D(J0^{-1}) are computed once, here; V,
    J0^{-1} and D(J0^{-1}) are read-only.
    """

    model: DiagonalModel
    J0: np.ndarray
    delta: float
    V: np.ndarray = field(init=False, repr=False)
    k1: int = field(init=False)
    k2: int = field(init=False)
    powers: DiagonalPowers = field(init=False, repr=False)
    J0i: np.ndarray = field(init=False, repr=False)
    A0: np.ndarray = field(init=False, repr=False)
    D0i: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        V, J0 = self.model.matrix(), np.asarray(self.J0, dtype=float)
        k1 = self.model.structure.sizes[0]
        if J0.shape != V.shape:
            raise ValueError(f"J0 must be {self.d}x{self.d} for split {k1}|{self.d - k1}, "
                             f"got {J0.shape}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        J0i = invert(J0)
        V.flags.writeable = J0i.flags.writeable = False  # D(J0^{-1}) is a view of J0^{-1}
        fields = dict(V=V, powers=DiagonalPowers(self.model), k1=k1, k2=self.d - k1, J0=J0,
                      J0i=J0i, A0=split_blocks(J0, k1)[0], D0i=split_blocks(J0i, k1)[3])
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.model.d


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

    Raises HypothesisFailure unless the four corner blocks A(V), A(J0),
    D(V) and D(J0^-1) invert and rho = ||D(V)|| ||A(V)^-1|| < 1; a model's
    decreasing moduli give rho < 1, and the test stays as a safety check.
    """
    AV, _, _, DV = split_blocks(problem.V, problem.k1)
    dv = op_norm(DV)
    inverses = {}
    for name, block in (("A(V)", AV), ("A(J0)", problem.A0), ("D(V)", DV),
                        ("D(J0^-1)", problem.D0i)):
        try:
            inverses[name] = invert(block)
        except (SingularMatrix, IllConditioned) as exc:
            raise HypothesisFailure(f"split hypotheses fail: {name} does not invert ({exc})") from exc
    rho = dv * op_norm(inverses["A(V)"])
    if not rho < 1.0:
        raise HypothesisFailure(f"split hypotheses fail: rho = {rho!r} >= 1")
    delta = problem.delta

    _, B0, C0, D0 = split_blocks(problem.J0, problem.k1)
    Ai0, Bi0, Ci0, _ = split_blocks(problem.J0i, problem.k1)

    r0 = op_norm(problem.J0i)
    a0inv = op_norm(inverses["A(J0)"])
    d0i_inv = op_norm(inverses["D(J0^-1)"])

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


def _converged(u_new: np.ndarray, step: np.ndarray) -> list:
    """Stopping test on Frobenius norms, per item; it implies the 2-norm test,
    by ||M||_2 <= ||M||_F <= sqrt(min(M.shape)) ||M||_2.  A stack item takes
    the math.hypot norms of a lone matrix."""
    if u_new.ndim == 2:
        fro = math.hypot(*u_new.ravel().tolist())
        step_fro = fro if step is u_new else math.hypot(*step.ravel().tolist())
        return [step_fro < FIXED_POINT_STEP_TOL * max(1.0, fro / math.sqrt(min(u_new.shape)))]
    r, c = u_new.shape[1:]
    fro = list(starmap(math.hypot, u_new.reshape(-1, r * c).tolist()))
    step_fro = fro if step is u_new else starmap(math.hypot, step.reshape(-1, r * c).tolist())
    scale = math.sqrt(min(r, c))
    return [s < FIXED_POINT_STEP_TOL * max(1.0, f / scale) for f, s in zip(fro, step_fro)]


def _fixed_point(first, left, right, outer, product, s: Sandwich, name: str) -> np.ndarray:
    """Iterate u <- first + (right - u left) product(u, s) outer from u = first.

    ``first`` is exactly the step from u = 0, which FIXED_POINT_MAX_ITER counts.
    On a stack (N, r, c) at exponents s.n (N,), each item keeps the iterate at
    which its own test first passed, until every item has stopped; the first
    item that never stops raises.
    """
    u = out = first
    done = _converged(u, u)
    for _ in range(FIXED_POINT_MAX_ITER - 1):
        if all(done):
            return out
        u_new = first + (right - u @ left) @ product(u, s) @ outer
        if any(done):  # the items still running take u_new, kept once they stop
            out = np.where(np.array(done)[:, None, None], out, u_new)
            done = np.logical_or(done, _converged(u_new, u_new - u)).tolist()
        else:
            out, done = u_new, _converged(u_new, u_new - u)
        u = u_new
    for ok, m in zip(done, np.atleast_1d(s.n).tolist()):
        if not ok:
            raise ConvergenceFailure(f"{name} iteration did not converge at n={m}; "
                                     "constants violated")
    return out


def solve_xi(problem: SplitProblem, J: np.ndarray, s: Sandwich) -> np.ndarray:
    """Fixed point of the forward operator at the sandwich's exponent."""
    A, B, C, D = split_blocks(np.asarray(J, dtype=float), problem.k1)
    Ainv = invert(A)
    return _fixed_point(C @ Ainv, B, D, Ainv, problem.powers.dvn_u_avmn, s, "xi")


def solve_eta(problem: SplitProblem, Ji: np.ndarray, s: Sandwich) -> np.ndarray:
    """Fixed point eta_hat of the inverse-side operator, given Ji = J^{-1}.

    The graph itself is eta = A(V)^{-n} eta_hat D(V)^n, which decays like
    rho^n.
    """
    Ai, Bi, Ci, Di = split_blocks(Ji, problem.k1)
    Dinv = invert(Di)
    return _fixed_point(Bi @ Dinv, Ci, Ai, Dinv, problem.powers.avmn_u_dvn, s, "eta")


def admit(problem: SplitProblem, constants: TransformConstants, J: np.ndarray,
          n) -> None:
    """Raise HypothesisFailure unless ||J - J0|| < beta and n >= n0; on a stack
    (N, d, d) at exponents n (N,), the first failing item's."""
    offset = J - problem.J0
    inside = norm_below(offset, constants.beta)
    if inside is True and n >= constants.n0:  # a lone matrix, admitted
        return
    for ok, m, M in zip(np.atleast_1d(inside).tolist(), np.atleast_1d(n).tolist(),
                        offset.reshape(-1, *offset.shape[-2:])):
        if not ok:
            raise HypothesisFailure(
                f"input outside the beta ball ({op_norm(M):.3g} >= {constants.beta:.3g})")
        if m < constants.n0:
            raise HypothesisFailure(f"exponent {m} below threshold {constants.n0}")


def dominated_split(problem: SplitProblem, J: np.ndarray, s: Sandwich):
    """The split kernel: xi, eta_hat, X and Y^{-1} at one (J, n), n = s.n.

    Returns the unchecked certificate and J^{-1}, which it computes once.
    Raises CertificateFailure (item 3 or 4) when X drifts delta away from
    A(J0) or Y^{-1} from D(J0^{-1}).  On a stack J (N, d, d) at exponents n
    (N,) the certificate holds stacks, and the first failing item raises.
    """
    J = np.asarray(J, dtype=float)
    Ji = invert(J)
    xi = solve_xi(problem, J, s)
    eta_hat = solve_eta(problem, Ji, s)
    A, B, _, _ = split_blocks(J, problem.k1)
    _, _, Ci, Di = split_blocks(Ji, problem.k1)
    X = A + B @ problem.powers.dvn_u_avmn(xi, s)
    Y_inv = Ci @ problem.powers.avmn_u_dvn(eta_hat, s) + Di
    dX, dY, delta = X - problem.A0, Y_inv - problem.D0i, problem.delta
    okX, okY = norm_below(dX, delta), norm_below(dY, delta)
    if okX is not True or okY is not True:  # on a stack, lists
        for ok3, ok4, x, y in zip(np.atleast_1d(okX).tolist(), np.atleast_1d(okY).tolist(),
                                  dX.reshape(-1, *dX.shape[-2:]), dY.reshape(-1, *dY.shape[-2:])):
            if not ok3:
                raise CertificateFailure(f"top block drifts {op_norm(x):.3g} >= delta {delta:.3g}",
                                         item=3)
            if not ok4:
                raise CertificateFailure(
                    f"inverse bottom block drifts {op_norm(y):.3g} >= delta {delta:.3g}", item=4)
    return SplitCertificate(n=s.n, J=J, xi=xi, eta_hat=eta_hat, X=X, Y_inv=Y_inv), Ji


def _check(problem: SplitProblem, cert: SplitCertificate, Ji: np.ndarray, s: Sandwich) -> dict:
    """Recompute every item of ``cert`` in scale-free form (see the module doc).

    Returns {name: {"value", "passed", "item"}}, the informative "eta_norm"
    and the overall "passed".
    """
    I1, I2 = np.eye(problem.k1), np.eye(problem.k2)
    S = problem.powers.dvn_u_avmn(cert.xi, s)
    eta = problem.powers.avmn_u_dvn(cert.eta_hat, s)
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


def report_values(report: dict) -> tuple:
    """The residuals and the bounds that a check report measured."""
    values = {k: v["value"] for k, v in report.items() if isinstance(v, dict)}
    values["eta_norm"] = report["eta_norm"]
    return {k: values.pop(k) for k in _RESIDUALS}, values


def invariant_pair(problem: SplitProblem, J: np.ndarray, n: int,
                   constants: TransformConstants) -> SplitCertificate:
    """Admit (J, n) against n0, split and certify.

    Raises HypothesisFailure when (J, n) is not admitted and
    CertificateFailure on a failed item.
    """
    admit(problem, constants, J, n)
    s = problem.powers.at(n)
    cert, Ji = dominated_split(problem, J, s)
    cert.constants = constants
    report = _check(problem, cert, Ji, s)
    for name, entry in report.items():
        if isinstance(entry, dict) and not entry["passed"]:
            raise CertificateFailure(f"{name} = {entry['value']:.3g} fails", item=entry["item"])
    cert.residuals, cert.bounds = report_values(report)
    return cert


def verify_certificate(cert: SplitCertificate, problem: SplitProblem) -> dict:
    """Recompute every item of a certificate from scratch.

    Returns the per-item report of ``invariant_pair``'s check; never raises
    on a failed item.
    """
    return _check(problem, cert, invert(cert.J), problem.powers.at(cert.n))
