"""The split-certificate check with its matrices assembled by np.block and np.vstack.

Kept as the reference that ``graph_transform._check`` must reproduce bit for
bit: it forms [I; S], [I; xi], [eta; I], [eta_hat; I] and the transversality
matrix [[I, eta], [xi, I]] with np.vstack and np.block from fresh np.eye
identities, and otherwise takes every product, norm and determinant as the
package does.
"""

import numpy as np

from spectral_cascade.graph_transform import RESIDUAL_TOL, TRANSVERSALITY_TOL
from spectral_cascade.linalg import _det, op_norm


def reference_check(problem, cert, Ji, s) -> dict:
    """The report of ``_check(problem, cert, Ji, s)``."""
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
        ("forward_invariance", fwd, RESIDUAL_TOL, fwd < RESIDUAL_TOL, 1),
        ("backward_invariance", back, RESIDUAL_TOL, back < RESIDUAL_TOL, 1),
        ("xi_norm", xi_norm, gamma, xi_norm <= gamma, 1),
        ("eta_hat_norm", eta_hat_norm, gamma, eta_hat_norm <= gamma, 1),
        ("transversality_det", trans, TRANSVERSALITY_TOL, trans > TRANSVERSALITY_TOL, 2),
        ("item3", item3, delta, item3 < delta, 3),
        ("item4", item4, delta, item4 < delta, 4),
    )
    report = {name: {"value": value, "bound": bound, "passed": bool(ok), "item": item}
              for name, value, bound, ok, item in items}
    report["eta_norm"] = op_norm(eta)
    report["passed"] = all(ok for _, _, _, ok, _ in items)
    return report
