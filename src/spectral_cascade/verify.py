"""Independent re-validation of saved artifacts.

Each artifact kind is checked from scratch: instances against the
genericity and independence conditions, split certificates against
recomputed residuals and rederived constants, admitted through the
split's own admission check, decomposition results by rerunning the
decomposition and comparing against the independent oracle, and
subsequence reports by applying the search's own hit rule
(``cascade.examine``) at every stored exponent.
"""

from __future__ import annotations

import dataclasses

from . import serialize
from .cascade import ORACLE_TOL, cascade_decompose, choose_parameters, examine
from .errors import SpectralCascadeError, VerificationFailure
from .graph_transform import admit, derive_constants, verify_certificate
from .linalg import op_norm
from .oracle import match_scaled, product_spectrum
from .scenario import check_angle_independence, check_L_conditions

_MATCH_TOL = 1e-8


def _fail(msg: str):
    raise VerificationFailure(msg)


def _verify_instance(obj) -> dict:
    spec = serialize.instance_from_json(obj)
    report = check_L_conditions(spec.L, spec.model.structure)
    if not report.passed:
        _fail(f"instance violates conditions: {report.failures()}")
    angles = list(spec.model.rotation_angles.values())
    if angles:
        check_angle_independence(angles)
    return {"kind": obj["kind"], "passed": True,
            "conditions": [(ln.name, ln.margin) for ln in report.lines]}


def _verify_split_certificate(obj) -> dict:
    cert, problem = serialize.certificate_from_json(obj)
    fresh = derive_constants(problem)
    for f in dataclasses.fields(fresh):  # exact for the integer thresholds
        stored = float(getattr(cert.constants, f.name))
        val = float(getattr(fresh, f.name))
        if abs(stored - val) > 1e-9 * max(1.0, abs(val)):
            _fail(f"constant {f.name} does not rederive: {stored} vs {val}")
    admit(problem, fresh, cert.J, cert.n)
    report = verify_certificate(cert, problem)
    if not report["passed"]:
        bad = [k for k, v in report.items() if isinstance(v, dict) and not v["passed"]]
        _fail(f"certificate bounds fail: {bad}")
    return {"kind": obj["kind"], "passed": True, "report": report}


def _verify_cascade_result(obj) -> dict:
    spec = serialize.instance_from_json(obj["instance"])
    cascade = choose_parameters(spec.model, spec.L, float(obj["eps0"]), law=spec.law)
    k, n = int(obj["k"]), int(obj["n"])
    result = cascade_decompose(spec.L_n(k), n, spec.model, cascade)
    if len(result.levels) != len(obj["levels"]):
        _fail("level count mismatch")
    for lv, stored in zip(result.levels, obj["levels"]):
        X0 = serialize.matrix_from_json(stored["X"])
        if op_norm(lv.X - X0) > _MATCH_TOL * max(1.0, op_norm(X0)):
            _fail(f"level {lv.j} block does not recompute")
        mism = match_scaled(lv.spectrum, serialize.spectrum_from_json(stored["spectrum"]))
        if mism > _MATCH_TOL:
            _fail(f"level {lv.j} spectrum mismatch {mism:.3g}")
    if bool(obj["limits_ok"]) != result.limits_ok:
        _fail("limit-drift flag does not recompute")
    if bool(obj["domination_ok"]) != result.domination_ok:
        _fail("domination flag does not recompute")
    oracle_mismatch = match_scaled(result.spectrum, product_spectrum(spec.L_n(k), spec.model, n))
    if oracle_mismatch > ORACLE_TOL:
        _fail(f"decomposed spectrum disagrees with the oracle ({oracle_mismatch:.3g})")
    return {"kind": obj["kind"], "passed": True, "oracle_mismatch": oracle_mismatch}


def _verify_prove_report(obj) -> dict:
    spec = serialize.instance_from_json(obj["instance"])
    cascade = choose_parameters(spec.model, spec.L, float(obj["eps0"]), law=spec.law)
    if cascade.n0 != int(obj["n0"]) or cascade.k0 != int(obj["k0"]):
        _fail("scan thresholds n0/k0 do not rederive")
    if not obj["hits"]:
        _fail("report carries no exponents")
    checked = []
    for hit in obj["hits"]:
        n, N = int(hit["n"]), int(hit["exponent"])
        if N != spec.a * n + spec.b:
            _fail(f"exponent {N} is off the progression at index {n}")
        fresh, _, miss = examine(n, spec, cascade)
        if fresh is None:
            _fail(f"hit n={n} is no hit on recompute: {miss[1]}")
        stored_gap = float(hit["min_gap"])
        if abs(fresh.min_gap - stored_gap) > 1e-6 * max(1.0, abs(stored_gap)):
            _fail(f"hit n={n}: stored gap {stored_gap} does not recompute ({fresh.min_gap})")
        mism = match_scaled(fresh.spectrum, serialize.spectrum_from_json(hit["spectrum"]))
        if mism > _MATCH_TOL:
            _fail(f"hit n={n}: stored spectrum mismatch {mism:.3g}")
        checked.append(N)
    return {"kind": obj["kind"], "passed": True, "exponents": checked}


_DISPATCH = {
    serialize.KIND_INSTANCE: _verify_instance,
    serialize.KIND_SPLIT_CERT: _verify_split_certificate,
    serialize.KIND_CASCADE: _verify_cascade_result,
    serialize.KIND_PROVE: _verify_prove_report,
}


def verify_artifact(obj: dict) -> dict:
    """Dispatch on the artifact kind; raises VerificationFailure on any defect."""
    kind = obj.get("kind")
    if kind not in _DISPATCH:
        _fail(f"unknown artifact kind {kind!r}")
    try:
        return _DISPATCH[kind](obj)
    except VerificationFailure:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise VerificationFailure(f"malformed {kind} artifact: {exc}") from exc
    except SpectralCascadeError as exc:
        raise VerificationFailure(f"{kind} artifact fails revalidation: {exc}") from exc
