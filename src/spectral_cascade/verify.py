"""Independent re-validation of saved artifacts.

Each artifact kind is checked from scratch: instances against the
genericity and independence conditions, split certificates against
recomputed residuals and rederived constants, admitted through the
split's own admission check, decomposition results by rerunning the
decomposition and comparing against the independent oracle, and
subsequence reports by applying the search's own hit rule
(``cascade.examine``) at every stored exponent, whose indices must strictly
increase, after one stacked decomposition of them all.  ``_agree``
compares every stored number that can be recomputed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import serialize
from .cascade import ORACLE_TOL, cascade_decompose, choose_parameters, examine_stack
from .errors import SpectralCascadeError, VerificationFailure
from .graph_transform import admit, derive_constants, verify_certificate
from .linalg import norm_below, op_norm, signed_fraction
from .oracle import match_scaled, product_spectrum
from .scenario import check_angle_independence, check_L_conditions

_MATCH_TOL = 1e-8


def _fail(msg: str):
    raise VerificationFailure(msg)


def _agree(what: str, stored, fresh, tol: float) -> None:
    """Fail unless |stored - fresh| <= tol max(1, |fresh|) entrywise.

    A NaN agrees with a NaN only (a det < 0 level's phase is NaN).  A dict
    ``fresh`` needs a ``stored`` with the same keys, compared key by key.
    """
    if isinstance(fresh, dict):
        if not isinstance(stored, dict) or stored.keys() != fresh.keys():
            _fail(f"{what}: stored {sorted(stored)}, recomputed {sorted(fresh)}")
        for key, value in fresh.items():
            _agree(f"{what} {key}", stored[key], value, tol)
        return
    s, f = np.asarray(stored, dtype=float), np.asarray(fresh, dtype=float)
    close = s.shape == f.shape and np.all(
        (np.abs(s - f) <= tol * np.maximum(1.0, np.abs(f))) | (np.isnan(s) & np.isnan(f)))
    if not close:
        _fail(f"{what} does not recompute: stored {stored}, recomputed {fresh}")


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
    _agree("constant", obj["constants"], dataclasses.asdict(fresh), 1e-9)  # exact for integers
    admit(problem, fresh, cert.J, cert.n)
    report = verify_certificate(cert, problem)
    if not report["passed"]:
        bad = [k for k, v in report.items() if isinstance(v, dict) and not v["passed"]]
        _fail(f"certificate bounds fail: {bad}")
    values = {k: v["value"] if isinstance(v, dict) else v
              for k, v in report.items() if k != "passed"}
    _agree("certificate", {**cert.residuals, **cert.bounds}, values, 1e-9)
    return {"kind": obj["kind"], "passed": True, "report": report}


def _verify_cascade_result(obj) -> dict:
    spec = serialize.instance_from_json(obj["instance"])
    cascade = choose_parameters(spec.model, spec.L, float(obj["eps0"]), law=spec.law)
    k, n = int(obj["k"]), int(obj["n"])
    result = cascade_decompose(spec.L_n(k), n, spec.model, cascade)
    if len(result.levels) != len(obj["levels"]):
        _fail("level count mismatch")
    for lv, stored in zip(result.levels, obj["levels"]):
        if int(stored["j"]) != lv.j:
            _fail(f"level {lv.j} is stored as level {stored['j']}")
        X0 = serialize.matrix_from_json(stored["X"])
        tol = _MATCH_TOL * max(1.0, op_norm(X0))
        if not norm_below(lv.X - X0, math.nextafter(tol, math.inf)):  # <= tol passes
            _fail(f"level {lv.j} block does not recompute")
        mism = match_scaled(lv.spectrum, serialize.spectrum_from_json(stored["spectrum"]))
        if mism > _MATCH_TOL:
            _fail(f"level {lv.j} spectrum mismatch {mism:.3g}")
        _agree(f"level {lv.j} det", stored["det"], lv.det, 1e-9)
        _agree(f"level {lv.j} drift", stored["drift"], lv.drift, 1e-9)
        if ("polar" in stored) != (lv.window is not None):
            _fail(f"level {lv.j} must store a polar form exactly when it has a window")
        if lv.window is not None:
            polar = stored["polar"]
            _agree(f"level {lv.j} polar P", serialize.matrix_from_json(polar["P"]), lv.P, 1e-9)
            _agree(f"level {lv.j} polar alpha mod 1",
                   signed_fraction(float(polar["alpha"]) - lv.window.alpha), 0.0, 1e-9)
            _agree(f"level {lv.j} polar eps_hat", polar["eps_hat"], lv.window.eps_hat, 1e-9)
    _agree("result", {k: obj[k] for k in ("limits_ok", "domination_ok", "domination_margin")},
           {"limits_ok": result.limits_ok, "domination_ok": result.domination_ok,
            "domination_margin": result.domination_margin}, 1e-9)
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
    ns = [int(hit["n"]) for hit in obj["hits"]]
    for prev, n in zip(ns, ns[1:]):
        if n <= prev:
            _fail(f"hit indices must be strictly increasing: n={n} follows n={prev}")
    checked = [int(hit["exponent"]) for hit in obj["hits"]]
    for n, N in zip(ns, checked):
        if N != spec.a * n + spec.b:
            _fail(f"exponent {N} is off the progression at index {n}")
    for hit, n, (fresh, _, miss) in zip(obj["hits"], ns, examine_stack(ns, spec, cascade)):
        if fresh is None:
            _fail(f"hit n={n} is no hit on recompute: {miss[1]}")
        _agree(f"hit n={n} min_gap", hit["min_gap"], fresh.min_gap, 1e-6)
        _agree(f"hit n={n} phase", hit["phases"],
               {str(j): p for j, p in fresh.phases.items()}, 1e-9)
        _agree(f"hit n={n} oracle_mismatch", hit["oracle_mismatch"], fresh.oracle_mismatch, 1e-9)
        if hit["oracle_checked"] is not True:
            _fail(f"hit n={n} is not marked oracle-checked")
        mism = match_scaled(fresh.spectrum, serialize.spectrum_from_json(hit["spectrum"]))
        if mism > _MATCH_TOL:
            _fail(f"hit n={n}: stored spectrum mismatch {mism:.3g}")
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
    if not isinstance(kind, str) or kind not in _DISPATCH:  # a list or dict does not hash
        _fail(f"unknown artifact kind {kind!r}")
    try:
        return _DISPATCH[kind](obj)
    except VerificationFailure:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise VerificationFailure(f"malformed {kind} artifact: {exc}") from exc
    except SpectralCascadeError as exc:
        raise VerificationFailure(f"{kind} artifact fails revalidation: {exc}") from exc
