"""Independent re-validation of saved artifacts.

Each artifact is recomputed from scratch: instances by their genericity
conditions, split certificates by their admission and check items,
decomposition results against the oracle, and subsequence reports by the
search's own hit rule (``cascade.examine``) at every stored index.  ``_agree``
then compares the stored artifact whole with the one ``serialize`` writes
from the recomputation: the writers state the format once.

A recomputation may reuse parameters that ``cascade.choose_parameters``
memoized earlier in this process: they are the same function of the same
bits of the stored instance and eps0, and a caller cannot change their
fields, limits or windows.
"""
from __future__ import annotations

import math

from . import serialize
from .cascade import (ORACLE_TOL, ProveReport, SearchResult, cascade_decompose,
                      check_exponent, choose_parameters, examine_stack)
from .errors import SpectralCascadeError, VerificationFailure
from .graph_transform import admit, derive_constants, report_values, verify_certificate
from .linalg import norm_below, op_norm
from .oracle import match_scaled, product_spectrum
from .scenario import check_angle_independence, check_L_conditions

_TOL = 1e-9
_MATCH_TOL = 1e-8
_LEAVES = (int, float, str, bool)
_INFINITE = (math.inf, -math.inf)


def _fail(msg: str):
    raise VerificationFailure(msg)


def _agree(where: str, stored, fresh, rules: dict, tol=_TOL) -> bool:
    """Fail unless ``stored`` is ``fresh``, the artifact as its writer writes it.

    Another key, list length or JSON type is malformed (ValueError), but a float
    may be stored as an integer.  A float agrees within tol max(1, |fresh|), a
    NaN with a NaN only, any other leaf when equal.  ``rules`` maps a key at any
    depth to its own tol or to a test of the stored and fresh values; below a
    test only the types are compared.  Returns whether ``stored`` is identical
    to ``fresh``: the same JSON types and equal values, every float finite.  An
    identical subtree agrees under every rule, so a test runs only on a subtree
    that differs; a non-finite float still reaches it, and its readers refuse."""
    kind = float if isinstance(fresh, float) else type(fresh)  # numpy's float64 too
    if type(stored) is not kind and (type(stored), kind) != (int, float):
        raise ValueError(f"{where}: stored {type(stored).__name__} for {kind.__name__}")
    same = True
    if kind is dict:
        if stored.keys() != fresh.keys():
            raise ValueError(f"{where}: stored keys {sorted(stored)}, written {sorted(fresh)}")
        for key, value in fresh.items():
            s = stored[key]
            if type(s) is type(value) in _LEAVES and s == value:
                same = same and s not in _INFINITE  # an equal leaf agrees under every rule
                continue
            rule = None if tol is None else rules.get(key, tol)
            if _agree(f"{where} {key}", s, value, rules, None if callable(rule) else rule):
                continue
            same = False
            if callable(rule) and not rule(s, value):
                _fail(f"{where} {key} does not recompute")
        return same
    if kind is list:
        if len(stored) != len(fresh):
            raise ValueError(f"{where}: stored {len(stored)} entries, written {len(fresh)}")
        for i, (s, f) in enumerate(zip(stored, fresh)):
            if type(s) is type(f) in _LEAVES and s == f:
                same = same and s not in _INFINITE
            elif not _agree(f"{where}[{i}]", s, f, rules, tol):
                same = False
        return same
    if tol is not None and stored != fresh and not (kind is float and (
            abs(stored - fresh) <= tol * max(1.0, abs(fresh))
            or math.isnan(stored) and math.isnan(fresh))):
        _fail(f"{where} does not recompute: stored {stored!r}, recomputed {fresh!r}")
    return False  # a leaf unequal, of another type or of no JSON leaf type (None, numpy)


def _same_block(stored, fresh) -> bool:  # in norm, at 1e-8 of the stored block
    S = serialize.matrix_from_json(stored)
    tol = _MATCH_TOL * max(1.0, op_norm(S))
    return norm_below(serialize.matrix_from_json(fresh) - S, math.nextafter(tol, math.inf))


def _same_spectrum(stored, fresh) -> bool:
    return match_scaled(serialize.spectrum_from_json(fresh),
                        serialize.spectrum_from_json(stored)) <= _MATCH_TOL


# each kind's exceptions to _agree's default
_CASCADE_RULES = {"X": _same_block, "spectrum": _same_spectrum,
                  "alpha": lambda s, f: abs(math.remainder(s - f, 1.0)) <= _TOL}  # modulo 1
_PROVE_RULES = {"spectrum": _same_spectrum, "min_gap": 1e-6}


def instance_of(obj: dict):
    """The instance of an instance artifact that ``serialize`` would write as is."""
    spec = serialize.instance_from_json(obj)
    _agree(obj["kind"], obj, serialize.instance_to_json(spec), {})
    return spec


def _verify_instance(obj) -> dict:
    spec = instance_of(obj)
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
    check_exponent(problem.model, cert.n)
    cert.constants = derive_constants(problem)
    admit(problem, cert.constants, cert.J, cert.n)
    report = verify_certificate(cert, problem)
    if not report["passed"]:
        bad = [k for k, v in report.items() if isinstance(v, dict) and not v["passed"]]
        _fail(f"certificate bounds fail: {bad}")
    cert.residuals, cert.bounds = report_values(report)
    _agree(obj["kind"], obj, serialize.certificate_to_json(cert, problem), {})
    return {"kind": obj["kind"], "passed": True, "report": report}


def _verify_cascade_result(obj) -> dict:
    spec = serialize.instance_from_json(obj["instance"])
    eps0, k = serialize.number(obj, "eps0"), serialize.integer(obj, "k")
    n = serialize.integer(obj, "n")
    check_exponent(spec.model, n)
    cascade = choose_parameters(spec.model, spec.L, eps0, law=spec.law)
    L_k = spec.L_n(k)
    result = cascade_decompose(L_k, n, spec.model, cascade)
    fresh = serialize.cascade_result_to_json(result, spec, eps0, k)
    _agree(obj["kind"], obj, fresh, _CASCADE_RULES)
    oracle_mismatch = match_scaled(result.spectrum, product_spectrum(L_k, spec.model, n))
    if oracle_mismatch > ORACLE_TOL:
        _fail(f"decomposed spectrum disagrees with the oracle ({oracle_mismatch:.3g})")
    return {"kind": obj["kind"], "passed": True, "oracle_mismatch": oracle_mismatch}


def _verify_prove_report(obj) -> dict:
    spec = serialize.instance_from_json(obj["instance"])
    eps0, examined = serialize.number(obj, "eps0"), serialize.integer(obj, "examined")
    cascade = choose_parameters(spec.model, spec.L, eps0, law=spec.law)
    ns = [serialize.integer(hit, "n") for hit in obj["hits"]]
    if not ns:
        _fail("report carries no exponents")
    for prev, n in zip(ns, ns[1:]):
        if n <= prev:
            _fail(f"hit indices must be strictly increasing: n={n} follows n={prev}")
    for n in ns:
        check_exponent(spec.model, spec.a * n + spec.b)
    if examined < len(ns):  # examine returns one record per candidate
        _fail(f"examined {examined} candidates, fewer than the {len(ns)} hits")
    hits = [c if c.reason is None else _fail(f"hit n={c.n} is no hit on recompute: {c.reason}")
            for c in examine_stack(ns, spec, cascade)]
    report = ProveReport(spec, cascade, SearchResult(hits, examined, near_misses=[]))
    _agree(obj["kind"], obj, serialize.prove_report_to_json(report, eps0), _PROVE_RULES)
    return {"kind": obj["kind"], "passed": True, "exponents": [h["exponent"] for h in obj["hits"]]}


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # an integer past float range
        raise VerificationFailure(f"malformed {kind} artifact: {exc}") from exc
    except SpectralCascadeError as exc:
        raise VerificationFailure(f"{kind} artifact fails revalidation: {exc}") from exc
