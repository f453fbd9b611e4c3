"""JSON artifact formats.

Every artifact is a JSON object with a "kind" discriminator.  Matrices are
{"rows", "cols", "data"} with row-major nested lists; eigenvalues are stored
in split form (unit direction plus log10 modulus) so artifacts survive
products far outside float range.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .blocks import BlockStructure
from .cascade import CascadeResult, ProveReport
from .graph_transform import SplitCertificate, SplitProblem, TransformConstants
from .model import DiagonalModel, RotationBlock, ScalarBlock
from .oracle import ScaledSpectrum
from .scenario import InstanceSpec, PerturbationLaw

KIND_INSTANCE = "instance"
KIND_SPLIT_CERT = "split-certificate"
KIND_CASCADE = "cascade-result"
KIND_PROVE = "prove-report"
SPLIT_CERT_FORMAT = 2

_LN10 = math.log(10.0)


def matrix_to_json(M) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "data": M.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    M = np.asarray(obj["data"], dtype=float)
    if M.shape != (int(obj["rows"]), int(obj["cols"])):
        raise ValueError(
            f"matrix data shape {M.shape} disagrees with header "
            f"({obj['rows']}, {obj['cols']})"
        )
    return M


def _block_to_json(blk) -> dict:
    if isinstance(blk, ScalarBlock):
        return {"type": "scalar", "value": blk.value}
    return {"type": "rotation", "modulus": blk.modulus, "theta": blk.theta}


def _block_from_json(obj):
    if obj["type"] == "scalar":
        return ScalarBlock(float(obj["value"]))
    if obj["type"] == "rotation":
        return RotationBlock(float(obj["modulus"]), float(obj["theta"]))
    raise ValueError(f"unknown block type {obj['type']!r}")


def model_to_json(model: DiagonalModel) -> dict:
    return {
        "structure": list(model.structure.sizes),
        "T_blocks": [_block_to_json(b) for b in model.diag_blocks],
    }


def model_from_json(obj) -> DiagonalModel:
    sizes = tuple(obj["structure"])
    if not all(type(s) is int for s in sizes):  # not a float, not a bool
        raise ValueError(f"block sizes must be JSON integers, got {list(sizes)}")
    structure = BlockStructure(sizes)
    blocks = tuple(_block_from_json(b) for b in obj["T_blocks"])
    return DiagonalModel(structure, blocks)


def instance_to_json(spec: InstanceSpec) -> dict:
    out = {"kind": KIND_INSTANCE}
    out.update(model_to_json(spec.model))
    out["L"] = matrix_to_json(spec.L)
    out["law"] = {"c": spec.law.c, "rho": spec.law.rho, "seed": spec.law.seed}
    out["progression"] = {"a": spec.a, "b": spec.b}
    return out


def instance_from_json(obj) -> InstanceSpec:
    model = model_from_json(obj)
    law = obj["law"]
    prog = obj["progression"]
    return InstanceSpec(
        model=model,
        L=matrix_from_json(obj["L"]),
        law=PerturbationLaw(float(law["c"]), float(law["rho"]), int(law["seed"])),
        a=int(prog["a"]),
        b=int(prog["b"]),
    )


def spectrum_to_json(spec: ScaledSpectrum) -> dict:
    return {
        "unit_re": [float(x) for x in spec.unit.real],
        "unit_im": [float(x) for x in spec.unit.imag],
        "log10_mod": [float(x) / _LN10 for x in spec.log_mod],
    }


def spectrum_from_json(obj) -> ScaledSpectrum:
    re, im, log10 = (np.asarray(obj[k], dtype=float) for k in ("unit_re", "unit_im", "log10_mod"))
    if not re.ndim == im.ndim == log10.ndim == 1 or not len(re) == len(im) == len(log10):
        raise ValueError(f"a spectrum is three lists of one length, got shapes "
                         f"{re.shape}, {im.shape} and {log10.shape}")
    return ScaledSpectrum(unit=re + 1j * im, log_mod=log10 * _LN10)


def certificate_to_json(cert: SplitCertificate, problem: SplitProblem) -> dict:
    """Format 2: the stage's diagonal model stands in for V."""
    return {
        "kind": KIND_SPLIT_CERT,
        "format": SPLIT_CERT_FORMAT,
        "model": model_to_json(problem.model),
        "J0": matrix_to_json(problem.J0),
        "k1": problem.k1,
        "delta": problem.delta,
        "n": cert.n,
        "J": matrix_to_json(cert.J),
        "xi": matrix_to_json(cert.xi),
        "eta_hat": matrix_to_json(cert.eta_hat),
        "X": matrix_to_json(cert.X),
        "Y_inv": matrix_to_json(cert.Y_inv),
        "constants": dataclasses.asdict(cert.constants),
        "residuals": {k: float(v) for k, v in cert.residuals.items()},
        "bounds": {k: float(v) for k, v in cert.bounds.items()},
    }


def certificate_from_json(obj):
    if obj.get("format") != SPLIT_CERT_FORMAT:
        raise ValueError(f"split-certificate format {obj.get('format')!r} is not "
                         f"{SPLIT_CERT_FORMAT}")
    model = model_from_json(obj["model"])
    k1 = int(obj["k1"])
    if k1 != model.structure.sizes[0]:
        raise ValueError(f"k1 = {k1} does not split off the model's first block")
    problem = SplitProblem(model, matrix_from_json(obj["J0"]), float(obj["delta"]))
    cert = SplitCertificate(
        n=int(obj["n"]),
        J=matrix_from_json(obj["J"]),
        xi=matrix_from_json(obj["xi"]),
        eta_hat=matrix_from_json(obj["eta_hat"]),
        X=matrix_from_json(obj["X"]),
        Y_inv=matrix_from_json(obj["Y_inv"]),
        constants=TransformConstants(**obj["constants"]),
        residuals=dict(obj["residuals"]),
        bounds=dict(obj["bounds"]),
    )
    return cert, problem


def cascade_result_to_json(result: CascadeResult, instance: InstanceSpec,
                           eps0: float, k: int) -> dict:
    levels = []
    for lv in result.levels:
        entry = {
            "j": lv.j,
            "X": matrix_to_json(lv.X),
            "det": lv.det,
            "drift": lv.drift,
            "spectrum": spectrum_to_json(lv.spectrum),
        }
        if lv.window is not None:
            entry["polar"] = {"P": matrix_to_json(lv.P), "alpha": lv.window.alpha,
                              "eps_hat": lv.window.eps_hat}
        levels.append(entry)
    return {
        "kind": KIND_CASCADE,
        "instance": instance_to_json(instance),
        "eps0": float(eps0),
        "k": int(k),
        "n": int(result.n),
        "levels": levels,
        "limits_ok": bool(result.limits_ok),
        "domination_ok": bool(result.domination_ok),
        "domination_margin": float(result.domination_margin),
    }


def prove_report_to_json(report: ProveReport, eps0: float) -> dict:
    hits = []
    for h in report.search.hits:
        hits.append(
            {
                "n": h.n,
                "exponent": h.exponent,
                "phases": {str(j): float(p) for j, p in h.phases.items()},
                "min_gap": float(h.min_gap),
                "spectrum": spectrum_to_json(h.spectrum),
                "oracle_checked": bool(h.oracle_checked),
                "oracle_mismatch": float(h.oracle_mismatch),
            }
        )
    return {
        "kind": KIND_PROVE,
        "instance": instance_to_json(report.instance),
        "eps0": float(eps0),
        "n0": int(report.cascade.n0),
        "k0": int(report.cascade.k0),
        "examined": int(report.search.examined),
        "hits": hits,
    }


def save_artifact(path: str, obj: dict) -> None:
    """Write obj as one line of JSON (``python -m json.tool`` pretty-prints it).

    The object is encoded before the file is opened, so an object that does
    not encode raises with an existing file at ``path`` left untouched.
    """
    if "kind" not in obj:
        raise ValueError("artifact must carry a 'kind' field")
    text = json.dumps(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_artifact(path: str) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{path}: not an artifact (missing 'kind')")
    return obj
