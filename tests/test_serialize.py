import math
from pathlib import Path

import numpy as np
import pytest

from spectral_cascade import serialize
from spectral_cascade.cascade import cascade_decompose, choose_parameters
from spectral_cascade.errors import VerificationFailure
from spectral_cascade.graph_transform import invariant_pair
from spectral_cascade.oracle import ScaledSpectrum, match_scaled
from spectral_cascade.verify import verify_artifact

DATA = Path(__file__).parent / "data"


def test_matrix_roundtrip(rng):
    M = rng.standard_normal((3, 4))
    obj = serialize.matrix_to_json(M)
    assert obj["rows"] == 3 and obj["cols"] == 4
    np.testing.assert_array_equal(serialize.matrix_from_json(obj), M)


def test_matrix_header_mismatch():
    with pytest.raises(ValueError):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0]]})


def test_instance_roundtrip(demo_instance):
    obj = serialize.instance_to_json(demo_instance)
    assert obj["kind"] == "instance"
    assert set(obj) >= {"structure", "T_blocks", "L", "law", "progression"}
    back = serialize.instance_from_json(obj)
    np.testing.assert_array_equal(back.L, demo_instance.L)
    assert back.model == demo_instance.model
    assert back.law == demo_instance.law
    assert (back.a, back.b) == (demo_instance.a, demo_instance.b)


def test_spectrum_roundtrip_survives_huge_moduli():
    s = ScaledSpectrum(unit=np.array([1.0, -1.0 + 0j]),
                       log_mod=np.array([30000.0, -30000.0]))
    back = serialize.spectrum_from_json(serialize.spectrum_to_json(s))
    assert match_scaled(s, back) < 1e-12


def test_certificate_roundtrip(demo_instance, demo_cascade):
    stage = demo_cascade.stages[0]
    cert = invariant_pair(stage.problem, demo_instance.L,
                          demo_cascade.n0 + 1, stage.constants)
    obj = serialize.certificate_to_json(cert, stage.problem)
    assert obj["format"] == 2 and "V" not in obj
    back_cert, back_problem = serialize.certificate_from_json(obj)
    for name in ("J", "xi", "eta_hat", "X", "Y_inv"):
        np.testing.assert_array_equal(getattr(back_cert, name), getattr(cert, name))
    assert back_cert.constants == cert.constants
    assert back_problem.model == stage.problem.model
    assert back_problem.k1 == stage.problem.k1
    assert back_problem.k2 == stage.problem.k2
    assert back_problem.delta == stage.problem.delta
    np.testing.assert_array_equal(back_problem.J0, stage.problem.J0)
    np.testing.assert_array_equal(back_problem.V, stage.problem.V)


def test_cascade_and_prove_artifacts(demo_instance, demo_cascade, tmp_path):
    res = cascade_decompose(demo_instance.L, demo_cascade.n0 + 1,
                            demo_instance.model, demo_cascade)
    obj = serialize.cascade_result_to_json(res, demo_instance, 1e-3, k=0)
    assert obj["kind"] == "cascade-result"
    path = tmp_path / "c.json"
    serialize.save_artifact(str(path), obj)
    loaded = serialize.load_artifact(str(path))
    assert loaded["n"] == demo_cascade.n0 + 1
    assert len(loaded["levels"]) == 3


def test_save_requires_kind(tmp_path):
    with pytest.raises(ValueError):
        serialize.save_artifact(str(tmp_path / "x.json"), {"no": "kind"})


def test_artifact_is_one_line_that_parses_back(tmp_path):
    """One line of JSON and a newline; floats, NaN and infinities read back."""
    obj = {"kind": "instance", "x": [0.1, -2.5e-300, 1e300, math.inf, -math.inf],
           "nested": {"n": 3, "ok": True, "s": "a\nb"}}
    path = tmp_path / "a.json"
    serialize.save_artifact(str(path), {**obj, "nan": math.nan})
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    back = serialize.load_artifact(str(path))
    assert math.isnan(back.pop("nan")) and back == obj


def test_failed_encode_leaves_the_old_artifact(tmp_path):
    """An object that does not encode raises, and the artifact already at
    the path survives byte for byte."""
    path = tmp_path / "inst.json"
    serialize.save_artifact(str(path), {"kind": "instance", "n": 3})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        serialize.save_artifact(str(path), {"kind": "instance", "n": np.int64(3)})
    assert path.read_bytes() == before


def test_load_rejects_kindless(tmp_path):
    p = tmp_path / "y.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        serialize.load_artifact(str(p))


# (1,2,2) seed 3: `cascade --k 21 --n 1000` and `prove --count 3`, written by
# the release that took level polar forms through sqrtm of M M^T and level
# drifts through an SVD; `split --level 2 --n 1000`, written by commit 3b840bb,
# whose check assembled its matrices with np.block and np.vstack
STORED = ["cascade_122_seed3_k21_n1000.json", "prove_122_seed3_count3.json",
          "split_122_seed3_level2_n1000.json"]


@pytest.mark.parametrize("name", STORED)
def test_stored_artifacts_verify(name):
    assert verify_artifact(serialize.load_artifact(str(DATA / name)))["passed"]


def test_verify_names_a_failed_stage_once():
    """A stored index that fails stage 1 is reported with one stage prefix."""
    obj = serialize.load_artifact(str(DATA / "prove_122_seed3_count3.json"))
    obj["hits"][0].update(n=3, exponent=3)  # (1,2,2) seed 3 at n = 3 is outside the beta ball
    with pytest.raises(VerificationFailure) as exc:
        verify_artifact(obj)
    msg = str(exc.value)
    assert "is no hit on recompute: stage 1: input outside the beta ball" in msg
    assert msg.count("stage") == 1


def test_stored_cascade_result_recomputes():
    """Blocks and spectra are bit-equal; det, drift and polar agree to 1e-14."""
    stored = serialize.load_artifact(str(DATA / STORED[0]))
    spec = serialize.instance_from_json(stored["instance"])
    casc = choose_parameters(spec.model, spec.L, stored["eps0"], law=spec.law)
    res = cascade_decompose(spec.L_n(stored["k"]), stored["n"], spec.model, casc)
    fresh = serialize.cascade_result_to_json(res, spec, stored["eps0"], stored["k"])
    for new, old in zip(fresh["levels"], stored["levels"]):
        for key in ("det", "drift"):
            assert math.isclose(new.pop(key), old.pop(key), rel_tol=1e-14)
        assert ("polar" in new) == ("polar" in old)
        if "polar" in old:
            new_p, old_p = new.pop("polar"), old.pop("polar")
            P = serialize.matrix_from_json(old_p["P"])
            dP = np.linalg.norm(serialize.matrix_from_json(new_p["P"]) - P, 2)
            assert dP <= 1e-14 * np.linalg.norm(P, 2)
            assert abs(new_p["alpha"] - old_p["alpha"]) <= 1e-14
            assert math.isclose(new_p["eps_hat"], old_p["eps_hat"], rel_tol=1e-14)
    assert fresh == stored


@pytest.mark.parametrize("kind", [[], {}, {"kind": "instance"}], ids=["list", "dict", "nested"])
def test_unhashable_kind_is_an_unknown_kind(kind):
    """A kind that cannot be looked up is refused like any unknown kind."""
    with pytest.raises(VerificationFailure, match="unknown artifact kind"):
        verify_artifact({"kind": kind})


def _artifact(kind, instance, cascade):
    """An artifact of the kind that verifies: a fresh instance or split
    certificate, or a stored cascade result or prove report."""
    if kind == "instance":
        return serialize.instance_to_json(instance)
    if kind == "split-certificate":
        stage = cascade.stages[0]
        cert = invariant_pair(stage.problem, instance.L, cascade.n0 + 1, stage.constants)
        return serialize.certificate_to_json(cert, stage.problem)
    return serialize.load_artifact(str(DATA / STORED[kind == "prove-report"]))


# the object that holds the model of each kind of artifact
MODEL_KEY = {"instance": None, "split-certificate": "model", "cascade-result": "instance",
             "prove-report": "instance"}


@pytest.mark.parametrize("value", [math.inf, 1.5, True], ids=["inf", "fraction", "bool"])
@pytest.mark.parametrize("kind", list(MODEL_KEY))
def test_block_sizes_must_be_json_integers(kind, value, demo_instance, demo_cascade):
    """A block size that is not a JSON integer makes any artifact malformed; int()
    would raise OverflowError on inf and read 1.5 or true as 1."""
    obj = _artifact(kind, demo_instance, demo_cascade)
    assert verify_artifact(obj)["passed"]
    model = obj if MODEL_KEY[kind] is None else obj[MODEL_KEY[kind]]
    model["structure"][0] = value
    with pytest.raises(VerificationFailure, match=f"malformed {kind} artifact"):
        verify_artifact(obj)


def _first_spectrum(obj):
    """The first stored spectrum of a cascade result or prove report."""
    return (obj["levels"] if obj["kind"] == "cascade-result" else obj["hits"])[0]["spectrum"]


@pytest.mark.parametrize("field", ["unit_re", "unit_im", "log10_mod"])
@pytest.mark.parametrize("kind", ["cascade-result", "prove-report"])
def test_stored_spectrum_is_three_lists_of_one_length(kind, field):
    """A stored spectrum whose part is null, a number, nested or one entry short
    makes the artifact malformed; a null log10_mod used to escape as IndexError."""
    path = str(DATA / STORED[kind == "prove-report"])
    part = _first_spectrum(serialize.load_artifact(path))[field]
    for value in (None, 0.5, "x", [part], part[:-1]):
        bad = serialize.load_artifact(path)
        _first_spectrum(bad)[field] = value
        with pytest.raises(VerificationFailure, match=f"malformed {kind} artifact"):
            verify_artifact(bad)
