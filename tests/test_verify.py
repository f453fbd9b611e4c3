"""verify compares a stored artifact whole with the one the writers produce
from the recomputation: the same keys, list lengths and JSON types, and
numbers within each field's tolerance."""

import contextlib
import copy
import dataclasses
import io
import json
import math
from pathlib import Path

import pytest

import spectral_cascade as sc
from spectral_cascade import cli, serialize, verify
from spectral_cascade.cascade import (cascade_decompose, choose_parameters, exponent_limit,
                                      prove_instance, stage_input)
from spectral_cascade.errors import VerificationFailure
from spectral_cascade.graph_transform import invariant_pair
from spectral_cascade.oracle import ScaledSpectrum, product_spectrum
from spectral_cascade.verify import verify_artifact

DATA = Path(__file__).parent / "data"
FIXTURES = ["cascade_122_seed3_k21_n1000.json", "prove_122_seed3_count3.json"]
FRESH = [f"{kind}{tag}" for tag in ("122", "222") for kind in ("inst", "prove", "casc", "split")]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Each kind of artifact fresh from the command line for the (1,2,2) and
    (2,2,2) seed-3 instances, and the two stored fixtures, by name."""
    out = tmp_path_factory.mktemp("artifacts")
    for structure in ("1,2,2", "2,2,2"):
        tag = structure.replace(",", "")
        inst = out / f"inst{tag}.json"
        _run(["gen", "--structure", structure, "--seed", 3, "--out", inst])
        _run(["prove", "--instance", inst, "--count", 3, "--out", out / f"prove{tag}.json"])
        _run(["cascade", "--instance", inst, "--n", 1000, "--out", out / f"casc{tag}.json"])
        _run(["split", "--instance", inst, "--level", 1, "--n", 100,
              "--out", out / f"split{tag}.json"])
    objs = {name: json.loads((out / f"{name}.json").read_text()) for name in FRESH}
    return {**objs, **{name: json.loads((DATA / name).read_text()) for name in FIXTURES}}


def _leaves(obj, path=()):
    """(path, value) of every number in a JSON object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    elif type(obj) in (int, float):
        yield path, obj


def _mutations(value):
    """Values of another JSON type, or a fraction, where ``value`` was stored."""
    if type(value) is int:
        return [value + 0.5, float(value), str(value), True, math.inf]
    return [str(value), [value], None]


@pytest.mark.parametrize("name", FRESH + FIXTURES)
def test_every_type_change_is_refused(artifacts, name):
    """An integer stored as a fraction, a float, a string, true or inf, and a
    number stored as a string, a list or null: each is refused with
    VerificationFailure, and none verifies or escapes as another exception."""
    obj = artifacts[name]
    assert verify_artifact(copy.deepcopy(obj))["passed"]
    verified, escaped, count = [], [], 0
    for path, value in _leaves(obj):
        for bad in _mutations(value):
            mutated = copy.deepcopy(obj)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = bad
            count += 1
            try:
                verify_artifact(mutated)
                verified.append((path, bad))
            except VerificationFailure:
                pass
            except Exception as exc:  # any other exception escapes the CLI as a traceback
                escaped.append((path, bad, repr(exc)))
    assert count > 30
    assert (verified, escaped) == ([], [])


# (artifact, object holding the key, key) for a key added or removed
@pytest.mark.parametrize("name,where,key", [
    ("inst122", lambda o: o, "law"),
    ("inst122", lambda o: o["law"], "seed"),
    ("split122", lambda o: o, "residuals"),
    ("split122", lambda o: o["bounds"], "eta_norm"),
    ("casc122", lambda o: o, "domination_margin"),
    ("casc122", lambda o: o["levels"][1], "polar"),
    ("prove122", lambda o: o, "k0"),
    ("prove122", lambda o: o["hits"][0], "oracle_mismatch"),
], ids=["instance", "instance-law", "split", "split-bounds", "cascade", "cascade-level",
        "prove", "prove-hit"])
def test_extra_and_missing_keys_are_malformed(artifacts, name, where, key):
    """The stored artifact carries the keys its writer writes, no more, no fewer;
    a key the readers skip is refused where the writer's artifact is compared."""
    extra = copy.deepcopy(artifacts[name])
    where(extra)["note"] = "hand-edited"
    missing = copy.deepcopy(artifacts[name])
    del where(missing)[key]
    for obj in (extra, missing):
        with pytest.raises(VerificationFailure, match=f"malformed {obj['kind']} artifact: "):
            verify_artifact(obj)


def test_a_float_field_may_hold_a_json_integer(artifacts):
    obj = copy.deepcopy(artifacts["inst122"])
    obj["law"]["c"] = 0
    assert verify_artifact(obj)["passed"]
    obj["progression"]["b"] = 0.0  # but an integer field holds no float
    with pytest.raises(VerificationFailure, match="malformed instance artifact"):
        verify_artifact(obj)


@pytest.mark.parametrize("examined", [-1, 0, 2])
def test_examined_counts_at_least_the_hits(artifacts, examined):
    """examine returns one record per candidate, so a report with 3 hits
    examined at least 3 candidates."""
    obj = copy.deepcopy(artifacts["prove122"])
    assert len(obj["hits"]) == 3 and obj["examined"] >= 3
    obj["examined"] = 3
    assert verify_artifact(copy.deepcopy(obj))["passed"]
    obj["examined"] = examined
    with pytest.raises(VerificationFailure, match="fewer than the 3 hits"):
        verify_artifact(obj)


@pytest.mark.parametrize("key", ["n0", "k0"])
def test_scan_floor_must_recompute(artifacts, key):
    obj = copy.deepcopy(artifacts["prove122"])
    obj[key] += 1
    with pytest.raises(VerificationFailure, match=f"^prove-report {key} does not recompute: "):
        verify_artifact(obj)


# a non-finite number where every writer stores a finite one; numpy warned on
# each before verify refused it, and the package's error::RuntimeWarning
# filter turns any such warning into a failure here
@pytest.mark.parametrize("name,path", [
    ("casc122", ("levels", 0, "spectrum", "unit_im", 0)),
    ("casc122", ("levels", 1, "polar", "alpha")),
    ("split122", ("xi", "data", 0, 0)),
], ids=["spectrum", "alpha", "xi"])
@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_an_infinite_float_is_refused_quietly(artifacts, name, path, value):
    obj = copy.deepcopy(artifacts[name])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(VerificationFailure):
        verify_artifact(obj)


def test_cascade_result_must_match_the_oracle(artifacts, monkeypatch):
    def moved(L, model, n):
        spectrum = product_spectrum(L, model, n)
        return ScaledSpectrum(unit=spectrum.unit, log_mod=spectrum.log_mod + 0.1)

    monkeypatch.setattr(verify, "product_spectrum", moved)
    with pytest.raises(VerificationFailure,
                       match=r"^decomposed spectrum disagrees with the oracle \("):
        verify_artifact(copy.deepcopy(artifacts["casc122"]))


def test_prove_report_without_hits_is_refused(artifacts):
    obj = copy.deepcopy(artifacts["prove122"])
    obj["hits"] = []
    with pytest.raises(VerificationFailure, match="^report carries no exponents$"):
        verify_artifact(obj)


def _spied_rules(monkeypatch):
    """Replace every callable rule of both kinds by a spy; returns its calls."""
    calls = []
    for rules in (verify._CASCADE_RULES, verify._PROVE_RULES):
        for key, rule in list(rules.items()):
            if callable(rule):
                monkeypatch.setitem(rules, key, lambda s, f, key=key, rule=rule:
                                    calls.append(key) or rule(s, f))
    return calls


@pytest.mark.parametrize("name", ["prove122", "casc122", "prove222", "casc222"])
def test_no_rule_runs_on_an_unchanged_artifact(artifacts, monkeypatch, name):
    """Where the stored artifact is the writer's own, every subtree under a
    rule is identical to the recomputed one, and no rule runs."""
    calls = _spied_rules(monkeypatch)
    assert verify_artifact(copy.deepcopy(artifacts[name]))["passed"]
    assert calls == []


@pytest.mark.parametrize("delta,passes", [(1e-9, True), (1e-6, False)])
def test_a_changed_spectrum_reaches_its_rule(artifacts, monkeypatch, delta, passes):
    """One float of a stored spectrum moved by delta: the spectrum rule runs
    for that hit alone, and holds within 1e-8 of the recomputed spectrum."""
    obj = copy.deepcopy(artifacts["prove122"])
    obj["hits"][1]["spectrum"]["unit_re"][0] += delta
    calls = _spied_rules(monkeypatch)
    if passes:
        assert verify_artifact(obj)["passed"]
    else:
        with pytest.raises(VerificationFailure,
                           match=r"^prove-report hits\[1\] spectrum does not recompute$"):
            verify_artifact(obj)
    assert calls == ["spectrum"]


def test_identical_infinite_spectra_still_reach_the_rule(artifacts, monkeypatch):
    """-Infinity stored where the writer also wrote it is no identical
    subtree: the spectrum rule's reader refuses it, as a malformed artifact."""
    spectrum = {"unit_re": [1.0, 1.0], "unit_im": [0.0, 0.0], "log10_mod": [0.5, -math.inf]}
    with pytest.raises(ValueError, match="finite JSON numbers"):
        verify._agree("prove-report", {"spectrum": spectrum}, copy.deepcopy({"spectrum": spectrum}),
                      verify._PROVE_RULES)
    writer = verify.serialize.prove_report_to_json

    def infinite(report, eps0):
        fresh = writer(report, eps0)
        fresh["hits"][0]["spectrum"]["log10_mod"][-1] = -math.inf
        return fresh

    obj = copy.deepcopy(artifacts["prove122"])
    obj["hits"][0]["spectrum"]["log10_mod"][-1] = -math.inf
    monkeypatch.setattr(verify.serialize, "prove_report_to_json", infinite)
    with pytest.raises(VerificationFailure, match="^malformed prove-report artifact: "):
        verify_artifact(obj)


def _written_below_limit(kind, below):
    """kind's artifact as the library writes it at the exponent limit - below of
    the model verify checks it against, and that limit; a prove report at
    limit - 1 only."""
    if kind == "prove":
        # the first window candidate of (1,2) seed 0, at its scan floor, is a hit
        # when the progression puts it at the limit - 1
        spec = sc.generate_instance((1, 2), seed=0)
        casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
        limit, n = exponent_limit(spec.model), max(casc.n0, casc.k0, 1)
        report = prove_instance(dataclasses.replace(spec, b=limit - below - n), count=1, n_max=n)
        return serialize.prove_report_to_json(report, 1e-3), limit
    spec = sc.generate_instance((1, 2, 2), seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    if kind == "casc":
        limit = exponent_limit(spec.model)
        result = cascade_decompose(L_k, limit - below, spec.model, casc)
        return serialize.cascade_result_to_json(result, spec, 1e-3, casc.k0), limit
    stage = casc.stages[int(kind[-1]) - 1]
    limit = exponent_limit(stage.problem.model)  # a split's own stage model
    n = limit - below
    cert = invariant_pair(stage.problem, stage_input(L_k, n, casc, stage.j), n, stage.constants)
    return serialize.certificate_to_json(cert, stage.problem), limit


@pytest.mark.parametrize("kind", ["casc", "split1", "split2", "prove"])
def test_exponent_at_the_limit_is_refused(kind, tmp_path):
    """verify refuses an exponent that the command line refuses to write: a
    cascade result's n, a split's n against its stage model, a prove report's
    hit exponent a n + b, each at the exponent limit; at the limit - 1 each
    verifies."""
    below, limit = _written_below_limit(kind, 1)
    assert verify_artifact(copy.deepcopy(below))["passed"]
    if kind == "prove":
        at = copy.deepcopy(below)
        at["instance"]["progression"]["b"] += 1
        at["hits"][0]["exponent"] += 1
        assert at["hits"][0]["exponent"] == limit
    else:
        at, _ = _written_below_limit(kind, 0)
        assert at["n"] == limit
    with pytest.raises(VerificationFailure, match=f"exponent {limit} is not below {limit}, "):
        verify_artifact(copy.deepcopy(at))
    serialize.save_artifact(tmp_path / "at.json", at)
    assert cli.main(["verify", "--artifact", str(tmp_path / "at.json")]) == 1
