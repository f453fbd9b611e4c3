import csv
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import pytest

from spectral_cascade import cli, serialize
from spectral_cascade.cascade import choose_parameters, exponent_limit
from spectral_cascade.cli import main

DATA = Path(__file__).parent / "data"


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run(["gen", "--structure", "1,2", "--seed", "5", "--out", path]) == 0
    return path


def test_gen_and_check(instance_file):
    assert run(["check", "--instance", instance_file]) == 0


def test_check_reports_failure(tmp_path, instance_file, capsys):
    obj = json.loads(instance_file.read_text())
    obj["L"]["data"] = [[0.0] * 3 for _ in range(3)]
    bad = tmp_path / "bad_inst.json"
    bad.write_text(json.dumps(obj))
    assert run(["check", "--instance", bad]) == 1


def test_check_and_verify_reject_related_angles(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run(["gen", "--structure", "2,2,2", "--seed", "3", "--out", inst]) == 0
    assert run(["check", "--instance", inst]) == 0
    assert "rotation angles independent" in capsys.readouterr().out
    # sqrt(2), sqrt(3) mod 1 and a dyadic t3 with 1000 t1 - 999 t2 + t3 in Z
    t1, t2 = math.sqrt(2) % 1.0, math.sqrt(3) % 1.0
    t3 = float(-(1000 * Fraction(t1) - 999 * Fraction(t2)) % 1)
    obj = json.loads(inst.read_text())
    for blk, theta in zip(obj["T_blocks"], (t1, t2, t3)):
        blk["theta"] = theta
    bad = tmp_path / "related.json"
    bad.write_text(json.dumps(obj))
    assert run(["check", "--instance", bad]) == 1
    assert "relation" in capsys.readouterr().err
    assert run(["verify", "--artifact", bad]) == 1
    assert "relation" in capsys.readouterr().err


def test_cascade_and_verify(tmp_path, instance_file):
    out = tmp_path / "casc.json"
    assert run(["cascade", "--instance", instance_file, "--k", "20",
                "--n", "60", "--out", out]) == 0
    assert run(["verify", "--artifact", out]) == 0


def test_cascade_past_28_digits_of_spread_verifies(tmp_path):
    # (2,2) at n = 229 spans 29.8 digits, where the QR oracle route is off
    # by 1.6e-2: verify must not reject this correct decomposition
    inst, out = tmp_path / "inst.json", tmp_path / "casc.json"
    assert run(["gen", "--structure", "2,2", "--seed", "4", "--out", inst]) == 0
    assert run(["cascade", "--instance", inst, "--k", "13", "--n", "229", "--out", out]) == 0
    assert run(["verify", "--artifact", out]) == 0


def test_split_certificate_roundtrip(tmp_path, instance_file):
    out = tmp_path / "cert.json"
    assert run(["split", "--instance", instance_file, "--level", "1",
                "--k", "20", "--n", "60", "--out", out]) == 0
    assert run(["verify", "--artifact", out]) == 0


def test_find_n_writes_csv(tmp_path, instance_file):
    csv_path = tmp_path / "scan.csv"
    out = tmp_path / "hits.json"
    assert run(["find-n", "--instance", instance_file, "--count", "2",
                "--csv", csv_path, "--out", out]) == 0
    assert csv_path.read_text().startswith("n,")
    assert json.loads(out.read_text())["kind"] == "prove-report"


def test_prove_then_verify(tmp_path, instance_file):
    out = tmp_path / "prove.json"
    assert run(["prove", "--instance", instance_file, "--count", "2",
                "--out", out]) == 0
    assert run(["verify", "--artifact", out]) == 0


def test_verify_corrupted_exits_1(tmp_path, instance_file):
    out = tmp_path / "casc.json"
    run(["cascade", "--instance", instance_file, "--k", "20", "--n", "60",
         "--out", out])
    obj = json.loads(out.read_text())
    obj["levels"][0]["X"]["data"][0][0] += 1e-3
    out.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", out]) == 1


def test_verify_unreadable_exits_1(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{]")
    assert run(["verify", "--artifact", p]) == 1


def test_search_exhausted_exits_3(tmp_path, instance_file):
    assert run(["find-n", "--instance", instance_file, "--count", "3",
                "--n-max", "40"]) == 3


def test_usage_errors_exit_64(tmp_path):
    assert run(["bogus"]) == 64
    assert run(["cascade", "--instance", "missing.json"]) == 64  # missing --n/--out
    assert run(["gen", "--structure", "1,x", "--out", tmp_path / "i.json"]) == 64
    # a (1,2,2) instance has two split levels
    inst = tmp_path / "inst122.json"
    assert run(["gen", "--structure", "1,2,2", "--seed", "3", "--out", inst]) == 0
    for level in (0, -1, 3):
        assert run(["split", "--instance", inst, "--level", level, "--k", "21",
                    "--n", "100", "--out", tmp_path / "cert.json"]) == 64
    assert not (tmp_path / "cert.json").exists()


# out-of-range values that argparse accepts but the library rejects;
# "{inst}" stands for a valid (1,2) instance
@pytest.mark.parametrize("args", [
    ["gen", "--structure", "3,1"],
    ["gen", "--structure", "1,1"],
    ["gen", "--structure", "1,2", "--a", "0"],
    ["gen", "--structure", "1,2", "--rho", "1.5"],
    ["gen", "--structure", "1,2", "--seed", "-1"],
    ["gen", "--structure", "1,2", "--c", "nan"],
    ["gen", "--structure", "1,2", "--c", "inf"],
    ["cascade", "--instance", "{inst}", "--eps0", "-1", "--n", "60"],
    ["cascade", "--instance", "{inst}", "--eps0", "inf", "--n", "60"],
    ["prove", "--instance", "{inst}", "--eps0", "nan"],
    ["prove", "--instance", "{inst}", "--count", "0"],
    ["find-n", "--instance", "{inst}", "--count", "-2"],
], ids=["structure-3-1", "structure-1-1", "a-0", "rho-1.5", "seed-neg", "c-nan", "c-inf",
        "eps0-neg", "eps0-inf", "eps0-nan", "prove-count-0", "find-n-count-neg"])
def test_bad_argument_values_exit_64(tmp_path, instance_file, capsys, args):
    out = tmp_path / "out.json"
    args = [instance_file if a == "{inst}" else a for a in args]
    assert run([*args, "--out", out]) == 64
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_verify_rejects_nan_perturbation_amplitude(tmp_path, instance_file, capsys):
    obj = json.loads(instance_file.read_text())
    obj["law"]["c"] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", bad]) == 1
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "dict"])
def test_verify_rejects_unhashable_kind(tmp_path, capsys, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": kind}))
    assert run(["verify", "--artifact", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown artifact kind")
    assert "Traceback" not in err


def _drop_progression(obj):
    del obj["progression"]


def _untyped_amplitude(obj):
    obj["law"]["c"] = None


def _set(*path, value):
    """A defect that sets the value at the JSON path of an instance."""
    def defect(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return defect


@pytest.mark.parametrize("defect", [
    lambda obj: {"kind": "instance"},
    _drop_progression,
    _untyped_amplitude,
    _set("structure", 0, value=math.inf),
    _set("law", "rho", value=2),
    _set("structure", value=[1, 2, 3]),
    _set("L", "rows", value=4),
    _set("T_blocks", 0, "type", value="blob"),
    _set("progression", "a", value=1.0),
    _set("note", value="hand-edited"),
    lambda obj: {key: value for key, value in obj.items() if key != "kind"},
    lambda obj: "{]",
], ids=["kind-only", "no-progression", "null-amplitude", "inf-size", "rho-2", "size-3",
        "L-header", "blob-block", "float-a", "extra-key", "no-kind", "not-json"])
@pytest.mark.parametrize("command", [["check"], ["split", "--n", "100", "--out", "{out}"],
                                     ["cascade", "--n", "60", "--out", "{out}"], ["find-n"],
                                     ["prove"]], ids=lambda c: c[0])
def test_malformed_instance_exits_1(tmp_path, instance_file, capsys, defect, command):
    """A file that is not JSON, has no kind, or a missing, extra, wrong-typed or
    out-of-range field is a bad artifact (exit 1), as for verify, not a usage
    error (64) or a traceback."""
    obj = json.loads(instance_file.read_text())
    obj = defect(obj) or obj
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    args = [out if a == "{out}" else a for a in command]
    assert run([args[0], "--instance", bad, *args[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed instance artifact: ")
    assert "Traceback" not in err
    assert not out.exists()
    assert run(["verify", "--artifact", bad]) == 1


def _exponent_limit(path):
    return exponent_limit(serialize.instance_from_json(json.loads(Path(path).read_text())).model)


def test_exponents_beyond_exact_phase_range_exit_64(tmp_path, instance_file, capsys):
    """An exponent at the instance's exponent_limit, where n |ln|lambda||
    reaches the float log-modulus cap, is a usage error before any work."""
    out = tmp_path / "out.json"
    limit = _exponent_limit(instance_file)
    for n in (limit, -limit):
        assert run(["cascade", "--instance", instance_file, "--n", n, "--out", out]) == 64
        assert run(["split", "--instance", instance_file, "--n", n, "--out", out]) == 64
    assert "float log-modulus limit" in capsys.readouterr().err
    assert run(["find-n", "--instance", instance_file, "--n-max", limit,
                "--out", out]) == 64
    # a * n_max + b reaches the limit although n_max alone stays below it
    progression = tmp_path / "ab.json"
    assert run(["gen", "--structure", "1,2", "--seed", "5", "--a", "2", "--b", "1",
                "--out", progression]) == 0
    assert run(["prove", "--instance", progression,
                "--n-max", _exponent_limit(progression) // 2, "--out", out]) == 64
    assert not out.exists()


@pytest.mark.parametrize("command", ["cascade", "split"])
@pytest.mark.parametrize("k", ["1" + "0" * 400, "-1" + "0" * 400, "-2000"],
                         ids=["400-digits", "neg-400-digits", "neg-2000"])
def test_k_past_float_range_exits_64(tmp_path, instance_file, capsys, command, k):
    """rho^k leaves the float range: k itself does not convert to a float, or
    rho^-2000 overflows; an error line, not a traceback."""
    out = tmp_path / "out.json"
    assert run([command, "--instance", instance_file, "--k", k, "--n", 100, "--out", out]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def seed3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed3") / "inst.json"
    assert run(["gen", "--structure", "1,2,2", "--seed", "3", "--out", path]) == 0
    return path


def _split(seed3_file, out, level, n, k=21):
    return run(["split", "--instance", seed3_file, "--level", level, "--k", k,
                "--n", n, "--out", out])


# (1,2,2) seed 3 has k0 = 21 and stage thresholds n0 = 53 and 37; L_18 lies
# outside the first stage's beta ball.
@pytest.mark.parametrize("level,k,n", [(1, 21, 40), (1, 18, 60), (2, 21, 40)],
                         ids=["below-n0", "outside-ball", "stage-1-below-n0"])
def test_split_refuses_what_cascade_refuses(tmp_path, seed3_file, level, k, n):
    out = tmp_path / "cert.json"
    assert _split(seed3_file, out, level, n, k=k) == 1
    assert not out.exists()
    assert run(["cascade", "--instance", seed3_file, "--k", k, "--n", n,
                "--out", tmp_path / "casc.json"]) == 1


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("n", [53, 100, 3_000, 100_000])
def test_split_at_large_n_verifies(tmp_path, seed3_file, level, n):
    """From the threshold n0 = 53 on, a split that exits 0 verifies."""
    out = tmp_path / "cert.json"
    assert _split(seed3_file, out, level, n) == 0
    assert run(["verify", "--artifact", out]) == 0


def test_cascade_and_split_verify_at_a_billion(tmp_path, seed3_file):
    """At n = 1e9 cascade and split write artifacts that verify; at the
    instance's exponent_limit (about 1.46e9 here) both exit 64 and write
    nothing."""
    limit = _exponent_limit(seed3_file)
    assert 10 ** 9 < limit < 2 * 10 ** 9
    for command, level in (("cascade", []), ("split", ["--level", 1])):
        out, past = tmp_path / f"{command}.json", tmp_path / f"{command}_past.json"
        assert run([command, "--instance", seed3_file, *level, "--k", 21, "--n", 10 ** 9,
                    "--out", out]) == 0
        assert run(["verify", "--artifact", out]) == 0
        assert run([command, "--instance", seed3_file, *level, "--k", 21, "--n", limit,
                    "--out", past]) == 64
        assert not past.exists()


@pytest.mark.parametrize("command,args", [("split", ["--level", 1, "--n", 100]),
                                          ("cascade", ["--n", 1000])])
def test_k_defaults_to_the_scan_floor(tmp_path, seed3_file, command, args):
    """Without --k, split and cascade run at k0 = 21, the first k inside stage 1's ball."""
    default, explicit = tmp_path / "default.json", tmp_path / "k21.json"
    assert run([command, "--instance", seed3_file, *args, "--out", default]) == 0
    assert run(["verify", "--artifact", default]) == 0
    assert run([command, "--instance", seed3_file, *args, "--k", 21, "--out", explicit]) == 0
    assert default.read_bytes() == explicit.read_bytes()


def test_main_builds_one_parser(seed3_file):
    cli.build_parser.cache_clear()
    assert run(["bogus"]) == 64
    assert run(["check", "--instance", seed3_file]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_keeps_calls_independent(tmp_path, seed3_file):
    """An option of one call does not carry over to the next."""
    out, k0 = tmp_path / "out.json", tmp_path / "k21.json"
    assert run(["cascade", "--instance", seed3_file, "--k", 25, "--n", 1000, "--out", out]) == 0
    assert json.loads(out.read_text())["k"] == 25
    assert run(["cascade", "--instance", seed3_file, "--n", 1000, "--out", out]) == 0
    assert run(["cascade", "--instance", seed3_file, "--k", 21, "--n", 1000, "--out", k0]) == 0
    assert out.read_bytes() == k0.read_bytes()  # the scan floor k0 = 21
    assert run(["prove", "--instance", seed3_file, "--count", 5, "--out", out]) == 0
    assert len(json.loads(out.read_text())["hits"]) == 5
    assert run(["prove", "--instance", seed3_file, "--out", out]) == 0
    assert [h["n"] for h in json.loads(out.read_text())["hits"]] == [65, 95, 125]


@pytest.mark.parametrize("name,value", [("n0", 0), ("n1", 0), ("n_dom", 7), ("n0", math.nan),
                                        ("n1", math.nan), ("beta", math.nan),
                                        ("alpha", math.nan), ("rho", math.nan)])
def test_verify_rederives_split_thresholds(tmp_path, seed3_file, name, value):
    out = tmp_path / "cert.json"
    assert _split(seed3_file, out, 1, 100) == 0
    obj = json.loads(out.read_text())
    assert obj["constants"][name] != value
    obj["constants"][name] = value
    out.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", out]) == 1


@pytest.mark.parametrize("section,name,value", [("residuals", "forward_invariance", 123.0),
                                                ("bounds", "xi_norm", -5.0),
                                                ("bounds", "eta_norm", math.nan)])
def test_verify_recomputes_split_residuals_and_bounds(tmp_path, seed3_file, section,
                                                      name, value):
    out = tmp_path / "cert.json"
    assert _split(seed3_file, out, 1, 100) == 0
    obj = json.loads(out.read_text())
    obj[section][name] = value
    out.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", out]) == 1


# each edit of the stored (1,2,2) seed-3 decomposition at k = 21, n = 1000,
# whose levels 2 and 3 carry a window
@pytest.mark.parametrize("edit", [
    lambda obj: obj["levels"][0].update(drift=9.0),
    lambda obj: obj["levels"][0].update(det=-1.0),
    lambda obj: obj["levels"][1].update(drift=math.nan),
    lambda obj: obj.update(domination_margin=-3.0),
    lambda obj: obj["levels"][1]["polar"].update(alpha=obj["levels"][1]["polar"]["alpha"] + 0.5),
    lambda obj: obj["levels"][2]["polar"].update(eps_hat=math.nan),
    lambda obj: obj["levels"][2]["polar"]["P"].update(data=[[1.0, 0.0], [0.0, 1.0]]),
    lambda obj: obj["levels"][1].pop("polar"),
    lambda obj: obj["levels"][0].update(polar=obj["levels"][1]["polar"]),
    lambda obj: obj["levels"][1].update(j=obj["levels"][1]["j"] + 1),
], ids=["drift", "det", "drift-nan", "domination_margin", "alpha", "eps_hat-nan", "P",
        "polar-dropped", "polar-added", "j"])
def test_verify_recomputes_cascade_numbers(tmp_path, edit):
    obj = json.loads((DATA / "cascade_122_seed3_k21_n1000.json").read_text())
    edit(obj)
    bad = tmp_path / "casc.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", bad]) == 1


def test_verify_compares_window_offset_modulo_one(tmp_path):
    obj = json.loads((DATA / "cascade_122_seed3_k21_n1000.json").read_text())
    obj["levels"][1]["polar"]["alpha"] -= 1.0
    shifted = tmp_path / "casc.json"
    shifted.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", shifted]) == 0


# each edit of the first hit of the stored (1,2,2) seed-3 prove report
@pytest.mark.parametrize("edit", [
    lambda hit: hit.update(min_gap=math.nan),
    lambda hit: hit["phases"].update({"2": 5.0}),
    lambda hit: hit.update(oracle_mismatch=-1.0),
    lambda hit: hit.update(oracle_checked=False),
], ids=["min_gap-nan", "phase", "oracle_mismatch", "oracle_checked"])
def test_verify_recomputes_prove_report_numbers(tmp_path, edit):
    obj = json.loads((DATA / "prove_122_seed3_count3.json").read_text())
    edit(obj["hits"][0])
    bad = tmp_path / "prove.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", bad]) == 1


@pytest.mark.parametrize("order", [[0, 0, 2, 1], [0, 2, 1], [1, 1]],
                         ids=["repeat-then-back", "back", "repeat"])
def test_verify_rejects_hits_out_of_order(tmp_path, capsys, order):
    """Stored hits n = 65, 95, 125 pass only in strictly increasing order."""
    obj = json.loads((DATA / "prove_122_seed3_count3.json").read_text())
    obj["hits"] = [obj["hits"][i] for i in order]
    bad = tmp_path / "prove.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", bad]) == 1
    assert "strictly increasing" in capsys.readouterr().err


def _flip_mantissa_bit(x: float, bit: int) -> float:
    bits = struct.unpack("<Q", struct.pack("<d", x))[0] ^ (1 << bit)
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@pytest.mark.parametrize("field", ["xi", "eta_hat", "X"])
def test_split_certificate_flipped_bit_exits_1(tmp_path, seed3_file, field):
    out = tmp_path / "cert.json"
    assert _split(seed3_file, out, 1, 100_000) == 0
    obj = json.loads(out.read_text())
    data = obj[field]["data"]
    # the largest entry, so that the flip is far above the residual tolerance
    i, j = max(((i, j) for i, row in enumerate(data) for j in range(len(row))),
               key=lambda ij: abs(data[ij[0]][ij[1]]))
    data[i][j] = _flip_mantissa_bit(data[i][j], 40)
    out.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", out]) == 1


def test_split_certificate_without_format_exits_1(tmp_path, seed3_file):
    out = tmp_path / "cert.json"
    assert _split(seed3_file, out, 1, 100) == 0
    obj = json.loads(out.read_text())
    del obj["format"]
    out.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", out]) == 1


def test_verify_rejects_nan_in_stored_hit_spectrum(tmp_path, capsys):
    obj = json.loads((DATA / "prove_122_seed3_count3.json").read_text())
    obj["hits"][0]["spectrum"]["log10_mod"][0] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", "--artifact", bad]) == 1
    assert "malformed" in capsys.readouterr().err


# a field of each kind that int() read before the readers took JSON integers
# only, so that an infinite value escaped verify as OverflowError
@pytest.mark.parametrize("artifact,path", [
    ("instance", ("L", "rows")), ("instance", ("L", "cols")), ("instance", ("law", "seed")),
    ("instance", ("progression", "a")), ("instance", ("progression", "b")),
    ("split", ("k1",)), ("split", ("n",)),
    ("cascade", ("k",)), ("cascade", ("n",)), ("cascade", ("levels", 0, "j")),
    ("prove", ("n0",)), ("prove", ("k0",)), ("prove", ("hits", 0, "n")),
    ("prove", ("hits", 0, "exponent")),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_verify_refuses_an_infinite_integer(tmp_path, seed3_file, capsys, artifact, path,
                                            value):
    source = tmp_path / "artifact.json"
    if artifact == "split":
        assert _split(seed3_file, source, 1, 100) == 0
    else:
        source = {"instance": seed3_file, "cascade": DATA / "cascade_122_seed3_k21_n1000.json",
                  "prove": DATA / "prove_122_seed3_count3.json"}[artifact]
    obj = json.loads(source.read_text())
    _set(*path, value=value)(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", "--artifact", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# S L with S = diag(1, ..., 1, -1) keeps every genericity condition, since S is
# orthogonal, and flips the sign of the last level's limit determinant
@pytest.mark.parametrize("structure,seed,hits", [("1,2", 5, [37, 38, 39]),
                                                 ("1,2,2", 3, [54, 65, 69])],
                         ids=["12", "122"])
def test_negative_determinant_level_has_no_window(tmp_path, structure, seed, hits):
    inst, out, scan = tmp_path / "inst.json", tmp_path / "prove.json", tmp_path / "scan.csv"
    assert run(["gen", "--structure", structure, "--seed", seed, "--out", inst]) == 0
    obj = json.loads(inst.read_text())
    obj["L"]["data"][-1] = [-x for x in obj["L"]["data"][-1]]
    inst.write_text(json.dumps(obj))
    assert run(["check", "--instance", inst]) == 0
    assert run(["prove", "--instance", inst, "--count", 3, "--csv", scan, "--out", out]) == 0
    m = structure.count(",") + 1
    report = json.loads(out.read_text())
    assert [h["n"] for h in report["hits"]] == hits
    assert all(math.isnan(h["phases"][str(m)]) for h in report["hits"])
    assert run(["verify", "--artifact", out]) == 0

    spec = serialize.instance_from_json(obj)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    assert m not in casc.windows
    # the scan examines every index that the other levels' windows admit
    floor = max(casc.n0, casc.k0, 1)
    with open(scan) as fh:
        examined = [int(row["n"]) for row in csv.DictReader(fh)]
    admitted = [n for n in range(floor, examined[-1] + 1)
                if all(abs(w.phase(spec.model.block(j).theta, spec.a * n + spec.b)) < w.half_width
                       for j, w in casc.windows.items())]
    assert examined == admitted
