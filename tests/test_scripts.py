"""Smoke tests for the scripts under scripts/, run as a user runs them."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_cascade as sc
from spectral_cascade import cli, serialize
from spectral_cascade.errors import VerificationFailure

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name: str, *args: str) -> str:
    """Run one script through this interpreter, on the package under test."""
    package_root = str(Path(sc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name,args,line", [
    ("run_prove_demo.py", ("--structure", "1,2", "--count", "1"),
     "independent re-verification: ok"),
    ("phase_window_scan.py", ("--n-max", "10000"), "joint window"),
])
def test_script_runs(name, args, line):
    assert line in _run_script(name, *args)


def test_output_digest_prints_one_sha256_per_output(tmp_path):
    out = _run_script("output_digest.py", "--out", str(tmp_path), "--count", "1", "--n", "100")
    lines = out.splitlines()
    names = [f"{stem}{tag}{ext}" for tag in ("122", "222") for stem, ext in
             (("instance", ".json"), ("check", ".txt"), ("prove", ".json"), ("scan", ".csv"),
              ("cascade", "_100.json"),
              ("split", "_level1_100.json"), ("split", "_level2_100.json"))]
    assert [line.split("  ")[1] for line in lines] == names
    for line, name in zip(lines, names):
        digest = line.split("  ")[0]
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_output_digest_fails_when_verify_rejects_an_artifact(tmp_path, monkeypatch, capsys):
    """Every JSON artifact the digest script writes goes through verify; a
    rejected one is named on standard error and the script exits 1."""
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    verify, kinds = cli.verify_artifact, []

    def reject_cascades(obj):
        kinds.append(obj["kind"])
        if obj["kind"] == serialize.KIND_CASCADE:
            raise VerificationFailure("planted defect")
        return verify(obj)

    monkeypatch.setattr(cli, "verify_artifact", reject_cascades)
    assert script.main(["--out", str(tmp_path), "--count", "1", "--n", "100"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 14
    assert sorted(kinds) == sorted([serialize.KIND_INSTANCE, serialize.KIND_PROVE,
                                    serialize.KIND_CASCADE] * 2 + [serialize.KIND_SPLIT_CERT] * 4)
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "verify rejects cascade122_100.json", "verify rejects cascade222_100.json"]


def test_output_digest_compare_tells_layout_from_content(tmp_path):
    """--compare names each output whose bytes differ and, for JSON, whether
    both sides parse to the same object (NaN-aware; 1 and 1.0 differ)."""
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    files = {  # name -> (base text, head text)
        "same.json": ('{"a": 1}\n', '{"a": 1}\n'),
        "layout.json": ('{\n  "x": NaN,\n  "y": [\n    0.1\n  ]\n}\n', '{"x": NaN, "y": [0.1]}\n'),
        "number.json": ('{"a": 1}\n', '{"a": 1.0}\n'),
        "check.txt": ("margin 0.5\n", "margin 0.25\n"),
    }
    for name, (old, new) in files.items():
        (base / name).write_text(old)
        (head / name).write_text(new)
    (head / "new.json").write_text('{"b": 2}\n')
    assert _run_script("output_digest.py", "--compare", str(base), str(head)).splitlines() == [
        "check.txt: bytes differ",
        "layout.json: same content",
        "new.json: missing on base",
        "number.json: content differs",
        "4 of 5 outputs differ in bytes; 1 of the 2 JSON outputs among them differ in content",
    ]
