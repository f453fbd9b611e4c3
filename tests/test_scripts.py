"""Smoke tests for the scripts under scripts/, run as a user runs them."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_cascade as sc

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
             (("instance", ".json"), ("prove", ".json"), ("scan", ".csv"), ("cascade", "_100.json"),
              ("split", "_level1_100.json"), ("split", "_level2_100.json"))]
    assert [line.split("  ")[1] for line in lines] == names
    for line, name in zip(lines, names):
        digest = line.split("  ")[0]
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
