"""Acceptance gate: one test per criterion, pinned tolerances.

Each criterion appears as a single test function so the pytest report
carries exactly one pass/fail line per criterion.
"""

import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spectral_cascade as sc
from spectral_cascade.blocks import block_diag, split_blocks
from spectral_cascade.graph_transform import (
    SplitProblem,
    check_hypotheses,
    derive_constants,
    invariant_pair,
    solve_eta,
    solve_xi,
)
from spectral_cascade.linalg import (
    eigenvalues,
    invert,
    op_norm,
    rotation_matrix,
)
from spectral_cascade.model import DiagonalModel, RotationBlock, ScalarBlock
from spectral_cascade.oracle import ScaledSpectrum, match_scaled, product_spectrum

from charpoly import eigenvalues_charpoly

PATTERNS = [(1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 2), (2, 2, 2)]


def _random_split_problem(rng):
    k1 = int(rng.integers(1, 3))
    k2 = int(rng.integers(1, 3))
    A = rng.standard_normal((k1, k1)) + 2.0 * np.eye(k1)
    sA = np.linalg.svd(A, compute_uv=False)[-1]
    D = rng.standard_normal((k2, k2))
    D *= 0.4 * sA / max(op_norm(D), 1e-12)
    V = block_diag(A, D)
    d = k1 + k2
    J0 = np.eye(d) + 0.2 * rng.standard_normal((d, d))
    return SplitProblem(V=V, J0=J0, k1=k1, k2=k2, delta=0.05)


def _split_problems(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = _random_split_problem(rng)
        if check_hypotheses(p).passed:
            out.append(p)
    return out


def test_criterion_1_spectrum_union_matches_oracle():
    """100 instances, d in 3..6: assembled spectrum vs direct eigensolver, 1e-6."""
    start = time.time()
    worst = 0.0
    for i in range(100):
        spec = sc.generate_instance(PATTERNS[i % len(PATTERNS)], seed=1000 + i)
        casc = sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
        for k in (casc.k0, casc.k0 + 5):
            L_k = spec.L_n(k)
            for n in range(casc.n0, casc.n0 + 21):
                res = sc.cascade_decompose(L_k, n, spec.model, casc)
                mismatch = match_scaled(res.spectrum, product_spectrum(L_k, spec.model, n))
                worst = max(worst, mismatch)
                assert mismatch < 1e-6, (i, k, n, mismatch)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 2 minute budget"


def test_criterion_2_certificate_suite_zero_failures():
    """50 problems x 50 J x n in [n0, n0+10]: every certified bound holds."""
    rng = np.random.default_rng(77)
    for p in _split_problems(50, seed=7):
        constants = derive_constants(p)
        rho_pow = [constants.rho ** n for n in range(constants.n0, constants.n0 + 11)]
        for _ in range(50):
            G = rng.standard_normal((p.d, p.d))
            J = p.J0 + 0.9 * constants.beta * G / op_norm(G)
            for idx, n in enumerate(range(constants.n0, constants.n0 + 11)):
                cert = invariant_pair(p, J, n, constants)  # raises on any violation
                assert cert.residuals["forward_invariance"] < 1e-8
                assert cert.residuals["backward_invariance"] < 1e-8
                assert cert.bounds["xi_norm"] <= constants.gamma
                assert cert.bounds["eta_norm"] <= constants.gamma * rho_pow[idx] * (1 + 1e-9)
                assert cert.bounds["transversality_det"] > 1e-12
                assert cert.bounds["item3"] < p.delta
                assert cert.bounds["item4"] < p.delta


def test_criterion_3_n0_is_uniform_over_the_ball():
    """One n0 per problem certifies every sampled J; no per-J re-derivation."""
    rng = np.random.default_rng(88)
    for p in _split_problems(50, seed=11):
        constants = derive_constants(p)  # the only derivation for this problem
        for _ in range(50):
            G = rng.standard_normal((p.d, p.d))
            J = p.J0 + 0.9 * constants.beta * G / op_norm(G)
            invariant_pair(p, J, constants.n0, constants)


def test_criterion_4_subsequence_search_with_oracle_confirmation():
    """20 instances x progressions (1,0),(2,1),(3,2): 3 confirmed exponents each."""
    start = time.time()
    for i in range(20):
        base = sc.generate_instance(PATTERNS[i % len(PATTERNS)], seed=4000 + i)
        casc = sc.choose_parameters(base.model, base.L, 1e-3, law=base.law)
        for a, b in [(1, 0), (2, 1), (3, 2)]:
            spec = sc.InstanceSpec(model=base.model, L=base.L, law=base.law, a=a, b=b)
            res = sc.find_subsequence(spec, casc, count=3, n_max=100_000)
            assert len(res.hits) >= 3
            for h in res.hits:
                assert h.n <= 100_000
                assert h.oracle_checked, "hit not confirmed by the eigensolver oracle"
                assert h.oracle_mismatch < 1e-6
                assert h.min_gap >= 1e-9
    elapsed = time.time() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds the 5 minute budget"


def test_criterion_5_window_hit_frequency_equidistributes():
    """d=3, one rotation block: empirical window frequency vs window length."""
    spec = sc.generate_instance((1, 2), seed=5)
    casc = sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    ((level, window),) = casc.windows.items()
    window_len = 2.0 * window.half_width
    theta = spec.model.block(level).theta
    ns = np.arange(1, 100_001)
    freq = float(np.mean(np.abs(window.phase(theta, ns)) < window.half_width))
    assert window_len / 2.0 <= freq <= window_len * 2.0, (freq, window_len)


def test_criterion_6_trivial_cases_are_exact():
    """Block-diagonal inputs and quarter-turn rotations have exact outputs."""
    rng = np.random.default_rng(6)
    A = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    D = 0.3 * rng.standard_normal((2, 2))
    V = block_diag(A, D)
    J0 = block_diag(np.eye(2) + 0.1 * rng.standard_normal((2, 2)),
                    np.eye(2) + 0.1 * rng.standard_normal((2, 2)))
    p = SplitProblem(V=V, J0=J0, k1=2, k2=2, delta=0.05)
    c = derive_constants(p)
    n = c.n0 + 1
    xi = solve_xi(p, J0, n)
    eta = p.powers.avmn_u_dvn(solve_eta(p, invert(J0), n), n)
    assert op_norm(xi) == 0.0
    assert op_norm(eta) == 0.0
    AJ, B, C, DJ = split_blocks(J0, 2)
    Xn = AJ + B @ p.powers.dvn_u_avmn(xi, n)
    np.testing.assert_array_equal(Xn, AJ)
    _, _, Ci, Di = split_blocks(np.linalg.inv(J0), 2)
    Yn = np.linalg.inv(Ci @ eta + Di)
    np.testing.assert_allclose(Yn, DJ, rtol=1e-14, atol=1e-14)

    # quarter-turn rotation powers are exact integers times the modulus power
    blk = RotationBlock(2.0, 0.25)
    np.testing.assert_array_equal(blk.power(2), [[-4.0, 0.0], [0.0, -4.0]])
    np.testing.assert_array_equal(blk.power(4), [[16.0, 0.0], [0.0, 16.0]])
    np.testing.assert_array_equal(rotation_matrix(0.25), [[0.0, -1.0], [1.0, 0.0]])

    # diagonal model spectra reproduce the closed form exactly
    model = DiagonalModel(
        sc.BlockStructure((1, 1, 1)),
        (ScalarBlock(4.0), ScalarBlock(2.0), ScalarBlock(0.5)),
    )
    got = np.sort(np.linalg.eigvals(model.power(3)).real)[::-1]
    np.testing.assert_array_equal(got, [64.0, 8.0, 0.125])


def test_criterion_7_dual_eigensolvers_agree():
    """QR vs charpoly routes: 1e-9 relative agreement on 1000 matrices, d<=4."""
    rng = np.random.default_rng(42)
    accepted = 0
    while accepted < 1000:
        d = int(rng.integers(1, 5))
        M = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-1, 1)
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] <= 0 or sv[0] / sv[-1] >= 1e6:
            continue
        accepted += 1
        charpoly = ScaledSpectrum.from_values(eigenvalues_charpoly(M))
        assert match_scaled(charpoly, ScaledSpectrum.from_values(eigenvalues(M))) < 1e-9


def _cli_command_and_env():
    """Run the CLI through this interpreter, on the package under test.

    The ``spectral-cascade`` console script exists only after an install,
    so the child runs ``python -m spectral_cascade.cli`` instead, with the
    directory holding the imported package first on its ``PYTHONPATH``.
    """
    package_root = str(Path(sc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return [sys.executable, "-m", "spectral_cascade.cli"], env


def test_criterion_8_cli_roundtrip_and_corruption(tmp_path):
    """gen -> prove -> verify exits 0 on 10 seeds; one flipped bit exits 1."""
    cli, env = _cli_command_and_env()
    prove_path = None
    for seed in range(10):
        inst = tmp_path / f"inst{seed}.json"
        prove = tmp_path / f"prove{seed}.json"
        pattern = "1,2" if seed % 2 == 0 else "1,2,2"
        for cmd in (
            [*cli, "gen", "--structure", pattern,
             "--seed", str(seed), "--out", str(inst)],
            [*cli, "prove", "--instance", str(inst),
             "--count", "3", "--out", str(prove)],
            [*cli, "verify", "--artifact", str(prove)],
        ):
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, (cmd, proc.stderr)
        prove_path = prove

    # flip one mantissa bit of a stored matrix entry
    obj = json.loads(prove_path.read_text())
    v = obj["instance"]["L"]["data"][0][0]
    bits = struct.unpack("<Q", struct.pack("<d", v))[0] ^ (1 << 35)
    obj["instance"]["L"]["data"][0][0] = struct.unpack("<d", struct.pack("<Q", bits))[0]
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(obj))
    proc = subprocess.run(
        [*cli, "verify", "--artifact", str(corrupted)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
