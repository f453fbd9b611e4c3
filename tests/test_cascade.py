import csv
import dataclasses
import json
import math
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import spectral_cascade as sc
from spectral_cascade import cascade as cascade_module
from spectral_cascade import graph_transform, linalg, scenario, serialize
from spectral_cascade import model as model_module
from spectral_cascade.blocks import block_diag
from spectral_cascade.cascade import (
    cascade_decompose,
    choose_parameters,
    find_subsequence,
    prove_instance,
    stage_input,
)
from spectral_cascade.errors import (
    CertificateFailure,
    ConditionFailure,
    ConvergenceFailure,
    EpsilonTooLarge,
    SearchExhausted,
    SingularMatrix,
    StageFailure,
)
from spectral_cascade.graph_transform import dominated_split
from spectral_cascade.linalg import (
    eigenvalues,
    invert,
    op_norm,
    phase_mod1,
    rotation_matrix,
    singular_values_2x2,
)
from spectral_cascade.model import DiagonalModel, DiagonalPowers, RotationBlock, ScalarBlock
from spectral_cascade.oracle import (
    NUMPY_DIGIT_CAP,
    ScaledSpectrum,
    certified_spectrum,
    match_scaled,
    product_spectrum,
    spread_digits,
)
from spectral_cascade.verify import verify_artifact


def test_choose_parameters_orders_radii(demo_cascade):
    deltas = [st.problem.delta for st in demo_cascade.stages]
    assert all(d1 < d2 for d1, d2 in zip(deltas, deltas[1:]))
    assert deltas[-1] < demo_cascade.eps0
    betas = [st.constants.beta for st in demo_cascade.stages]
    # each stage's output tolerance fits inside the next stage's ball
    for j in range(len(deltas) - 1):
        r = op_norm(np.linalg.inv(demo_cascade.stages[j + 1].problem.J0))
        assert 2.0 * r * r * deltas[j] <= betas[j + 1]


def test_choose_parameters_rejects_bad_inputs(demo_instance):
    with pytest.raises(ValueError):
        choose_parameters(demo_instance.model, demo_instance.L, -1.0, law=demo_instance.law)
    with pytest.raises(ConditionFailure):
        choose_parameters(demo_instance.model, np.zeros((5, 5)), 1e-3, law=demo_instance.law)
    with pytest.raises(EpsilonTooLarge):
        choose_parameters(demo_instance.model, demo_instance.L, 0.5, law=demo_instance.law)


@pytest.mark.parametrize("eps0", [math.nan, math.inf, -math.inf])
def test_choose_parameters_rejects_non_finite_eps0(demo_instance, eps0):
    with pytest.raises(ValueError, match="eps0"):
        choose_parameters(demo_instance.model, demo_instance.L, eps0, law=demo_instance.law)


def _with_block(model, j, blk):
    """``model`` with its 0-based block j replaced by ``blk``."""
    blocks = list(model.diag_blocks)
    blocks[j] = blk
    return DiagonalModel(model.structure, blocks)


def test_parameter_memo_keys_every_input_by_its_bits():
    """Equal bits give the one memoized object; one ulp of any input, or
    theta = -0.0 against 0.0, gives an entry of its own."""
    spec = sc.generate_instance((1, 2, 2), seed=3)
    model, L, law = spec.model, spec.L, spec.law
    scalar, rotation = model.diag_blocks[:2]
    L_up = L.copy()
    L_up[1, 2] = np.nextafter(L[1, 2], math.inf)

    def up(x):
        return float(np.nextafter(x, math.inf))

    variants = {
        "L": (model, L_up, 1e-3, law),
        "eps0": (model, L, up(1e-3), law),
        "c": (model, L, 1e-3, dataclasses.replace(law, c=up(law.c))),
        "rho": (model, L, 1e-3, dataclasses.replace(law, rho=up(law.rho))),
        "value": (_with_block(model, 0, ScalarBlock(up(scalar.value))), L, 1e-3, law),
        "modulus": (_with_block(model, 1, RotationBlock(up(rotation.modulus), rotation.theta)),
                    L, 1e-3, law),
        "theta": (_with_block(model, 1, RotationBlock(rotation.modulus, up(rotation.theta))),
                  L, 1e-3, law),
        "theta 0.0": (_with_block(model, 1, RotationBlock(rotation.modulus, 0.0)), L, 1e-3, law),
        "theta -0.0": (_with_block(model, 1, RotationBlock(rotation.modulus, -0.0)), L, 1e-3, law),
    }
    cascade_module._parameters.clear()
    base = choose_parameters(model, L, 1e-3, law=law)
    equal = (DiagonalModel(model.structure, model.diag_blocks), L.copy(), 1e-3,
             dataclasses.replace(law))
    assert choose_parameters(*equal[:3], law=equal[3]) is base
    made = [base]
    for name, (m, L_v, eps0, law_v) in variants.items():
        casc = choose_parameters(m, L_v, eps0, law=law_v)
        assert casc not in made and len(cascade_module._parameters) == len(made) + 1, name
        assert choose_parameters(m, L_v.copy(), eps0, law=law_v) is casc, name
        made.append(casc)
    assert choose_parameters(model, L, 1e-3, law=law) is base
    cascade_module._parameters.clear()


def test_memoized_parameters_cannot_be_changed(demo_instance):
    """The memo hands one cascade to every caller: its fields, its limits, its
    windows, its stages' J0, whose corners the limits are, and their split
    problems' fields, V, J0^-1 and D(J0^-1) refuse a write; so do each split's
    powers, their relative log moduli and the factors of a sandwich they
    serve from their memo."""
    spec = demo_instance
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    with pytest.raises(dataclasses.FrozenInstanceError):
        casc.n0 = casc.k0
    with pytest.raises(dataclasses.FrozenInstanceError):
        casc.stages[0].j = 2
    with pytest.raises(TypeError):
        casc.windows[1] = casc.windows[2]
    with pytest.raises(ValueError, match="read-only"):
        casc.limits[1][0, 0] = 0.0
    for stage in casc.stages:  # each limit but the last is a corner of a stage's J0
        with pytest.raises(ValueError, match="read-only"):
            stage.problem.J0[0, 0] = 0.0
    for lam in casc.limits:  # nor through the array whose corner it is
        with pytest.raises(ValueError, match="read-only"):
            lam.base[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        casc.stages[0].problem.delta = 1.0
    for stage in casc.stages:  # nor the arrays that the split's checks read
        for array in (stage.problem.J0i, stage.problem.D0i, stage.problem.V):
            with pytest.raises(ValueError, match="read-only"):
                array[-1, -1] = 0.0
    powers = casc.stages[0].problem.powers
    with pytest.raises(dataclasses.FrozenInstanceError):
        powers.model = casc.stages[1].problem.model
    for stage in casc.stages:  # nor the arrays that the sandwich products read
        sandwich = stage.problem.powers.at(casc.n0)
        for array in (stage.problem.powers._rel, sandwich.left, sandwich.right,
                      sandwich.head_inv):
            with pytest.raises(ValueError, match="read-only"):
                array[-1] = 0.0
        assert stage.problem.powers.at(casc.n0) is sandwich
    assert choose_parameters(spec.model, spec.L, 1e-3, law=spec.law) is casc


@pytest.mark.parametrize("case", ["condition", "epsilon"])
def test_parameter_memo_stores_no_failure(demo_instance, case, monkeypatch):
    """An instance that fails raises on every call, and nothing is stored."""
    spec = demo_instance
    L, eps0, error = {"condition": (np.zeros((5, 5)), 1e-3, ConditionFailure),
                      "epsilon": (spec.L, 0.5, EpsilonTooLarge)}[case]
    derived = []
    derive = cascade_module._derive_parameters
    monkeypatch.setattr(cascade_module, "_derive_parameters",
                        lambda *args: derived.append(args) or derive(*args))
    cascade_module._parameters.clear()
    for _ in range(3):
        with pytest.raises(error):
            choose_parameters(spec.model, L, eps0, law=spec.law)
    assert len(derived) == 3 and len(cascade_module._parameters) == 0


def test_parameter_memo_holds_at_most_its_cap(demo_instance):
    """The memo keeps the PARAMETER_CAP most recently used cascades: the next
    distinct instance evicts the least recently used one."""
    spec, cap = demo_instance, cascade_module.PARAMETER_CAP
    eps = [1e-3 * (1.0 - j * 2.0 ** -20) for j in range(cap + 1)]

    def params(eps0):
        return choose_parameters(spec.model, spec.L, eps0, law=spec.law)

    cascade_module._parameters.clear()
    first = [params(e) for e in eps[:cap]]
    assert len(cascade_module._parameters) == cap
    assert params(eps[0]) is first[0]  # used again: kept, now the newest
    newest = params(eps[cap])  # the next distinct instance: eps[1]'s goes
    kept = list(cascade_module._parameters.values())
    assert len(kept) == cap and kept[-2:] == [first[0], newest]
    assert first[1] not in kept and all(c in kept for c in first[2:])
    assert params(eps[1]) is not first[1]
    cascade_module._parameters.clear()


def test_threads_decompose_from_one_memoized_cascade():
    """Threads that fetch one memoized cascade and decompose through its
    shared sandwich factors, alone and in stacks, get the bits of serial calls."""
    spec = sc.generate_instance((2, 2, 2), seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    starts = [casc.n0 + i for i in range(4)]  # more threads than a small box has cores

    def run(n):
        got = []
        for _ in range(10):
            shared = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
            got.append(_decomposition_bits(cascade_decompose(L_k, n, spec.model, shared)))
            ns = np.array([n, n + 100, n + 10_000])
            got += map(_decomposition_bits,
                       cascade_module._decompose(np.array([L_k] * 3), ns, spec.model, shared))
        return got

    serial = [run(n) for n in starts]
    barrier = threading.Barrier(len(starts))

    def call(n):
        barrier.wait(timeout=60)
        return run(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(starts)) as pool:
            threaded = list(pool.map(call, starts, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert choose_parameters(spec.model, spec.L, 1e-3, law=spec.law) is casc
    assert threaded == serial


def _certificate_bits(cert, report):
    """A split certificate's arrays and its check's values, bit for bit."""
    arrays = (cert.J, cert.xi, cert.eta_hat, cert.X, cert.Y_inv)
    values = sorted((k, v["value"] if isinstance(v, dict) else v) for k, v in report.items())
    return cert.n, [a.tobytes() for a in arrays], repr(values)


def test_threads_certify_and_verify_through_one_memoized_stage():
    """Threads that certify and verify through one memoized stage, each at its
    own exponents, more of them than the sandwich memo keeps, get the bits of
    serial calls."""
    spec = sc.generate_instance((2, 2, 2), seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    starts = [casc.n0 + i for i in range(4)]
    steps = range(0, 4 * (model_module._sandwiches.cap // 2), 4)  # 2 x the cap over 4 threads

    def run(n):
        got = []
        for _ in range(3):
            stage = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law).stages[0]
            for m in (n + step for step in steps):
                cert = sc.invariant_pair(stage.problem, L_k, m, stage.constants)
                got.append(_certificate_bits(cert, sc.verify_certificate(cert, stage.problem)))
        return got

    serial = [run(n) for n in starts]
    barrier = threading.Barrier(len(starts))

    def call(n):
        barrier.wait(timeout=60)
        return run(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(starts)) as pool:
            threaded = list(pool.map(call, starts, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(model_module._sandwiches) <= model_module._sandwiches.cap
    assert threaded == serial


def test_certify_then_verify_forms_each_unit_power_once(demo_instance, demo_cascade, monkeypatch):
    """invariant_pair and then verify_certificate at one (stage, n) call each
    rotation block's unit_power once: the verify reads the sandwich that the
    certify formed."""
    spec, casc = demo_instance, demo_cascade
    calls = []
    unit_power = RotationBlock.unit_power
    monkeypatch.setattr(RotationBlock, "unit_power",
                        lambda self, n: calls.append((self, n)) or unit_power(self, n))
    L_k = spec.L_n(casc.k0)
    model_module._sandwiches.clear()
    for j, stage in enumerate(casc.stages, start=1):
        n = casc.n0 + j
        J = stage_input(L_k, n, casc, j)
        calls.clear()
        cert = sc.invariant_pair(stage.problem, J, n, stage.constants)
        assert sc.verify_certificate(cert, stage.problem)["passed"]
        rotations = [b for b in stage.problem.model.diag_blocks if isinstance(b, RotationBlock)]
        assert calls == [(b, n) for b in rotations], j


def test_cascade_matches_oracle(demo_instance, demo_cascade):
    spec, casc = demo_instance, demo_cascade
    for n in (casc.n0, casc.n0 + 7):
        res = cascade_decompose(spec.L_n(casc.k0), n, spec.model, casc)
        assert res.limits_ok and res.domination_ok
        ref = product_spectrum(spec.L_n(casc.k0), spec.model, n)
        assert match_scaled(res.spectrum, ref) < 1e-8


def test_cascade_drifts_shrink_with_n(demo_instance, demo_cascade):
    spec, casc = demo_instance, demo_cascade
    early = cascade_decompose(spec.L, casc.n0, spec.model, casc)
    late = cascade_decompose(spec.L, casc.n0 + 30, spec.model, casc)
    assert max(lv.drift for lv in late.levels) < max(lv.drift for lv in early.levels)


def test_cascade_rejects_outside_ball(demo_instance, demo_cascade):
    far = demo_instance.L + np.ones((5, 5))
    with pytest.raises(StageFailure) as exc:
        cascade_decompose(far, demo_cascade.n0, demo_instance.model, demo_cascade)
    assert exc.value.stage == 1


def test_cascade_rejects_small_n(demo_instance, demo_cascade):
    with pytest.raises(StageFailure):
        cascade_decompose(demo_instance.L, 1, demo_instance.model, demo_cascade)


def test_certified_split_halves_carry_spectrum(demo_instance, demo_cascade):
    spec, casc = demo_instance, demo_cascade
    stage = casc.stages[0]
    n = casc.n0 + 1
    cert, _ = dominated_split(stage.problem, spec.L, stage.problem.powers.at(n))
    assert op_norm(cert.X - stage.problem.A0) < stage.problem.delta
    top = np.linalg.eigvals(cert.X @ spec.model.block(1).power(n))
    bottom = np.linalg.eigvals(np.linalg.inv(cert.Y_inv) @ spec.model.tail(2).power(n))
    assert np.abs(top).min() > np.abs(bottom).max()
    full = np.linalg.eigvals(spec.L @ spec.model.power(n))
    got = np.sort_complex(np.concatenate([top, bottom]))
    np.testing.assert_allclose(got, np.sort_complex(full), rtol=1e-8, atol=1e-12)


def test_certified_split_rejects_far_J(demo_instance, demo_cascade):
    stage = demo_cascade.stages[0]
    with pytest.raises(CertificateFailure) as exc:
        dominated_split(stage.problem, demo_instance.L + 0.5,
                        stage.problem.powers.at(demo_cascade.n0 + 1))
    assert exc.value.item in (3, 4)


def test_stage_input_chains(demo_instance, demo_cascade):
    spec, casc = demo_instance, demo_cascade
    n = casc.n0 + 2
    assert np.array_equal(stage_input(spec.L, n, casc, 1), spec.L)
    deeper = stage_input(spec.L, n, casc, 2)
    assert deeper.shape == (4, 4)
    assert op_norm(deeper - casc.stages[1].problem.J0) < casc.stages[1].constants.beta


def test_stage_input_admits_like_cascade_decompose(demo_instance, demo_cascade):
    """stage_input fails at the stage where cascade_decompose would."""
    spec, casc = demo_instance, demo_cascade
    first = casc.stages[0]
    below = first.constants.n0 - 1
    with pytest.raises(StageFailure) as exc:
        stage_input(spec.L_n(casc.k0), below, casc, 2)
    assert exc.value.stage == 1
    outside = spec.L_n(casc.k0 - 3)
    assert op_norm(outside - first.problem.J0) >= first.constants.beta
    with pytest.raises(StageFailure) as exc:
        stage_input(outside, casc.n0 + 7, casc, 2)
    assert exc.value.stage == 1


def test_near_miss_names_its_stage_once(demo_instance, demo_cascade):
    """A stage failure reads "stage 1: ...", not "stage 1: stage 1: ..."."""
    candidate, = cascade_module.examine_stack([3], demo_instance, demo_cascade)
    assert candidate.reason is not None and candidate.spectrum is None
    assert candidate.reason.startswith("stage 1: input outside the beta ball")
    assert candidate.reason.count("stage") == 1


def test_admitted_index_outside_its_windows_is_no_hit(demo_instance, demo_cascade):
    """At n0 every stage admits, but the limit phases lie outside their windows:
    the hit rule refuses the spectrum, not the limits."""
    spec, n = demo_instance, demo_cascade.n0
    result = cascade_decompose(spec.L_n(n), n, spec.model, demo_cascade)
    assert result.limits_ok and result.domination_ok
    windows = [(lv.window, spec.model.block(lv.j).theta) for lv in result.levels if lv.window]
    assert windows and all(abs(float(w.phase(theta, n))) >= w.eps_hat for w, theta in windows)
    candidate, = cascade_module.examine_stack([n], spec, demo_cascade)
    assert candidate.reason is not None
    assert cascade_module._csv_row(candidate, spec.model.structure)[-1] == 0
    assert (candidate.n, candidate.reason) == (n, "spectrum not real simple (min_gap 0)")


def test_drift_past_eps0_is_no_hit(demo_instance, demo_cascade):
    """The first (1,2,2) seed-3 hit, examined with eps0 below its largest level
    drift, violates the limits."""
    spec, n = demo_instance, 65
    result = cascade_decompose(spec.L_n(n), n, spec.model, demo_cascade)
    casc = dataclasses.replace(demo_cascade, eps0=max(lv.drift for lv in result.levels) / 2)
    candidate, = cascade_module.examine_stack([n], spec, casc)
    assert candidate.reason is not None
    assert cascade_module._csv_row(candidate, spec.model.structure)[-1] == 0
    assert candidate.reason.startswith("limits or domination violated (min_gap ")


@pytest.mark.parametrize("shift, certified, reason", [
    (0.1, True, "oracle disagrees"),
    (0.0, False, "oracle does not certify real simple"),
], ids=["moved", "uncertified"])
def test_oracle_refusal_is_no_hit(demo_instance, demo_cascade, monkeypatch, shift, certified,
                                  reason):
    """The first (1,2,2) seed-3 hit is refused when the oracle's spectrum moves
    by a factor e^0.1 in modulus, or when its inclusion disks certify nothing."""
    def oracle(L, model, n):
        spectrum, _ = certified_spectrum(L, model, n)
        return ScaledSpectrum(unit=spectrum.unit, log_mod=spectrum.log_mod + shift), certified

    monkeypatch.setattr(cascade_module, "certified_spectrum", oracle)
    candidate, = cascade_module.examine_stack([65], demo_instance, demo_cascade)
    assert candidate.reason is not None
    assert cascade_module._csv_row(candidate, demo_instance.model.structure)[-1] == 0
    assert candidate.reason.startswith(f"{reason} (mismatch ")


def test_polar_forms_and_window_phase(demo_instance, demo_cascade):
    spec, casc = demo_instance, demo_cascade
    n = casc.n0 + 3
    res = cascade_decompose(spec.L, n, spec.model, casc)
    rotation_levels = [lv for lv in res.levels if lv.X.shape == (2, 2)]
    assert [lv.j for lv in rotation_levels] == [2, 3]
    for level in rotation_levels:
        assert level.det > 0
        np.testing.assert_allclose(level.P, level.P.T, atol=1e-12)
        phase = float(level.window.phase(spec.model.block(level.j).theta, n))
        assert -0.5 <= phase < 0.5
        # the phase decides realness of that level's unit-part spectrum
        is_real = np.abs(level.spectrum.unit.imag).max() < 1e-9
        assert is_real == (abs(phase) < level.window.eps_hat)


def test_find_subsequence_hits_verify(demo_instance, demo_cascade, tmp_path):
    csv_path = tmp_path / "scan.csv"
    res = find_subsequence(demo_instance, demo_cascade, count=2, n_max=20_000,
                           csv_path=str(csv_path))
    assert len(res.hits) == 2
    for h in res.hits:
        assert h.oracle_checked and h.oracle_mismatch < 1e-6
        assert h.min_gap >= 1e-9
        ok, _ = h.spectrum.real_simple()
        assert ok
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n"
    assert rows[0][-1] == "accepted"
    assert len(rows) == res.examined + 1


def test_find_subsequence_exhausts(demo_instance, demo_cascade):
    with pytest.raises(SearchExhausted):
        find_subsequence(demo_instance, demo_cascade, count=3,
                         n_max=demo_cascade.n0 + 2)


@pytest.mark.parametrize("count", [0, -2])
def test_find_subsequence_rejects_count_below_one(demo_instance, demo_cascade, count):
    with pytest.raises(ValueError):
        find_subsequence(demo_instance, demo_cascade, count=count)


def test_prove_instance_end_to_end():
    spec = sc.generate_instance((1, 2), seed=99, a=2, b=1)
    report = prove_instance(spec, eps0=1e-3, count=3, n_max=50_000)
    assert len(report.search.hits) == 3
    for h in report.search.hits:
        assert h.exponent == 2 * h.n + 1


def test_unisolated_oracle_roots_are_a_near_miss(demo_instance, demo_cascade,
                                                 monkeypatch, tmp_path):
    """Inclusion disks that meet at one candidate refuse it; the search goes on."""
    refused = 95  # the second (1,2,2) seed-3 hit

    def certified(L, model, n):
        if n == refused:
            raise ConvergenceFailure("inclusion disks of roots 0 and 1 meet")
        return certified_spectrum(L, model, n)

    monkeypatch.setattr(cascade_module, "certified_spectrum", certified)
    csv_path = tmp_path / "scan.csv"
    res = find_subsequence(demo_instance, demo_cascade, count=3, csv_path=str(csv_path))
    assert [h.exponent for h in res.hits] == [65, 125, 162]
    misses = dict(res.near_misses)
    assert misses[refused].startswith("oracle does not isolate the roots")
    with open(csv_path) as fh:
        rows = {int(row["n"]): row["accepted"] for row in csv.DictReader(fh)}
    assert rows[refused] == "0"


# hit exponents of (1,2,2) seed 3, the same list the benchmark pins
DEMO_HITS = [65, 95, 125, 162, 375, 442, 472, 722, 752, 789, 1002, 1069, 1099,
             1349, 1416, 1446, 1696, 1726, 1976, 2043, 2073, 2323, 2353, 2670,
             2700, 2950, 2980, 3047, 3297, 3327, 3607, 3644, 3674, 3924, 3954,
             4021, 4234, 4271, 4301, 4331]


def test_search_through_graded_oracle_matches_reference(demo_instance, demo_cascade,
                                                        tmp_path):
    """Most of these hits are confirmed on the oracle's high-precision route.

    Their moduli leave the float range from n ~ 2000 on, so the scan log
    must carry them in split form.
    """
    csv_path = tmp_path / "scan.csv"
    res = find_subsequence(demo_instance, demo_cascade, count=40, csv_path=str(csv_path))
    assert [h.exponent for h in res.hits] == DEMO_HITS
    assert all(h.oracle_checked for h in res.hits)
    assert all(certified_spectrum(demo_instance.L_n(h.n), demo_instance.model, h.exponent)[1]
               for h in res.hits)
    assert res.examined == 40
    with open(csv_path) as fh:
        accepted = [row for row in csv.DictReader(fh) if row["accepted"] == "1"]
    assert [int(row["n"]) for row in accepted] == [h.n for h in res.hits]
    for row, hit in zip(accepted, res.hits):
        logged = serialize.spectrum_from_json(
            {part: [float(row[f"eig{i}_{part}"]) for i in range(demo_instance.model.d)]
             for part in ("unit_re", "unit_im", "log10_mod")})
        assert match_scaled(logged, hit.spectrum) < 1e-12


# hit exponents of (2,2,2) seed 3, the benchmark's second pinned list
HITS_222 = [1711, 2965, 4219, 4689, 5943, 7197, 9679, 10933, 12187, 12657]


def test_222_hits_are_pinned_and_certified():
    spec = sc.generate_instance((2, 2, 2), seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    res = find_subsequence(spec, casc, count=10)
    assert [h.exponent for h in res.hits] == HITS_222
    assert all(certified_spectrum(spec.L_n(h.n), spec.model, h.exponent)[1]
               for h in res.hits)


@pytest.mark.parametrize("pattern", [(1, 2, 2), (2, 2, 2)], ids=["122", "222"])
def test_decomposition_call_budget(pattern, monkeypatch):
    """Per decomposition: at most 6 op_norm, 8 invert and exactly 12 sandwich calls,
    and one eigenvalues call per 2x2 level (1x1 levels need none).

    Each of the four fixed-point solves starts from its first iterate, which is
    exactly the step from u = 0, so it makes one sandwich call fewer than a loop
    started at u = 0 (16 calls); the iterations must not get longer.
    """
    counts = {"op_norm": 0, "invert": 0, "sandwich": 0, "eigenvalues": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (cascade_module, graph_transform):
        for name in ("op_norm", "invert"):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name), name))
    for name in ("dvn_u_avmn", "avmn_u_dvn"):
        monkeypatch.setattr(DiagonalPowers, name, counted(getattr(DiagonalPowers, name), "sandwich"))
    monkeypatch.setattr(cascade_module, "eigenvalues",
                        counted(cascade_module.eigenvalues, "eigenvalues"))
    spec = sc.generate_instance(pattern, seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    for n in range(casc.n0, casc.n0 + 20):
        counts.update(dict.fromkeys(counts, 0))
        cascade_decompose(L_k, n, spec.model, casc)
        assert counts["op_norm"] <= 6 and counts["invert"] <= 8, (n, counts)
        assert counts["sandwich"] == 12, (n, counts)
        assert counts["eigenvalues"] == pattern.count(2), (n, counts)


# No SVD: the compared norms settle by their Frobenius bounds and every
# inverse by ||J||_F ||J^-1||_F (a 1x1 one is 1/x, without LAPACK)
LAPACK_BUDGET = {
    (1, 2, 2): {"svd": 0, "inv": 7, "eigvals": 2, "det": 0},
    (2, 2, 2): {"svd": 0, "inv": 8, "eigvals": 3, "det": 0},
}


@pytest.mark.parametrize("pattern", list(LAPACK_BUDGET), ids=["122", "222"])
def test_decomposition_lapack_budget(pattern, monkeypatch):
    """Per decomposition, at n0..n0+19 and n = 1e3, 1e4, 1e5, exactly the
    budgeted LAPACK calls, counted on linalg's gufunc bindings, which every
    LAPACK call of the package goes through."""
    counts = dict.fromkeys(LAPACK_BUDGET[pattern], 0)

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in counts:
        name = f"_{key}_gufunc"
        monkeypatch.setattr(linalg, name, counted(getattr(linalg, name), key))
    spec = sc.generate_instance(pattern, seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    for n in [*range(casc.n0, casc.n0 + 20), 1_000, 10_000, 100_000]:
        counts.update(dict.fromkeys(counts, 0))
        cascade_decompose(L_k, n, spec.model, casc)
        assert counts == LAPACK_BUDGET[pattern], n


# (2,2,2) seed 3 at eps0 = 1e-3, stages 1 and 2, as computed before the
# parameters reused the inverses of the genericity and hypothesis checks
CONSTANTS_222 = [
    graph_transform.TransformConstants(
        alpha=1.3840966852670262, beta=7.06315513734533e-08, gamma=2.7681933705340525,
        rho=0.7407407407407409, n1=9, n2=9, n3=53, n_dom=3, n0_plus=53, n0=53),
    graph_transform.TransformConstants(
        alpha=1.380712418733139, beta=8.430352476529918e-06, gamma=2.761424837466278,
        rho=0.7407407407407408, n1=9, n2=9, n3=37, n_dom=3, n0_plus=37, n0=37),
]


@pytest.mark.parametrize("pattern,calls", [((1, 2, 2), 15), ((2, 2, 2), 15)],
                         ids=["122", "222"])
def test_choose_parameters_inverts_each_matrix_once(pattern, calls, monkeypatch):
    """The checks' inverses of L, of the corners of L^-1 and of the hypothesis
    blocks are reused, not recomputed, and no limit is inverted for its drift
    cap (||lambda^-1|| = 1/sigma_min); the parameters stay bit for bit.  A
    second call is a memo hit: the same object, and no inverse."""
    spec = sc.generate_instance(pattern, seed=3)
    count = [0]

    def counted(J):
        count[0] += 1
        return invert(J)

    for mod in (cascade_module, graph_transform, scenario):
        monkeypatch.setattr(mod, "invert", counted)
    cascade_module._parameters.clear()
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    assert count[0] == calls
    assert choose_parameters(spec.model, spec.L, 1e-3, law=spec.law) is casc
    assert count[0] == calls
    Li = invert(spec.L)
    for stage in casc.stages:
        o = spec.model.structure.offsets[stage.j - 1]
        np.testing.assert_array_equal(stage.problem.J0, invert(Li[o:, o:]))
    if pattern == (2, 2, 2):
        assert [st.constants for st in casc.stages] == CONSTANTS_222
        assert (casc.n0, casc.k0) == (53, 21)


PATTERNS = [(1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 2), (2, 2, 2)]
PATTERN_IDS = ["".join(map(str, p)) for p in PATTERNS]
DRIFT_CAP_PATTERNS = [*PATTERNS, (2, 1, 2), (1, 2, 1, 2)]


@pytest.mark.parametrize("pattern", DRIFT_CAP_PATTERNS,
                         ids=["".join(map(str, p)) for p in DRIFT_CAP_PATTERNS])
def test_drift_cap_refuses_eps0_exactly_past_each_window(pattern):
    """choose_parameters raises EpsilonTooLarge exactly when some rotation
    level's search window is no wider than the reference drift cap
    eps0 ||lambda^-1|| / pi, on both sides of each level's boundary eps0, and
    the closed form eps0 / (pi sigma_min(lambda)) is within 4 eps of it."""
    for seed in range(4):
        spec = sc.generate_instance(pattern, seed=seed)
        casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
        inv_norms = {j: op_norm(invert(casc.limits[j - 1])) for j in casc.windows}
        for j, inv_norm in inv_norms.items():
            boundary = casc.windows[j].half_width * math.pi / inv_norm
            for eps0 in (boundary * (1 - 1e-9), boundary * (1 + 1e-9)):
                reference = eps0 * inv_norm / math.pi
                closed = eps0 / (math.pi * singular_values_2x2(casc.limits[j - 1])[1])
                assert abs(closed - reference) <= 4 * np.finfo(float).eps * reference
                refused = any(w.half_width <= eps0 * inv_norms[i] / math.pi
                              for i, w in casc.windows.items())
                if refused:
                    with pytest.raises(EpsilonTooLarge):
                        choose_parameters(spec.model, spec.L, eps0, law=spec.law)
                else:
                    choose_parameters(spec.model, spec.L, eps0, law=spec.law)


def _sweep(spec, model):
    """(cascade, L_k, n) at n0..n0+9, 1e3, 1e4 and 1e5, with L_k at k0."""
    casc = choose_parameters(model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    for n in [*range(casc.n0, casc.n0 + 10), 1_000, 10_000, 100_000]:
        yield casc, L_k, n


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_level_drift_and_polar_match_reference_routes(pattern, polar_reference):
    """Closed-form level drifts are the 2-norm; level polar forms match sqrtm."""
    for seed in range(4):
        spec = sc.generate_instance(pattern, seed=seed)
        for casc, L_k, n in _sweep(spec, spec.model):
            for lv in cascade_decompose(L_k, n, spec.model, casc).levels:
                drift = op_norm(lv.X - casc.limits[lv.j - 1])
                assert abs(lv.drift - drift) <= 1e-15 * drift, (seed, n, lv.j)
                if lv.window is not None:
                    polar_reference(lv.X, lv.P, lv.window.alpha, lv.window.eps_hat)


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_every_stage_admits_at_n0_plus(pattern):
    """The domination reserve never raises a stage's threshold above n0_plus,
    so admitting at n0 alone refuses nothing that n0_plus admitted."""
    for seed in range(4):
        spec = sc.generate_instance(pattern, seed=seed)
        casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
        for st in casc.stages:
            assert st.constants.n0 == st.constants.n0_plus, (seed, st.j)


def _former_sign(blk, n):
    return -1.0 if (blk.value < 0 and n % 2 == 1) else 1.0


def _former_matrix(blk):
    """A block's matrix T_j as written out before it was blk.power(1)."""
    if blk.size == 1:
        return np.array([[blk.value]])
    return blk.modulus * rotation_matrix(blk.theta)


def _former_scaled_power(model, n, center):
    """T^n exp(-center), assembled blockwise as the oracle's numpy route did
    before it read the blocks' unit powers."""
    out = np.zeros((model.d, model.d))
    pos = 0
    for blk in model.diag_blocks:
        mag = math.exp(n * math.log(blk.modulus) - center)
        if blk.size == 1:
            out[pos, pos] = _former_sign(blk, n) * mag
        else:
            phase = float(phase_mod1(blk.theta, n))
            out[pos : pos + 2, pos : pos + 2] = mag * rotation_matrix(phase)
        pos += blk.size
    return out


def _assert_same_spectrum(got, expected, where):
    np.testing.assert_array_equal(got.unit, expected.unit, err_msg=str(where))
    np.testing.assert_array_equal(got.log_mod, expected.log_mod, err_msg=str(where))


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_closed_forms_match_their_former_formulas(pattern):
    """Bit for bit: T = power(1), numpy-route oracle spectra and 1x1 level spectra.

    The generator draws positive scalar blocks only, so every instance with a
    scalar block also runs with those blocks negated, where the sign
    alternates with n.
    """
    for seed in range(4):
        spec = sc.generate_instance(pattern, seed=seed)
        models = [spec.model]
        if 1 in pattern:
            models.append(DiagonalModel(spec.model.structure, tuple(
                ScalarBlock(-b.value) if b.size == 1 else b for b in spec.model.diag_blocks)))
        for model in models:
            for blk in model.diag_blocks:
                np.testing.assert_array_equal(blk.power(1), _former_matrix(blk))
            np.testing.assert_array_equal(
                model.matrix(), block_diag(*map(_former_matrix, model.diag_blocks)))
            for casc, L_k, n in _sweep(spec, model):
                where = (seed, model.diag_blocks[0], n)
                if spread_digits(model, n) <= NUMPY_DIGIT_CAP:
                    logs = n * model.coordinate_log_moduli()
                    center = float((logs.max() + logs.min()) / 2.0)
                    M = L_k @ _former_scaled_power(model, n, center)
                    _assert_same_spectrum(
                        product_spectrum(L_k, model, n),
                        ScaledSpectrum.from_values(eigenvalues(M), log_scale=center), where)
                for lv in cascade_decompose(L_k, n, model, casc).levels:
                    blk = model.block(lv.j)
                    if blk.size == 1:
                        x = complex(lv.X[0, 0] * _former_sign(blk, n))
                        _assert_same_spectrum(lv.spectrum, ScaledSpectrum.from_values(
                            np.array([x]), log_scale=n * math.log(blk.modulus)), where)


@pytest.mark.parametrize("pattern", [(1, 2, 2), (2, 2, 2)], ids=["122", "222"])
def test_decomposition_forms_each_unit_power_once(pattern, monkeypatch):
    """One unit_power call per rotation block and decomposition, shared by every
    stage's sandwich factors and the level spectra, and bit for bit the factors
    each stage forms on its own; a failing stack's items decomposed alone
    included."""
    calls = []
    unit_power = RotationBlock.unit_power

    def counted(self, n):
        calls.append(n)
        return unit_power(self, n)

    spec = sc.generate_instance(pattern, seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    # derived past the memo, so each stage forms its factors on its own
    alone = cascade_module._derive_parameters(spec.model, spec.L, 1e-3, spec.law)
    assert alone is not casc
    L_k = spec.L_n(casc.k0)
    for n in range(1_000, 1_010):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(RotationBlock, "unit_power", counted)
            res = cascade_decompose(L_k, n, spec.model, casc)
        assert calls == [n] * pattern.count(2)
        for stage, level in zip(alone.stages, res.levels):
            cert, _ = dominated_split(stage.problem, stage_input(L_k, n, alone, stage.j),
                                     stage.problem.powers.at(n))
            np.testing.assert_array_equal(level.X, cert.X)
        np.testing.assert_array_equal(res.levels[-1].X, invert(cert.Y_inv))
        for level in res.levels:
            blk = spec.model.block(level.j)
            XU = level.X @ blk.unit_power(n)
            _assert_same_spectrum(level.spectrum, ScaledSpectrum.from_values(
                XU[0] if blk.size == 1 else eigenvalues(XU),
                log_scale=n * math.log(blk.modulus)), (pattern, n, level.j))
    # a stack that fails and is decomposed item by item reuses the stack's U_j(n)
    _, _, L_ks, ns = _stack_case(pattern, 3)
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(RotationBlock, "unit_power", counted)
        outcomes = cascade_module._decompose(L_ks, ns, spec.model, casc)
    assert any(isinstance(o, StageFailure) for o in outcomes)
    assert len(calls) == pattern.count(2) and all(c is ns for c in calls)


def _reference_candidates(instance, cascade, n_start, n_max):
    """The window candidates of one prefilter over all of [n_start, n_max]."""
    ns = np.arange(n_start, n_max + 1, dtype=np.int64)
    exps = instance.a * ns + instance.b
    mask = np.ones(len(ns), dtype=bool)
    for j, window in cascade.windows.items():
        mask &= np.abs(window.phase(instance.model.block(j).theta, exps)) < window.half_width
    return ns[mask]


def _reference_search(instance, cascade, count=3, n_max=100_000, csv_path=None):
    """The search with one prefilter over the whole range, as it ran before the
    ranges; the reference for the ranged search's results."""
    structure = instance.model.structure
    candidates = _reference_candidates(instance, cascade, max(cascade.n0, cascade.k0, 1), n_max)
    hits, near_misses = [], []
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"phase_{j}" for j in structure.rotation_indices]
                        + [f"eig{i}_{part}" for i in range(structure.d)
                           for part in ("unit_re", "unit_im", "log10_mod")]
                        + ["min_gap", "accepted"])
        for n in candidates:
            candidate, = cascade_module.examine_stack([int(n)], instance, cascade)
            writer.writerow(cascade_module._csv_row(candidate, structure))
            if candidate.reason is not None:
                near_misses.append((candidate.n, candidate.reason))
            else:
                hits.append(candidate)
                if len(hits) >= count:
                    break
    examined = len(hits) + len(near_misses)
    if len(hits) < count:
        raise SearchExhausted(
            f"found {len(hits)} of {count} exponents below {n_max} "
            f"({len(candidates)} window candidates, {examined} examined)",
            near_misses=near_misses[-20:])
    return cascade_module.SearchResult(hits=hits, examined=examined, near_misses=near_misses)


def _search_outcome(search, instance, cascade, csv_path, **kwargs):
    """Everything a search reports: hits, examined, near misses and CSV bytes,
    or the SearchExhausted message and near misses."""
    try:
        res = search(instance, cascade, csv_path=str(csv_path), **kwargs)
    except SearchExhausted as exc:
        outcome = ("exhausted", str(exc), exc.near_misses)
    else:
        hits = [(h.n, h.exponent, h.phases, h.spectrum.unit.tolist(),
                 h.spectrum.log_mod.tolist(), h.min_gap, h.oracle_mismatch) for h in res.hits]
        outcome = ("found", hits, res.examined, res.near_misses)
    return outcome, csv_path.read_bytes()


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_ranged_candidates_match_full_range_scan(pattern):
    """The same candidates over [n_start, 1e5], and at both ends of a range:
    each candidate c beyond the first range is tested as the last exponent of
    a range and as the first exponent of the last range."""
    span = cascade_module.SCAN_RANGE
    for seed in range(4):
        spec = sc.generate_instance(pattern, seed=seed)
        casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
        n_start = max(casc.n0, casc.k0, 1)
        reference = _reference_candidates(spec, casc, n_start, 100_000)
        assert list(cascade_module._window_candidates(spec, casc, n_start, 100_000)) == \
            reference.tolist(), seed
        for c in reference[reference >= n_start + span][:5].tolist():
            for lo, hi in ((c - span + 1, c + span), (c - span, c)):
                inside = reference[(reference >= lo) & (reference <= hi)].tolist()
                assert list(cascade_module._window_candidates(spec, casc, lo, hi)) == inside, \
                    (seed, lo, hi)


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_ranged_search_matches_full_range_scan(pattern, tmp_path):
    for seed in range(4):
        spec = sc.generate_instance(pattern, seed=seed)
        casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
        assert (_search_outcome(find_subsequence, spec, casc, tmp_path / "ranged.csv")
                == _search_outcome(_reference_search, spec, casc, tmp_path / "full.csv")), seed


@pytest.mark.parametrize("pattern, extra", [
    ((2, 2, 2), cascade_module.SCAN_RANGE - 1), ((2, 2, 2), cascade_module.SCAN_RANGE),
    ((2, 2, 2), 9_000), ((1,) * 12, 300)],
    ids=["one-range", "one-past", "three-ranges", "all-failing"])
def test_exhausted_ranged_search_counts_every_candidate(pattern, extra, tmp_path):
    """An exhausted search reports the candidates of all its ranges.  Twelve
    scalar blocks at seed 3 put every candidate outside the first beta ball,
    so each of the search's stacks fails and is decomposed item by item."""
    spec = sc.generate_instance(pattern, seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    n_max = max(casc.n0, casc.k0, 1) + extra
    ranged = _search_outcome(find_subsequence, spec, casc, tmp_path / "ranged.csv",
                             count=10, n_max=n_max)
    assert ranged[0][0] == "exhausted"
    assert ranged == _search_outcome(_reference_search, spec, casc, tmp_path / "full.csv",
                                     count=10, n_max=n_max)
    if len(pattern) == 12:
        assert all(reason.startswith("stage 1: input outside the beta ball")
                   for _, reason in ranged[0][2])
        rows = list(csv.reader(ranged[1].decode().splitlines()))[1:]
        assert len(rows) == extra + 1  # every exponent is a candidate, and a stage refused each
        assert all(row[1:] == [""] * (len(row) - 2) + ["0"] for row in rows)


def test_search_memory_is_bounded_by_one_range(demo_instance, demo_cascade):
    """A cap of 1e6 exponents costs no more memory than the hits need."""
    find_subsequence(demo_instance, demo_cascade, count=3, n_max=1_000)  # warm caches
    tracemalloc.start()
    try:
        res = find_subsequence(demo_instance, demo_cascade, count=3, n_max=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [h.exponent for h in res.hits] == DEMO_HITS[:3]
    assert peak < 2 * 2 ** 20, peak


def _decomposition_bits(outcome):
    """Every field of a decomposition, bit for bit, or its error's type, text and stage."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome), getattr(outcome, "stage", None)
    bits = [outcome.n, outcome.limits_ok, outcome.domination_ok, outcome.domination_margin]
    for lv in outcome.levels:
        bits += [lv.j, lv.X.shape, lv.X.tobytes(), lv.spectrum.unit.dtype,
                 lv.spectrum.unit.tobytes(), lv.spectrum.log_mod.tobytes(), lv.det, lv.drift,
                 None if lv.P is None else lv.P.tobytes(),
                 None if lv.window is None else (lv.window.alpha, lv.window.eps_hat)]
    return bits


def _alone(L_k, n, model, casc):
    try:
        return cascade_decompose(L_k, n, model, casc)
    except Exception as exc:  # the error is part of the outcome
        return exc


def _stack_case(pattern, seed):
    """A stack over n0 - 2 .. n0 + 20 and three far exponents, at k0 .. k0 + 3, with
    two items below a stage's threshold and item 4 outside the first beta ball."""
    spec = sc.generate_instance(pattern, seed=seed)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    ns = [*range(casc.n0 - 2, casc.n0 + 21), 1_000, 10_001, 100_000]
    L_ks = np.array([spec.L_n(casc.k0 + i % 4) for i in range(len(ns))])
    L_ks[4] += 2.0 * casc.stages[0].constants.beta
    return spec, casc, L_ks, np.array(ns)


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_stack_decomposes_bit_for_bit_like_one_at_a_time(pattern):
    """Every field of every item, and each failing item's error, text and stage
    alike, as cascade_decompose gives them one at a time."""
    for seed in range(4):
        spec, casc, L_ks, ns = _stack_case(pattern, seed)
        stacked = cascade_module._decompose(L_ks, ns, spec.model, casc)
        alone = [_alone(L, int(n), spec.model, casc) for L, n in zip(L_ks, ns)]
        assert [_decomposition_bits(o) for o in stacked] == \
            [_decomposition_bits(o) for o in alone], seed
        failed = [o for o in alone if isinstance(o, Exception)]
        assert len(failed) == 3 and all(isinstance(o, StageFailure) for o in failed), seed
        assert "outside the beta ball" in str(alone[4]) and "below threshold" in str(alone[0])


def test_exponents_changed_in_place_are_new_exponents(demo_instance, demo_cascade):
    """An exponent array changed in place between two decompositions gets the
    sandwich factors of its new values: bit for bit what a fresh copy of it
    got before."""
    spec, casc = demo_instance, demo_cascade
    L_ks = np.array([spec.L_n(casc.k0)] * 3)
    ns = np.arange(casc.n0, casc.n0 + 3)
    fresh = cascade_module._decompose(L_ks, ns + 3, spec.model, casc)
    cascade_module._decompose(L_ks, ns, spec.model, casc)
    ns += 3
    again = cascade_module._decompose(L_ks, ns, spec.model, casc)
    assert [_decomposition_bits(o) for o in again] == [_decomposition_bits(o) for o in fresh]


def test_stack_survives_a_failing_stacked_inverse(monkeypatch):
    """An item that makes the stacked LAPACK inverse fail goes through invert
    alone and keeps the error it raises alone; the other items are unchanged."""
    spec, casc, L_ks, ns = _stack_case((1, 2, 2), 3)
    L_ks[7] += 1e-13  # alone among the items
    poisoned = L_ks[7].copy()
    inv = linalg._inv_gufunc

    def failing(M, **kwargs):
        if any(np.array_equal(item, poisoned) for item in M.reshape((-1,) + M.shape[-2:])):
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(M, **kwargs)

    monkeypatch.setattr(linalg, "_inv_gufunc", failing)
    stacked = cascade_module._decompose(L_ks, ns, spec.model, casc)
    alone = [_alone(L, int(n), spec.model, casc) for L, n in zip(L_ks, ns)]
    assert isinstance(alone[7], np.linalg.LinAlgError)
    assert [_decomposition_bits(o) for o in stacked] == [_decomposition_bits(o) for o in alone]
    monkeypatch.setattr(linalg, "_inv_gufunc", inv)
    assert [_decomposition_bits(o) for i, o in enumerate(stacked) if i != 7] == \
        [_decomposition_bits(_alone(L, int(n), spec.model, casc))
         for i, (L, n) in enumerate(zip(L_ks, ns)) if i != 7]


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_stack_whose_stages_fail_is_decomposed_item_by_item(pattern, monkeypatch):
    """A stack whose every stacked split raises, a numeric error or any other,
    while each item's split passes alone, decomposes to every item's lone
    outcome bit for bit: the _stack_case stack and its items that pass alone."""
    split = cascade_module._split
    spec, casc, L_ks, ns = _stack_case(pattern, 3)
    alone = [_alone(L, int(n), spec.model, casc) for L, n in zip(L_ks, ns)]
    passing = [i for i, o in enumerate(alone) if not isinstance(o, Exception)]
    for error in (SingularMatrix, np.linalg.LinAlgError):
        def lone_only(stage, current, ns, units):
            if current.ndim == 3:
                raise error("a stacked split")
            return split(stage, current, ns, units)

        with monkeypatch.context() as m:
            m.setattr(cascade_module, "_split", lone_only)
            for keep in (list(range(len(ns))), passing):
                stacked = cascade_module._decompose(L_ks[keep], ns[keep], spec.model, casc)
                assert [_decomposition_bits(o) for o in stacked] == \
                    [_decomposition_bits(alone[i]) for i in keep], (error, len(keep))


def _bits(x):
    return struct.pack("<d", x) if isinstance(x, float) else x


def _candidate_bits(c, structure):
    """examine's Candidate and its scan-log row with every float as its bytes,
    so that NaN matches NaN."""
    spectrum = None if c.spectrum is None else (c.spectrum.unit.tobytes(),
                                                c.spectrum.log_mod.tobytes())
    return [c.n, c.exponent, {j: _bits(p) for j, p in c.phases.items()}, spectrum,
            _bits(c.min_gap), c.oracle_checked, _bits(c.oracle_mismatch), c.reason,
            [_bits(x) for x in cascade_module._csv_row(c, structure)]]


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_examine_stack_is_each_candidate_alone(pattern):
    """examine_stack over the _stack_case exponents, the items below n0 failing,
    yields for every candidate the Candidate that examine_stack([n]) yields:
    its fields and scan-log rows bit for bit (NaN phases alike), reasons
    exactly; each phase is the window's own phase of the item decomposed alone."""
    hits = 0
    for seed in range(4):
        spec, casc, _, ns = _stack_case(pattern, seed)
        structure = spec.model.structure
        rotations = structure.rotation_indices
        stacked = list(cascade_module.examine_stack(ns.tolist(), spec, casc))
        alone = [cascade_module.examine_stack([n], spec, casc)[0] for n in ns.tolist()]
        assert [_candidate_bits(c, structure) for c in stacked] == \
            [_candidate_bits(c, structure) for c in alone], seed
        assert all("below threshold" in c.reason for c in stacked[:2]), seed
        hits += sum(c.reason is None for c in stacked)
        for n, c in zip(ns.tolist()[2:], stacked[2:]):
            N = spec.a * n + spec.b
            levels = cascade_decompose(spec.L_n(n), N, spec.model, casc).levels
            want = [math.nan if levels[j - 1].window is None else
                    float(levels[j - 1].window.phase(spec.model.block(j).theta, N)) for j in rotations]
            row = cascade_module._csv_row(c, structure)
            assert [_bits(x) for x in row[1:1 + len(rotations)]] == [_bits(x) for x in want], \
                (seed, n)
    assert hits > 0


def test_stack_item_with_signed_zero_imaginary_parts_is_real_as_alone(monkeypatch):
    """An item whose eigenvalues come back with imaginary parts of -0.0, in a
    stack whose other items have complex ones, gets the real spectrum that
    eigenvalues gives it alone, bit for bit."""
    eigvals = linalg._eigvals_gufunc

    def signed_zeros(M, **kwargs):
        w = eigvals(M, **kwargs)
        w.imag[w.imag == 0.0] = -0.0
        return w

    monkeypatch.setattr(linalg, "_eigvals_gufunc", signed_zeros)
    spec, casc, L_ks, ns = _stack_case((1, 2, 2), 3)
    stacked = cascade_module._decompose(L_ks, ns, spec.model, casc)
    alone = [_alone(L, int(n), spec.model, casc) for L, n in zip(L_ks, ns)]
    assert [_decomposition_bits(o) for o in stacked] == [_decomposition_bits(o) for o in alone]
    units = [o.levels[1].spectrum.unit for o in stacked if not isinstance(o, Exception)]
    assert any(u.imag.any() for u in units) and any(not u.imag.any() for u in units)


@pytest.mark.parametrize("pattern, count", [((1, 2, 2), 40), ((2, 2, 2), 10)], ids=["122", "222"])
def test_stack_of_passing_items_runs_no_item_alone(pattern, count, monkeypatch):
    """The bench's seed-3 searches decompose their count candidates, all hits, as
    one stack whose stages never fall back to running an item alone."""
    split, alone = cascade_module._split, []

    def stacked_only(stage, current, ns, units):
        if current.ndim == 2:
            alone.append((stage.j, ns))
            raise AssertionError("an item of the stack ran alone")
        return split(stage, current, ns, units)

    monkeypatch.setattr(cascade_module, "_split", stacked_only)
    spec = sc.generate_instance(pattern, seed=3)
    search = prove_instance(spec, count=count).search
    reference = json.loads((Path(__file__).parents[1] / "bench" / "reference.json").read_text())
    assert [h.n for h in search.hits] == reference[f"{','.join(map(str, pattern))}@3"]
    assert search.near_misses == [] and alone == []


@pytest.mark.parametrize("pattern", list(LAPACK_BUDGET), ids=["122", "222"])
def test_stacked_decomposition_budget(pattern, monkeypatch):
    """A stack of 21 makes the LAPACK calls of one decomposition, and its
    sandwich calls stay within the most that one item needs alone."""
    counts = dict.fromkeys([*LAPACK_BUDGET[pattern], "sandwich"], 0)

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in LAPACK_BUDGET[pattern]:
        name = f"_{key}_gufunc"
        monkeypatch.setattr(linalg, name, counted(getattr(linalg, name), key))
    for name in ("dvn_u_avmn", "avmn_u_dvn"):
        monkeypatch.setattr(DiagonalPowers, name, counted(getattr(DiagonalPowers, name), "sandwich"))
    spec = sc.generate_instance(pattern, seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    ns = np.arange(casc.n0, casc.n0 + 21)
    most = 0
    for n in ns.tolist():
        counts.update(dict.fromkeys(counts, 0), sandwich=0)
        cascade_decompose(L_k, n, spec.model, casc)
        most = max(most, counts.pop("sandwich"))
        assert counts == LAPACK_BUDGET[pattern], n
    counts.update(dict.fromkeys(counts, 0), sandwich=0)
    results = cascade_module._decompose(np.array([L_k] * len(ns)), ns, spec.model, casc)
    assert all(isinstance(r, cascade_module.CascadeResult) for r in results)
    assert 0 < counts.pop("sandwich") <= most
    assert counts == LAPACK_BUDGET[pattern]


@pytest.mark.parametrize("pattern", list(LAPACK_BUDGET), ids=["122", "222"])
def test_stack_forms_spectra_and_phases_per_level(pattern, monkeypatch):
    """A stacked decomposition of 21 items makes one ScaledSpectrum.from_values
    call per level and one phase_mod1 call per rotation block, and
    examine_stack one phase call per rotation level, not one per item."""
    counts = dict.fromkeys(["from_values", "phase_mod1", "phase"], 0)

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    spec = sc.generate_instance(pattern, seed=3)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    ns = np.arange(casc.n0, casc.n0 + 21)
    monkeypatch.setattr(ScaledSpectrum, "from_values",
                        classmethod(counted(ScaledSpectrum.from_values.__func__, "from_values")))
    monkeypatch.setattr(model_module, "phase_mod1", counted(model_module.phase_mod1, "phase_mod1"))
    monkeypatch.setattr(cascade_module, "_signed_phase",
                        counted(cascade_module._signed_phase, "phase"))
    results = cascade_module._decompose(np.array([spec.L_n(casc.k0)] * len(ns)), ns,
                                        spec.model, casc)
    assert all(isinstance(r, cascade_module.CascadeResult) for r in results)
    rotations = pattern.count(2)
    assert counts == {"from_values": len(pattern), "phase_mod1": rotations, "phase": 0}
    counts.update(dict.fromkeys(counts, 0))
    candidates = list(cascade_module.examine_stack(ns.tolist(), spec, casc))
    assert len(candidates) == len(ns) and counts["phase"] == rotations


def _near_miss_setup(monkeypatch):
    """(1,1,2) seed 0 scanned from k0, below the first stage's threshold, with
    the oracle refusing every third exponent it is asked to certify."""
    spec = sc.generate_instance((1, 1, 2), seed=0)
    casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    casc = dataclasses.replace(casc, n0=casc.k0)  # a copy: the memo's cascade is frozen
    asked = []

    def certified(L, model, n):
        asked.append(n)
        if len(asked) % 3 == 0:
            raise ConvergenceFailure("inclusion disks of roots 0 and 1 meet")
        return certified_spectrum(L, model, n)

    monkeypatch.setattr(cascade_module, "certified_spectrum", certified)
    return spec, casc, asked


@pytest.mark.parametrize("case", ["122", "222", "near-misses"])
def test_search_decomposes_exactly_the_examined_candidates(case, monkeypatch, tmp_path):
    """The stacks hold each examined candidate once, in order, and none past the
    count-th hit; hits, examined, near misses and CSV bytes are those of the
    search that decomposes one candidate at a time."""
    if case == "near-misses":
        spec, casc, asked = _near_miss_setup(monkeypatch)
        count = 12
    else:
        pattern, count = {"122": ((1, 2, 2), 40), "222": ((2, 2, 2), 10)}[case]
        spec = sc.generate_instance(pattern, seed=3)
        casc = choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    stacks = []
    decompose = cascade_module._decompose

    def recorded(L_ks, ns, model, cascade):
        stacks.append(np.atleast_1d(ns).tolist())
        return decompose(L_ks, ns, model, cascade)

    with monkeypatch.context() as m:
        m.setattr(cascade_module, "_decompose", recorded)
        outcome, csv_bytes = _search_outcome(find_subsequence, spec, casc, tmp_path / "s.csv",
                                             count=count)
    if case == "near-misses":
        asked.clear()
    assert (outcome, csv_bytes) == _search_outcome(_reference_search, spec, casc,
                                                   tmp_path / "r.csv", count=count)
    _, hits, examined, near_misses = outcome
    decomposed = [N for stack in stacks for N in stack]
    with (tmp_path / "s.csv").open() as f:
        rows = [int(row["n"]) for row in csv.DictReader(f)]
    assert len(decomposed) == examined == len(rows)
    assert decomposed == [spec.a * n + spec.b for n in rows]
    assert decomposed[-1] == hits[-1][1]
    if case == "near-misses":
        assert len(stacks) > 2 and max(map(len, stacks)) > 1
        assert any(reason.startswith("stage") for _, reason in near_misses)
        assert any(reason.startswith("oracle does not isolate") for _, reason in near_misses)


def test_scan_log_rows_are_formed_only_for_a_csv(demo_instance, monkeypatch, tmp_path):
    """examine forms no scan-log row: verify of a prove report and a search
    without csv_path call _csv_row never, a search with one once per examined
    index, near misses included, in the order the log holds them."""
    spec = demo_instance
    calls = []
    csv_row = cascade_module._csv_row

    def counted(candidate, structure):
        calls.append(candidate.n)
        return csv_row(candidate, structure)

    monkeypatch.setattr(cascade_module, "_csv_row", counted)
    report = prove_instance(spec, count=3)
    assert report.search.examined == 3 and calls == []
    assert verify_artifact(serialize.prove_report_to_json(report, 1e-3))["passed"]
    assert calls == []
    spec, casc, _ = _near_miss_setup(monkeypatch)
    res = find_subsequence(spec, casc, count=12)
    assert len(res.near_misses) > 0 and calls == []
    res = find_subsequence(spec, casc, count=12, csv_path=str(tmp_path / "scan.csv"))
    with (tmp_path / "scan.csv").open() as f:
        logged = [int(row["n"]) for row in csv.DictReader(f)]
    assert len(calls) == res.examined and calls == logged
