import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import spectral_cascade as sc
from spectral_cascade import oracle
from spectral_cascade.errors import ConvergenceFailure, PowerOverflow
from spectral_cascade.linalg import eigenvalues, match_spectra
from spectral_cascade.oracle import (
    NUMPY_DIGIT_CAP,
    ScaledSpectrum,
    _graded_spectrum,
    match_scaled,
    product_spectrum,
    spread_digits,
)

# one instance per block pattern, as in acceptance criterion 1
PATTERNS = [(1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 2), (2, 2, 2)]


def test_scaled_spectrum_roundtrip():
    vals = np.array([3.0, -1.5, 0.25 + 0.1j])
    s = ScaledSpectrum.from_values(vals)
    np.testing.assert_allclose(s.values(), vals, rtol=1e-14)
    assert np.allclose(np.abs(s.unit), 1.0)


def test_scaled_spectrum_overflow_guard():
    s = ScaledSpectrum(unit=np.array([1.0 + 0j]), log_mod=np.array([800.0]))
    with pytest.raises(PowerOverflow):
        s.values()


def test_real_simple_in_log_space():
    # moduli separated by a factor e at enormous scale
    s = ScaledSpectrum(unit=np.array([1.0, -1.0], dtype=complex),
                       log_mod=np.array([5000.0, 4999.0]))
    ok, gap = s.real_simple()
    assert ok
    assert gap == pytest.approx(1 - math.exp(-1.0))
    bad = ScaledSpectrum(unit=np.array([1.0, 1.0], dtype=complex),
                         log_mod=np.array([5000.0, 5000.0]))
    assert not bad.real_simple()[0]


def test_match_scaled_agrees_with_dense_matching(rng):
    vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = ScaledSpectrum.from_values(vals)
    b = ScaledSpectrum.from_values(vals[::-1] * (1 + 1e-9))
    assert match_scaled(a, b) == pytest.approx(
        match_spectra(vals, vals[::-1] * (1 + 1e-9)), rel=1e-6
    )
    assert match_scaled(a, a) == 0.0


def test_product_spectrum_matches_direct_eig(demo_instance):
    model = demo_instance.model
    L = demo_instance.L
    n = 12  # small enough for a literal dense product
    direct = eigenvalues(L @ model.power(n))
    got = product_spectrum(L, model, n)
    assert match_spectra(got.values(), direct) < 1e-10


def _mp_eig_reference(L, model, n) -> ScaledSpectrum:
    """Spectrum of L T^n by mpmath's dense eigensolver at spread + 30 digits."""
    mp = mpmath.MPContext()
    mp.dps = int(spread_digits(model, n)) + 30
    logs = n * model.coordinate_log_moduli()
    center = float((logs.max() + logs.min()) / 2)
    Tn = mp.zeros(model.d, model.d)
    pos = 0
    for blk in model.diag_blocks:
        mag = mp.exp(n * mp.log(blk.modulus) - center)
        if blk.size == 1:
            Tn[pos, pos] = -mag if (blk.value < 0 and n % 2 == 1) else mag
        else:
            turns = Fraction(blk.theta) * n % 1
            c = mp.cospi(2 * mp.mpf(turns.numerator) / turns.denominator)
            s = mp.sinpi(2 * mp.mpf(turns.numerator) / turns.denominator)
            Tn[pos, pos], Tn[pos, pos + 1] = mag * c, -mag * s
            Tn[pos + 1, pos], Tn[pos + 1, pos + 1] = mag * s, mag * c
        pos += blk.size
    vals = mp.eig(mp.matrix(L.tolist()) * Tn, left=False, right=False)
    mods = [abs(v) for v in vals]
    return ScaledSpectrum(
        unit=np.array([complex(v / m) for v, m in zip(vals, mods)]),
        log_mod=np.array([float(mp.log(m)) + center for m in mods]),
    )


def test_product_spectrum_mp_path_consistent():
    """The graded route against mp.eig over the criterion-1 sweep and large n."""
    for i, pattern in enumerate(PATTERNS):
        spec = sc.generate_instance(pattern, seed=1000 + i)
        casc = sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
        for k in (casc.k0, casc.k0 + 5):
            L_k = spec.L_n(k)
            ns = list(range(casc.n0, casc.n0 + 21))
            if k == casc.k0:
                ns += [1_000, 10_000]
            for n in ns:
                got = _graded_spectrum(L_k, spec.model, n)
                ref = _mp_eig_reference(L_k, spec.model, n)
                assert match_scaled(got, ref) <= 1e-10, (pattern, k, n)


def test_numpy_route_agrees_with_graded_route_up_to_the_cap():
    # worst measured up to 20 digits: 1.0e-11; from ~28 digits on, (1,1,2)
    # and (2,2) reach 1e-3
    for pattern in PATTERNS:
        for seed in range(4):
            spec = sc.generate_instance(pattern, seed=seed)
            per_n = spread_digits(spec.model, 1)
            top = int(NUMPY_DIGIT_CAP / per_n)
            assert spread_digits(spec.model, top) <= NUMPY_DIGIT_CAP
            for n in {top, *range(int(6 / per_n), top, int(2 / per_n))}:
                got = product_spectrum(spec.L, spec.model, n)
                ref = _graded_spectrum(spec.L, spec.model, n)
                assert match_scaled(got, ref) <= 1e-9, (pattern, seed, n)


def test_product_spectrum_beyond_the_old_digit_cap():
    spec = sc.generate_instance((2, 2, 2), seed=3)
    casc = sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    n = 200_000
    assert spread_digits(spec.model, n) > 50_000
    L_n = spec.L_n(n)
    ref = product_spectrum(L_n, spec.model, n)
    res = sc.cascade_decompose(L_n, n, spec.model, casc)
    assert match_scaled(res.spectrum, ref) < 1e-6


def test_graded_route_checks_raise(demo_instance, monkeypatch):
    L, model, n = demo_instance.L, demo_instance.model, 120
    assert spread_digits(model, n) > NUMPY_DIGIT_CAP
    polish = oracle._polish

    # seeds left unpolished fail the residual check
    monkeypatch.setattr(oracle, "_polish", lambda ctx, coeffs, roots: list(roots))
    with pytest.raises(ConvergenceFailure, match="residual"):
        product_spectrum(L, model, n)

    # a root found twice (and another lost) fails the distinctness check
    def twice(ctx, coeffs, roots):
        out = polish(ctx, coeffs, roots)
        return [out[0], out[0]] + out[2:]

    monkeypatch.setattr(oracle, "_polish", twice)
    with pytest.raises(ConvergenceFailure, match="coincide"):
        product_spectrum(L, model, n)
    monkeypatch.setattr(oracle, "_polish", polish)

    # a rerun that solves a different polynomial fails the agreement check
    charpoly = oracle._charpoly_coeffs

    def skewed(ctx, L, model, n):
        coeffs = charpoly(ctx, L, model, n)
        if ctx.dps == oracle.CHECK_DIGITS:
            coeffs[-1] *= 1 + ctx.mpf(10) ** -9
        return coeffs

    monkeypatch.setattr(oracle, "_charpoly_coeffs", skewed)
    with pytest.raises(ConvergenceFailure, match="disagree"):
        product_spectrum(L, model, n)


def test_product_spectrum_is_thread_safe(demo_instance):
    """Concurrent calls on the graded route leave each other and mpmath alone."""
    L, model = demo_instance.L, demo_instance.model
    ns = (1416, 2950, 3924, 4301)  # more threads than a small box has cores
    assert all(spread_digits(model, n) > NUMPY_DIGIT_CAP for n in ns)
    dps = mpmath.mp.dps
    serial = [product_spectrum(L, model, n) for n in ns]
    barrier = threading.Barrier(len(ns))

    def call(n):
        barrier.wait(timeout=60)
        return product_spectrum(L, model, n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(ns)) as pool:
            threaded = list(pool.map(call, ns, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a.unit, b.unit)
        np.testing.assert_array_equal(a.log_mod, b.log_mod)
    assert mpmath.mp.dps == dps


def test_spread_digits_linear_in_n(demo_instance):
    model = demo_instance.model
    assert spread_digits(model, 20) == pytest.approx(2 * spread_digits(model, 10))
