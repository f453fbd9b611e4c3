import functools
import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_cascade as sc
from spectral_cascade import oracle
from spectral_cascade.errors import ConvergenceFailure
from spectral_cascade.linalg import eigenvalues
from spectral_cascade.oracle import (
    GAP_TOL,
    NUMPY_DIGIT_CAP,
    ScaledSpectrum,
    certified_spectrum,
    match_scaled,
    product_spectrum,
    spread_digits,
)

# one instance per block pattern, as in acceptance criterion 1
PATTERNS = [(1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 2), (2, 2, 2)]


def test_scaled_spectrum_roundtrip():
    vals = np.array([3.0, -1.5, 0.25 + 0.1j])
    s = ScaledSpectrum.from_values(vals)
    np.testing.assert_allclose(s.unit * np.exp(s.log_mod), vals, rtol=1e-14)
    assert np.allclose(np.abs(s.unit), 1.0)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
def test_match_scaled_is_a_min_sum_assignment(d, seed, noise):
    """The chosen pairing has the least cost sum over all permutations, and
    match_scaled reports its largest cost."""
    rng = np.random.default_rng(seed)
    pairs = int(rng.integers(0, d // 2 + 1))
    z = (rng.standard_normal(pairs) + 1j * rng.standard_normal(pairs)) * 10.0 ** rng.uniform(-3, 3, pairs)
    x = rng.standard_normal(d - 2 * pairs) * 10.0 ** rng.uniform(-3, 3, d - 2 * pairs)
    vals = np.concatenate([z, z.conj(), x])
    other = rng.permutation(vals) * (1 + noise * (rng.standard_normal(d) + 1j * rng.standard_normal(d)))
    a, b = ScaledSpectrum.from_values(vals), ScaledSpectrum.from_values(other)
    cost = oracle._match_cost(a, b)
    cols = oracle._min_sum_assignment(cost.tolist())
    assert sorted(cols) == list(range(d))
    chosen = [cost[i, j] for i, j in enumerate(cols)]
    least = min(sum(cost[i, p[i]] for i in range(d)) for p in itertools.permutations(range(d)))
    assert sum(chosen) == pytest.approx(least, rel=1e-12, abs=0.0)
    assert match_scaled(a, b) == max(chosen)


def test_min_sum_assignment_tie_rule():
    # a constant matrix gives the identity: each new row takes a free column
    assert oracle._min_sum_assignment([[1.0] * 3] * 3) == [0, 1, 2]
    # both [1, 2, 0] and [2, 0, 1] cost 2; row 1's path reaches columns 1
    # and 2 at equal reduced cost, and the lower index wins
    tied = [[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.0, 1.0, 2.0]]
    assert oracle._min_sum_assignment(tied) == [1, 2, 0]


def test_match_scaled_is_permutation_invariant():
    vals = np.array([1.0, 2.0, 3.0 + 1j, 3.0 - 1j, -1.5])
    a = ScaledSpectrum.from_values(vals)
    shuffled = vals[[3, 0, 4, 2, 1]]
    assert match_scaled(a, a) == 0.0
    assert match_scaled(a, ScaledSpectrum.from_values(shuffled)) == 0.0
    assert match_scaled(a, ScaledSpectrum.from_values(shuffled + 1e-8)) < 2e-8


def test_match_scaled_rejects_non_finite_costs():
    a = ScaledSpectrum.from_values([2.0, 1.0])
    bad = ScaledSpectrum(unit=a.unit, log_mod=np.array([math.nan, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        match_scaled(a, bad)
    with pytest.raises(ValueError, match="sizes"):
        match_scaled(a, ScaledSpectrum.from_values([1.0]))


def test_product_spectrum_matches_direct_eig(demo_instance):
    model = demo_instance.model
    L = demo_instance.L
    n = 12  # small enough for a literal dense product
    direct = eigenvalues(L @ model.power(n))
    got = product_spectrum(L, model, n)
    assert match_scaled(got, ScaledSpectrum.from_values(direct)) < 1e-10


@functools.lru_cache(maxsize=None)
def _criterion_1_case(i: int):
    """Instance and parameters of pattern i, on the criterion-1 seed."""
    spec = sc.generate_instance(PATTERNS[i], seed=1000 + i)
    return spec, sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)


def _mp_power(mp, model, n: int, center: float = 0.0):
    """T^n exp(-center) in the mpmath context mp."""
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
    return Tn


@functools.lru_cache(maxsize=None)
def _mp_eig_values(i: int, k: int, n: int):
    """(context, eigenvalues of L_k T^n) by mpmath's dense solver at spread + 60 digits."""
    spec, _ = _criterion_1_case(i)
    mp = mpmath.MPContext()
    mp.dps = int(spread_digits(spec.model, n)) + 60
    logs = n * spec.model.coordinate_log_moduli()
    center = float((logs.max() + logs.min()) / 2)
    M = mp.matrix(spec.L_n(k).tolist()) * _mp_power(mp, spec.model, n, center)
    vals = mp.eig(M, left=False, right=False)
    return mp, [v * mp.exp(center) for v in vals]


def _mp_eig_reference(i: int, k: int, n: int) -> ScaledSpectrum:
    mp, vals = _mp_eig_values(i, k, n)
    mods = [abs(v) for v in vals]
    return ScaledSpectrum(
        unit=np.array([complex(v / m) for v, m in zip(vals, mods)]),
        log_mod=np.array([float(mp.log(m)) for m in mods]),
    )


def _criterion_1_exponents(casc, k):
    ns = list(range(casc.n0, casc.n0 + 21))
    return ns + [1_000, 10_000] if k == casc.k0 else ns


def test_product_spectrum_mp_path_consistent():
    """The graded route against mp.eig over the criterion-1 sweep and large n."""
    for i, pattern in enumerate(PATTERNS):
        spec, casc = _criterion_1_case(i)
        for k in (casc.k0, casc.k0 + 5):
            L_k = spec.L_n(k)
            for n in _criterion_1_exponents(casc, k):
                got, _ = certified_spectrum(L_k, spec.model, n)
                ref = _mp_eig_reference(i, k, n)
                assert match_scaled(got, ref) <= 1e-10, (pattern, k, n)


def test_interval_coefficients_hold_the_characteristic_polynomial():
    """Each c_k interval holds the sum of principal k-minors of L T^n at spread + 60 digits."""
    _, iv = oracle._contexts()
    for i, pattern in enumerate(PATTERNS):
        spec, casc = _criterion_1_case(i)
        L = spec.L_n(casc.k0)
        for n in (casc.n0, 1_000):
            mp = mpmath.MPContext()
            mp.dps = int(spread_digits(spec.model, n)) + 60
            M = mp.matrix(L.tolist()) * _mp_power(mp, spec.model, n)
            coeffs = oracle._charpoly_coeffs(iv, L, spec.model, n)
            for k, c in enumerate(coeffs):
                ref = mp.fsum(mp.det(mp.matrix([[M[r, col] for col in S] for r in S])) if S else 1
                              for S in itertools.combinations(range(spec.model.d), k))
                low, high = (mp.make_mpf(x) for x in c._mpi_)
                assert low <= ref <= high, (pattern, n, k)
                assert high - low <= abs(ref) * mp.mpf(10) ** -30, (pattern, n, k)


def test_certified_disks_hold_the_reference_roots():
    """Soundness: every mp.eig eigenvalue lies in exactly one inclusion disk."""
    for i, pattern in enumerate(PATTERNS):
        spec, casc = _criterion_1_case(i)
        L_k = spec.L_n(casc.k0)
        for n in _criterion_1_exponents(casc, casc.k0):
            centres, radii, _ = oracle._inclusion_disks(L_k, spec.model, n)
            mp, vals = _mp_eig_values(i, casc.k0, n)
            disks = [(mp.mpc(z), mp.make_mpf(r._mpi_[1])) for z, r in zip(centres, radii)]
            for v in vals:
                holding = [abs(v - z) <= r for z, r in disks]
                assert sum(holding) == 1, (pattern, n, v)
            # the disks are tight: far inside the 1e-10 the sweep above allows
            assert all(r <= abs(z) * mp.mpf(10) ** -30 for z, r in disks), (pattern, n)


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
                ref, _ = certified_spectrum(spec.L, spec.model, n)
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
    """Unpolished seeds and a root found twice fail the inclusion certificate."""
    L, model, n = demo_instance.L, demo_instance.model, 120
    assert spread_digits(model, n) > NUMPY_DIGIT_CAP
    polish = oracle._polish

    monkeypatch.setattr(oracle, "_polish", lambda ctx, coeffs, roots: list(roots))
    with pytest.raises(ConvergenceFailure, match="not isolated"):
        product_spectrum(L, model, n)

    def twice(ctx, coeffs, roots):
        out = polish(ctx, coeffs, roots)
        return [out[0], out[0]] + out[2:]

    monkeypatch.setattr(oracle, "_polish", twice)
    with pytest.raises(ConvergenceFailure, match="not isolated"):
        certified_spectrum(L, model, n)


def _interval_poly(iv, roots):
    """Enclosures of [c_0, ..., c_d] for prod (x - r), with det(x - M) = sum (-1)^k c_k x^(d-k)."""
    coeffs = [iv.one]
    for r in roots:  # times (x - r): c_k += r c_(k-1)
        r = iv.mpc(*r) if isinstance(r, tuple) else iv.mpf(r)
        coeffs = [a + r * b for a, b in zip(coeffs + [iv.zero], [iv.zero] + coeffs)]
    return [c.real if hasattr(c, "imag") else c for c in coeffs]


def _certify_roots(roots, seeds):
    """The certificate on the interval polynomial prod (x - r), from polished seeds."""
    ctx, iv = oracle._contexts()
    coeffs = _interval_poly(iv, roots)
    mids = [ctx.make_mpf(c.mid._mpi_[0]) for c in coeffs]
    approx = oracle._polish(ctx, mids, [ctx.mpc(s) for s in seeds])
    return oracle._certify(iv, coeffs, approx)


def test_certificate_proves_distinct_real_roots():
    _, ok = _certify_roots(["1", "2", "3"], [0.9, 2.2, 3.1])
    assert ok
    # graded far beyond the float range, opposite signs
    _, ok = _certify_roots(["3e-500", "-2", "7e400"], ["2.5e-500", -1.5, "7.2e400"])
    assert ok
    # real roots of one modulus are isolated but not simple
    _, ok = _certify_roots(["-2", "2", "5"], [-2.1, 2.1, 4.9])
    assert not ok


def test_certificate_refuses_a_near_real_conjugate_pair():
    pair = [("3", "3e-12"), ("3", "-3e-12")]
    _, ok = _certify_roots(["1"] + pair, [1.1, 3 + 1e-11j, 3 - 1e-11j])
    assert not ok
    # the split-form test at GAP_TOL takes these imaginary parts for real and
    # rejects the pair only through its zero modulus gap
    approx = ScaledSpectrum.from_values(np.array([1.0, 3 + 3e-12j, 3 - 3e-12j]))
    assert np.all(np.abs(approx.unit.imag) <= GAP_TOL)
    assert approx.real_simple() == (False, 0.0)


def test_certificate_rejects_a_double_root():
    with pytest.raises(ConvergenceFailure):
        _certify_roots(["1", "2", "2"], [0.9, 1.9, 2.1])
    # centres 2 -+ t, t = 2^-66: Horner is exact, |W| = t^2 / 2t, so each disk
    # has radius t, narrow enough to pass the width limit, and the two touch
    ctx, iv = oracle._contexts()
    t = ctx.ldexp(1, -66)
    with pytest.raises(ConvergenceFailure, match="meet"):
        oracle._certify(iv, _interval_poly(iv, ["2", "2"]), [ctx.mpc(2 - t), ctx.mpc(2 + t)])


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
