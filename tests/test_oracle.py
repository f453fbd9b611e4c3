import functools
import itertools
import json
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spectral_cascade as sc
from spectral_cascade import minors, oracle
from spectral_cascade.errors import ConvergenceFailure
from spectral_cascade.linalg import eigenvalues
from spectral_cascade.model import DiagonalModel, ScalarBlock
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


def test_from_values_without_zeros_matches_the_masked_form(rng):
    """With no zero modulus, from_values skips its masks; the arrays stay the
    masked form's bit for bit, tiny, huge and NaN moduli included."""
    def masked(values, log_scale):
        values = np.asarray(values, dtype=complex)
        mods = np.abs(values)
        unit = np.where(mods > 0, values / np.maximum(mods, 1e-300), 0.0)
        log_mod = np.where(mods > 0, np.log(np.maximum(mods, 1e-300)) + log_scale, -np.inf)
        return unit, np.asarray(log_mod, dtype=float)

    cases = [rng.standard_normal(k) * 10.0 ** rng.uniform(-300, 300, k) for k in range(1, 7)]
    cases += [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in range(1, 7)]
    cases += [np.array([1e-310, 5e-324, -2e-300]), np.array([1e308, -1e308 + 1e308j]),
              np.array([0.0, 2.0]), np.array([math.nan, 1.0]), np.array([], dtype=complex)]
    for values, log_scale in itertools.product(cases, (0.0, -731.25, 1e3)):
        with np.errstate(invalid="ignore"):  # NaN / NaN
            got = ScaledSpectrum.from_values(values, log_scale=log_scale)
            unit, log_mod = masked(values, log_scale)
        assert got.unit.dtype == unit.dtype and got.unit.tobytes() == unit.tobytes()
        assert got.log_mod.dtype == log_mod.dtype and got.log_mod.tobytes() == log_mod.tobytes()


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


def _mp_power(mp, model, n: int, center: float = 0.0, unit: bool = False):
    """T^n exp(-center) in the mpmath context mp; with ``unit``, only its
    rotations and signs R, where T^n = R D with D diagonal positive."""
    Tn = mp.zeros(model.d, model.d)
    pos = 0
    for blk in model.diag_blocks:
        mag = mp.mpf(1) if unit else mp.exp(n * mp.log(blk.modulus) - center)
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


def _negated_scalars(model):
    """The model with every scalar block negated: its sign alternates with n."""
    return DiagonalModel(model.structure, tuple(
        ScalarBlock(-b.value) if b.size == 1 else b for b in model.diag_blocks))


def _coefficient_cases():
    """(pattern, L, model, exponents): the criterion-1 instances at k0, also
    with their scalar blocks negated, and (1,)*6 at seed 3; each at an odd
    and an even exponent near n0 and near 1,000."""
    for i, pattern in enumerate(PATTERNS):
        spec, casc = _criterion_1_case(i)
        models = [spec.model] + ([_negated_scalars(spec.model)] if 1 in pattern else [])
        for model in models:
            yield pattern, spec.L_n(casc.k0), model, (casc.n0, casc.n0 + 1, 1_000, 1_001)
    spec = sc.generate_instance((1,) * 6, seed=3)
    for model in (spec.model, _negated_scalars(spec.model)):
        yield (1,) * 6, spec.L, model, (40, 41, 1_000, 1_001)


def test_interval_coefficients_hold_the_characteristic_polynomial():
    """Each c_k ball holds the sum of principal k-minors of L T^n at spread + 60 digits."""
    checked = set()
    for pattern, L, model, exponents in _coefficient_cases():
        for n in exponents:
            mp = mpmath.MPContext()
            mp.dps = int(spread_digits(model, n)) + 60
            M = mp.matrix(L.tolist()) * _mp_power(mp, model, n)
            coeffs = oracle._charpoly_coeffs(L, model, n)
            for k, (x, _, rad, e) in enumerate(coeffs):
                ref = mp.fsum(mp.det(mp.matrix([[M[r, col] for col in S] for r in S])) if S else 1
                              for S in itertools.combinations(range(model.d), k))
                low, high = mp.ldexp(x - rad, e), mp.ldexp(x + rad, e)
                assert low <= ref <= high, (pattern, model.diag_blocks[0], n, k)
                assert high - low <= abs(ref) * mp.mpf(10) ** -30, (pattern, n, k)
            checked.add((pattern, any(b.size == 1 and b.value < 0 for b in model.diag_blocks),
                         n % 2))
    # every pattern with a scalar block ran negated at both parities
    assert {(p, True, parity) for p in PATTERNS + [(1,) * 6] if 1 in p for parity in (0, 1)} <= checked


def _moduli():
    """The block moduli of every pattern at seeds 0-3, of (1,)*6 and of the
    criterion-1 instances."""
    moduli = {blk.modulus for pattern in PATTERNS + [(1,) * 6] for seed in range(4)
              for blk in sc.generate_instance(pattern, seed=seed).model.diag_blocks}
    return sorted(moduli | {blk.modulus for i in range(len(PATTERNS))
                            for blk in _criterion_1_case(i)[0].model.diag_blocks})


def test_weight_balls_hold_the_powers_of_every_modulus():
    """Each weight ball holds modulus^n at 400 bits, within 2^-130 relative."""
    mp = mpmath.MPContext()
    mp.prec = 400
    for modulus in _moduli():
        for n in (1, 2, 3, 65, 4331, 2 ** 26 - 1):
            x, y, r, e = oracle._weight(modulus, n)
            value = mp.mpf(modulus) ** n
            low, high = mp.ldexp(x - r, e), mp.ldexp(x + r, e)
            assert y == 0 and low <= value <= high, (modulus, n)
            assert high - low <= value * mp.ldexp(1, -130), (modulus, n)


def test_power_bounds_hold_the_exact_power():
    """Before rounding, lo 2^e <= modulus^n <= hi 2^e in exact integers
    (modulus^n = m^n / den^n, den a power of two), and the bounds lie within
    a relative n 2^(4 - wp) of each other, wp = _PREC + bits(n) + 8."""
    for modulus in _moduli():
        m, den = modulus.as_integer_ratio()
        for n in (1, 2, 3, 65, 4331, 20_001, 2 ** 26 - 1):
            lo, hi, e = oracle._power_bounds(modulus, n)
            wp = oracle._PREC + n.bit_length() + 8
            assert 0 < lo <= hi and (hi - lo) << (wp - 4) <= n * lo, (modulus, n)
            if n <= 20_001:  # lo 2^g <= m^n <= hi 2^g, g = e + bits of den^n
                power, g = m ** n, e + n * (den.bit_length() - 1)
                if g >= 0:
                    assert lo << g <= power <= hi << g, (modulus, n)
                else:
                    assert lo <= power << -g <= hi, (modulus, n)


def test_key_minor_sums_hold_the_400_bit_reference(monkeypatch):
    """Before rounding, each formed key's exact ball [x - r, x + r] 2^e holds
    the sum of det((L R)_SS) over the key's subsets S at 400 bits, R the
    rotations and signs of T^n = R D."""
    formed = []
    minor_sum = oracle._minor_sum

    def recording(table, key, *rest):
        formed.append((key, minor_sum(table, key, *rest)))
        return formed[-1][1]

    monkeypatch.setattr(oracle, "_minor_sum", recording)
    mp = mpmath.MPContext()
    mp.prec = 400
    cut_in_half = 0
    for pattern, L, model, exponents in _coefficient_cases():
        owner = [b for b, blk in enumerate(model.diag_blocks) for _ in range(blk.size)]
        subsets = {}
        for k in range(1, model.d + 1):
            for S in itertools.combinations(range(model.d), k):
                subsets.setdefault(tuple(owner[i] for i in S), []).append(S)
        for n in exponents:
            formed.clear()
            oracle._charpoly_coeffs(L, model, n)
            M = mp.matrix(L.tolist()) * _mp_power(mp, model, n, unit=True)
            for key, (x, y, r, e) in formed:
                dets, slack = [], 0
                for S in subsets[key]:
                    sub = mp.matrix([[M[i, j] for j in S] for i in S])
                    dets.append(mp.det(sub))
                    slack += mp.fprod(mp.norm(sub[i, :]) for i in range(len(S)))  # Hadamard
                ref, slack = mp.fsum(dets), mp.ldexp(slack, -380)
                assert y == 0, (pattern, n, key)
                assert mp.ldexp(x - r, e) - slack <= ref <= mp.ldexp(x + r, e) + slack, \
                    (pattern, model.diag_blocks[0], n, key)
                cut_in_half += any(model.diag_blocks[b].size == 2 and key.count(b) == 1
                                   for b in key)
    assert cut_in_half > 100  # keys whose ball has a phase radius


def _interval_cos_sin(turns: Fraction) -> tuple:
    """The former phase enclosure: libmp.mpi_cos_sin over an interval of
    2 pi turns built from a pi enclosure, at _PREC + 8 bits."""
    wp = oracle._PREC + 8
    p, q = mpmath.libmp.from_int(2 * turns.numerator), mpmath.libmp.from_int(turns.denominator)
    angle = tuple(mpmath.libmp.mpf_div(mpmath.libmp.mpf_mul(mpmath.libmp.mpf_pi(wp, rnd), p),
                                       q, wp, rnd) for rnd in ("f", "c"))
    return tuple((int(mpmath.libmp.to_int(mpmath.libmp.mpf_shift(a, oracle._PREC), "f")),
                  int(mpmath.libmp.to_int(mpmath.libmp.mpf_shift(b, oracle._PREC), "c")))
                 for a, b in mpmath.libmp.mpi_cos_sin(angle, wp))


def _phase_turns() -> list:
    """0, 1/8, the quarter turns and their 2^-60 neighbourhoods, float phases
    n theta mod 1 and 128-bit turns: 1,000 and more dyadic turns."""
    quarters = [Fraction(k, 4) for k in range(4)]
    turns = quarters + [Fraction(1, 8), Fraction(3, 8)]
    for t in quarters:
        for k in (1, 3, 2 ** 6, 2 ** 40, 2 ** 67):
            turns += [(t + Fraction(k, 2 ** 127)) % 1, (t - Fraction(k, 2 ** 127)) % 1]
    rng = np.random.default_rng(7)
    for p in (2, 3, 5, 7):
        theta = Fraction(math.sqrt(p) % 1.0)
        turns += [theta * int(n) % 1 for n in rng.integers(0, 2 ** 26, size=150)]
    bits = random.Random(7)
    turns += [Fraction(bits.getrandbits(128), 2 ** 128) for _ in range(150)]
    turns += [Fraction(k, 2 ** 12) for k in range(0, 2 ** 12, 13)]
    return turns


def test_phase_enclosures_hold_400_bit_values():
    """One evaluation at the exact turn, widened outward, holds cos and sin
    of 2 pi turns within two units of 2^-_PREC; so does the interval route."""
    turns = _phase_turns()
    assert len(turns) >= 1_000
    mp = mpmath.MPContext()
    mp.prec = 400
    unit = mp.ldexp(1, oracle._PREC)
    for t in turns:
        x = mp.mpf(2 * t.numerator) / t.denominator  # exact: t is dyadic
        exact = (mp.cospi(x) * unit, mp.sinpi(x) * unit)
        for route in (oracle._cos_sin, _interval_cos_sin):
            for (lo, hi), v in zip(route(t), exact):
                assert lo <= v <= hi, (route.__name__, t)
                assert hi - lo <= 2, (route.__name__, t)


def test_phase_enclosure_refuses_a_non_dyadic_turn():
    with pytest.raises(ValueError, match="dyadic"):
        oracle._cos_sin(Fraction(1, 3))


def test_certified_disks_hold_the_reference_roots():
    """Soundness: every mp.eig eigenvalue lies in exactly one inclusion disk."""
    for i, pattern in enumerate(PATTERNS):
        spec, casc = _criterion_1_case(i)
        L_k = spec.L_n(casc.k0)
        for n in _criterion_1_exponents(casc, casc.k0):
            centres, radii, _ = oracle._inclusion_disks(L_k, spec.model, n)
            mp, vals = _mp_eig_values(i, casc.k0, n)
            disks = [(mp.mpc(mp.ldexp(x, e), mp.ldexp(y, e)), mp.ldexp(m, f))
                     for (x, y, _, e), (m, f) in zip(centres, radii)]
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
    refine, steps = oracle._refine, oracle._MAX_POLISH_STEPS

    monkeypatch.setattr(oracle, "_MAX_POLISH_STEPS", 0)
    with pytest.raises(ConvergenceFailure, match="not isolated"):
        product_spectrum(L, model, n)
    monkeypatch.setattr(oracle, "_MAX_POLISH_STEPS", steps)

    def twice(coeffs, centres):
        out, _ = refine(coeffs, centres)
        out = [out[0], out[0]] + out[2:]
        return out, oracle._corrections(coeffs, out)

    monkeypatch.setattr(oracle, "_refine", twice)
    with pytest.raises(ConvergenceFailure, match="not isolated"):
        certified_spectrum(L, model, n)


def _exact_ball(value) -> tuple:
    """An exact ball (x, y, 0, e) at the dyadic nearest below a number."""
    re, im = (Fraction(str(value.real)), Fraction(str(value.imag))) if isinstance(value, complex) \
        else (Fraction(value), Fraction(0))
    top = max(abs(re), abs(im))
    e = top.numerator.bit_length() - top.denominator.bit_length() - 2 * oracle._PREC
    return math.floor(re / Fraction(2) ** e), math.floor(im / Fraction(2) ** e), 0, e


def _ball_poly(roots):
    """Balls of [c_0, ..., c_d] for prod (x - r), with det(x - M) = sum (-1)^k c_k x^(d-k).

    Each c_k is exact in Fraction arithmetic, then enclosed to the working
    precision, as an interval of the decimal roots would be.
    """
    coeffs = [(Fraction(1), Fraction(0))]
    for r in roots:  # times (x - r): c_k += r c_(k-1)
        r = tuple(map(Fraction, r)) if isinstance(r, tuple) else (Fraction(r), Fraction(0))
        coeffs = [(a + r[0] * c - r[1] * s, b + r[0] * s + r[1] * c)
                  for (a, b), (c, s) in zip(coeffs + [(0, 0)], [(0, 0)] + coeffs)]
    balls = []
    for c, s in coeffs:
        assert s == 0
        if c == 0:
            balls.append((0, 0, 0, 0))
            continue
        e = abs(c).numerator.bit_length() - abs(c).denominator.bit_length() - oracle._PREC
        balls.append((math.floor(c / Fraction(2) ** e), 0, 1, e))
    return balls


def _certificate_input(roots, seeds):
    """Centres and corrections on the ball polynomial prod (x - r), refined from seeds."""
    return oracle._refine(_ball_poly(roots), [_exact_ball(s) for s in seeds])


def _certify_roots(roots, seeds):
    """The certificate on the ball polynomial prod (x - r), refined from seeds."""
    return oracle._certify(*_certificate_input(roots, seeds))


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
    coeffs = [(1, 0, 0, 0), (1, 0, 0, 2), (1, 0, 0, 2)]  # x^2 - 4x + 4
    centres = [((2 << 66) - 1, 0, 0, -66), ((2 << 66) + 1, 0, 0, -66)]
    with pytest.raises(ConvergenceFailure, match="meet"):
        oracle._certify(centres, oracle._corrections(coeffs, centres))


def _aligned_sign(*bounds) -> int:
    """The sign of the sum of the bounds (m, e), all aligned to the smallest
    exponent: the reference for oracle._sign."""
    e = min(f for _, f in bounds)
    total = sum(m << (f - e) for m, f in bounds)
    return (total > 0) - (total < 0)


_BOUNDS = st.lists(st.tuples(st.integers(-(2 ** 140), 2 ** 140), st.integers(-300, 300)),
                   min_size=1, max_size=7)


@settings(max_examples=400, deadline=None)
@given(_BOUNDS, st.data())
@example([(5, 0), (-5, 0)], None)
@example([(1, 1000), (-1, 1000), (3, -1000), (-1, -999)], None)
@example([(2 ** 136, -136), (-1, 0), (1, -5_000_000)], None)
def test_sign_by_top_bits_is_the_aligned_sum(bounds, data):
    """_sign, which adds terms largest first and stops once the rest cannot
    change the sign, agrees with the fully aligned sum; exact cancellations
    are drawn on purpose: a term restated with a shifted exponent, negated."""
    if data is not None and data.draw(st.booleans()):
        m, f = bounds[data.draw(st.integers(0, len(bounds) - 1))]
        shift = data.draw(st.integers(0, 80))
        bounds = bounds + [(-m << shift, f - shift)]
        bounds = data.draw(st.permutations(bounds))
    assert oracle._sign(*bounds) == _aligned_sign(*bounds)


def test_sign_aligns_no_term_far_below_the_sum():
    """Moduli some 5e7 bits apart, as at n ~ 6e7, are ordered by their top
    bits; the aligned sum would shift a term by 50 million bits."""
    far = [(3, 0), (-(2 ** 100), -50_000_000), (1, -60_000_000)]
    assert oracle._sign(*far) == 1
    assert oracle._sign(*[(-m, e) for m, e in far]) == -1


def _pairwise_certify(centres, corrections):
    """oracle._certify with every pair of disks and of modulus ranges compared."""
    d = len(centres)
    digits = oracle.GRADED_DIGITS // 2
    radii = []
    for i, (z, w) in enumerate(zip(centres, corrections)):
        m, e = (0, 0) if w is None else oracle._mag(w)
        if w is None or oracle._sign(oracle._mig(z), (-(10 ** digits) * d * m, e)) < 0:
            raise ConvergenceFailure(f"root {i} is not isolated to {digits} digits")
        radii.append((d * m, e))
    real_simple = True
    for i, j in itertools.combinations(range(d), 2):
        ri, rj = oracle._minus(radii[i]), oracle._minus(radii[j])
        if oracle._sign(oracle._mig(oracle._sum(centres[i], oracle._neg(centres[j]))), ri, rj) <= 0:
            raise ConvergenceFailure(f"inclusion disks of roots {i} and {j} meet")
        real_simple = real_simple and (
            oracle._sign(oracle._mig(centres[i]), ri, oracle._minus(oracle._mag(centres[j])), rj) > 0
            or oracle._sign(oracle._mig(centres[j]), rj, oracle._minus(oracle._mag(centres[i])), ri) > 0)
    return radii, real_simple


def _certificate_outcome(certify, centres, corrections):
    try:
        return certify(centres, corrections)
    except ConvergenceFailure as exc:
        return str(exc)


def _bench_hit_inputs():
    """Centres and corrections at the hits listed in bench/reference.json."""
    reference = json.loads((Path(__file__).resolve().parent.parent / "bench" / "reference.json")
                           .read_text())
    for key, hits in reference.items():
        structure, seed = key.split("@")
        spec = sc.generate_instance(tuple(map(int, structure.split(","))), seed=int(seed))
        assert (spec.a, spec.b) == (1, 0)
        for n in hits:
            coeffs = oracle._charpoly_coeffs(spec.L_n(n), spec.model, n)
            yield oracle._refine(coeffs, oracle._newton_polygon_seeds(coeffs, spec.model))


def test_sorted_certificate_matches_the_pairwise_one():
    """Same radii, flag and messages as comparing every pair, on the
    certificate cases above and at the 50 hits of the benchmark."""
    coeffs = [(1, 0, 0, 0), (1, 0, 0, 2), (1, 0, 0, 2)]  # x^2 - 4x + 4, touching disks
    touching = [((2 << 66) - 1, 0, 0, -66), ((2 << 66) + 1, 0, 0, -66)]
    cases = [_certificate_input(roots, seeds) for roots, seeds in (
        (["1", "2", "3"], [0.9, 2.2, 3.1]),
        (["3e-500", "-2", "7e400"], ["2.5e-500", -1.5, "7.2e400"]),
        (["-2", "2", "5"], [-2.1, 2.1, 4.9]),
        (["1", ("3", "3e-12"), ("3", "-3e-12")], [1.1, 3 + 1e-11j, 3 - 1e-11j]),
        (["1", "2", "2"], [0.9, 1.9, 2.1]),
    )] + [(touching, oracle._corrections(coeffs, touching))]
    hits = list(_bench_hit_inputs())
    assert len(hits) == 50
    outcomes = []
    for centres, corrections in cases + hits:
        want = _certificate_outcome(_pairwise_certify, centres, corrections)
        assert _certificate_outcome(oracle._certify, centres, corrections) == want
        outcomes.append(want if isinstance(want, str) else want[1])
    assert outcomes[:6] == [True, True, False, False, "root 1 is not isolated to 20 digits",
                            "inclusion disks of roots 0 and 1 meet"]
    assert outcomes[6:] == [True] * 50


# Ball arithmetic: every operation holds the exact result for every point of
# its operand disks, at any exponent gap.

_mantissas = st.integers(-2**200, 2**200)
_balls = st.builds(lambda x, y, r, e, real: (x, 0 if real else y, r, e),
                   _mantissas, _mantissas, st.integers(0, 2**150) | st.just(0),
                   st.integers(-1500, 1500), st.booleans())
# offsets / 1415 lie inside the unit disk
_offsets = st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000))
_GAP = ((1 << 199) + 12345, 77, 3, -1200), (-(1 << 150) - 1, 0, 5, 40)  # exponents 1,240 bits apart


def _point(ball, offset):
    """An exact complex point of the ball, as (re, im) Fractions."""
    x, y, r, e = ball
    scale = Fraction(2) ** e
    return (x + Fraction(r * offset[0], 1415)) * scale, (y + Fraction(r * offset[1], 1415)) * scale


def _holds(ball, point) -> bool:
    x, y, r, e = ball
    scale = Fraction(2) ** e
    return (point[0] - x * scale) ** 2 + (point[1] - y * scale) ** 2 <= (r * scale) ** 2


def _cmul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


@settings(max_examples=200, deadline=None)
@given(_balls, _balls, _balls, _offsets, _offsets, _offsets)
@example(*_GAP, (1, 0, 0, 0), (1000, 0), (-1000, 0), (0, 0))
@example((2**136 - 1, 0, 0, 0), (1, 0, 0, 200), (0, 0, 0, 0), (0, 0), (0, 0), (0, 0))  # drops a unit
def test_ball_sum_holds_the_exact_sum(a, b, c, u, v, w):
    p, q, s = _point(a, u), _point(b, v), _point(c, w)
    assert _holds(oracle._sum(a, b), (p[0] + q[0], p[1] + q[1]))
    assert _holds(oracle._sum(a, b, c), (p[0] + q[0] + s[0], p[1] + q[1] + s[1]))
    assert _holds(oracle._sum(a, oracle._neg(a)), (p[0] - p[0], 0))


@settings(max_examples=200, deadline=None)
@given(_balls, _balls, _offsets, _offsets)
@example(*_GAP, (1000, 0), (-1000, 0))
def test_ball_product_holds_the_exact_product(a, b, u, v):
    p, q = _point(a, u), _point(b, v)
    assert _holds(oracle._mul(a, b), _cmul(p, q))
    exact = (b[0], b[1], 0, b[3])  # times an exact complex number
    assert _holds(oracle._mul(a, exact), _cmul(p, _point(exact, (0, 0))))


@settings(max_examples=200, deadline=None)
@given(_balls, _balls, _offsets, _offsets)
@example(*_GAP, (1000, 0), (-1000, 0))
def test_ball_quotient_holds_the_exact_quotient(a, b, u, v):
    p, q = _point(a, u), _point(b, v)
    bx, by, br, _ = b
    if bx * bx + by * by <= br * br:  # the divisor ball holds 0
        with pytest.raises(ZeroDivisionError):
            oracle._div(a, b)
        return
    if bx * bx + by * by <= 4 * br * br:  # near 0: refusing is allowed
        try:
            quotient = oracle._div(a, b)
        except ZeroDivisionError:
            return
    else:
        quotient = oracle._div(a, b)
    norm = q[0] ** 2 + q[1] ** 2
    assert _holds(quotient, _cmul(p, (q[0] / norm, -q[1] / norm)))


@settings(max_examples=200, deadline=None)
@given(_balls, _offsets)
@example(_GAP[0], (1000, 1000))
def test_ball_moduli_bound_every_point(a, u):
    p = _point(a, u)
    square = p[0] ** 2 + p[1] ** 2
    (m, e), (g, f) = oracle._mag(a), oracle._mig(a)
    assert square <= (m * Fraction(2) ** e) ** 2
    assert g >= 0 and (g * Fraction(2) ** f) ** 2 <= square


def _general_product(a, b):
    """The reference for _mul: the complex centre product, the radius
    |a| rb + ra |b| + ra rb with |.| as |x| + |y|, trimmed to _PREC bits
    with the floor error of the dropped bits."""
    (ax, ay, ar, ae), (bx, by, br, be) = a, b
    x, y = ax * bx - ay * by, ax * by + ay * bx
    r = ar * (abs(bx) + abs(by) + br) + br * (abs(ax) + abs(ay))
    s = max(abs(x) | abs(y), r).bit_length() - oracle._PREC
    if s <= 0:
        return x, y, r, ae + be
    dropped = any(v % (1 << s) for v in (x, y))
    return x >> s, y >> s, -(-r >> s) + (2 if dropped else 0), ae + be + s


@settings(max_examples=300, deadline=None)
@given(_balls, _balls)
@example((3, 0, 0, 0), (5, 0, 0, 7))
@example((2**200, 0, 2**150, -3), (-(2**200) + 1, 0, 1, 9))
def test_ball_product_is_the_general_product(a, b):
    """The real-factor path of _mul gives the general product's ball bit for
    bit: no imaginary part and no radius term of one."""
    assert oracle._mul(a, b) == _general_product(a, b)


def _minors_by_bareiss(B) -> dict:
    d = len(B)
    return {S: minors._bareiss_det([[B[r][c] for c in S] for r in S])
            for k in range(1, d + 1) for S in itertools.combinations(range(d), k)}


def _sylvester_minors(B, order=1) -> dict:
    """Every principal minor from _schur_blocks, asked for in lexicographic
    order or reversed; None below a vanishing prefix minor."""
    block = minors._schur_blocks(B, [])
    subsets = [S for k in range(1, len(B) + 1) for S in itertools.combinations(range(len(B)), k)]
    got = {}
    for S in subsets[::order]:
        schur = block(S[:-1], S[-1:])
        got[S] = None if schur is None else schur[1][0][0]
    return got


def _check_minors(B) -> int:
    """Sylvester's identity against per-subset elimination: the minors left
    to elimination below a vanishing prefix minor."""
    got = _sylvester_minors(B)
    want = _minors_by_bareiss(B)
    assert all(got[S] == want[S] for S in got if got[S] is not None)
    return sum(v is None for v in got.values())


@pytest.mark.parametrize("d", range(1, 9))
def test_principal_minors_match_bareiss(d):
    rng = np.random.default_rng(d)
    B = [[int(v) for v in row] for row in rng.integers(-2**62, 2**62, (d, d))]
    B = [[v << 74 | int(rng.integers(0, 2**62)) for v in row] for row in B]  # 136-bit entries
    assert _check_minors(B) == 0
    # a vanishing prefix minor: every subset below it is eliminated on its own
    zero = [row[:] for row in B]
    zero[0][0] = 0
    assert _check_minors(zero) == (2 ** (d - 1) - d if d > 1 else 0)
    if d >= 2:
        singular = [row[:] for row in B]
        singular[1][:2] = [3 * v for v in singular[0][:2]]  # det B[:2, :2] = 0
        assert _check_minors(singular) == 2 ** (d - 2) - d + 1


def _bareiss(B, rows, cols) -> int:
    return minors._bareiss_det([[B[r][c] for c in cols] for r in rows])


@pytest.mark.parametrize("sizes", [(2, 1, 2), (2, 2, 2), (1, 2, 1, 2)], ids=str)
def test_schur_blocks_hold_bordered_minors(sizes):
    """Each Schur block of P holds det B[P+r, P+c] over the rest of P (the
    indices above max P and the pairs P leaves untouched), and the minors
    with several bordering rows follow by Sylvester's determinant identity."""
    rng = np.random.default_rng(len(sizes))
    d = sum(sizes)
    B = [[int(v) for v in row] for row in rng.integers(-2**60, 2**60, (d, d))]
    starts = [sum(sizes[:b]) for b, size in enumerate(sizes) if size == 2]
    pairs = {i: (p, p + 1) for p in starts for i in (p, p + 1)}
    block = minors._schur_blocks(B, starts)
    for k in range(d):
        for P in itertools.combinations(range(d), k):
            rest = [r for r in range(d) if r not in P and (
                r > max(P, default=-1) or (r in pairs and not set(pairs[r]) & set(P)))]
            det, G = block(P, rest)
            assert det == (_bareiss(B, P, P) if P else 1)
            assert G == [[_bareiss(B, P + (r,), P + (c,)) for c in rest] for r in rest]
            for R, C in itertools.product(itertools.combinations(range(len(rest)), 2), repeat=2):
                bordered = G[R[0]][C[0]] * G[R[1]][C[1]] - G[R[0]][C[1]] * G[R[1]][C[0]]
                rows, cols = tuple(rest[i] for i in R), tuple(rest[i] for i in C)
                assert bordered == _bareiss(B, P + rows, P + cols) * det


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda h: st.lists(
    st.lists(st.integers(-50, 50), min_size=2 * h, max_size=2 * h), min_size=2 * h, max_size=2 * h)))
def test_transversal_sums_expand_each_determinant(G):
    """The trace form of _transversal_sums against one determinant per
    transversal of the turned matrix."""
    h = len(G) // 2
    want = []
    for eps in range(1 << h):
        T = [row[:] for row in G]
        for i in range(h):
            if eps >> i & 1:
                for row in T:
                    row[2 * i], row[2 * i + 1] = row[2 * i + 1], -row[2 * i]
        want.append(sum(_bareiss(T, J, J) for J in itertools.product(
            *((2 * i, 2 * i + 1) for i in range(h)))))
    assert minors._transversal_sums(G) == want


def _turned_minor_sums(table, sizes, A, key):
    """A key's sums of det (A Q_eps)_SS, one Bareiss elimination per subset."""
    halves = table.keys[len(key)][key][1]
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    subsets = [S for S in itertools.combinations(range(len(A)), len(key))
               if tuple(owner[i] for i in S) == key]
    sums = []
    for eps in range(1 << len(halves)):
        T = [row[:] for row in A]
        for i, b in enumerate(halves):
            if eps >> i & 1:
                for row in T:
                    row[starts[b]], row[starts[b] + 1] = row[starts[b] + 1], -row[starts[b]]
        sums.append(sum(_bareiss(T, S, S) for S in subsets))
    return sums


@pytest.mark.parametrize("pattern", PATTERNS + [(1,) * 6], ids=str)
def test_minor_table_matches_per_subset_elimination(pattern):
    """Every key's sums and Hadamard bound, from Schur blocks and block
    factors, equal the per-subset values; so do they when the leading entry
    of L is 0 and every key below it falls back to elimination."""
    spec = sc.generate_instance(pattern, seed=2)
    sizes = tuple(blk.size for blk in spec.model.diag_blocks)
    for L in (spec.L, np.where(np.arange(spec.model.d ** 2).reshape(spec.L.shape) == 0, 0.0, spec.L)):
        table = minors.MinorTable(L, sizes)
        A = table._A
        assert [[Fraction(a, 2 ** table.F) for a in row] for row in A] == \
            [[Fraction(x) for x in row] for row in L.tolist()]
        norm = [math.isqrt(sum(a * a for a in row)) + 1 for row in A]
        owner = [b for b, size in enumerate(sizes) for _ in range(size)]
        for k in range(1, spec.model.d + 1):
            hadamard = {}
            for S in itertools.combinations(range(spec.model.d), k):
                key = tuple(owner[i] for i in S)
                hadamard[key] = hadamard.get(key, 0) + math.prod(norm[i] for i in S)
            assert {key: bits for key, (bits, _) in table.keys[k].items()} == \
                {key: bound.bit_length() for key, bound in hadamard.items()}
            for key in table.keys[k]:
                assert table.sums(key) == _turned_minor_sums(table, sizes, A, key), (L[0, 0], key)


def test_negligible_terms_form_no_minors(monkeypatch):
    """At a wide spread each c_k needs only the minor of its leading coordinates."""
    spec = sc.generate_instance((1,) * 8, seed=3)
    asked = []
    make = minors._schur_blocks

    def counting(B, pairs):
        block = make(B, pairs)
        return lambda P, idx: asked.append(P + tuple(idx)) or block(P, idx)

    minors._tables.clear()
    monkeypatch.setattr(minors, "_schur_blocks", counting)
    _, real_simple = certified_spectrum(spec.L, spec.model, 1_000)
    minors._tables.clear()  # drop the table that counts
    assert real_simple
    assert asked == [tuple(range(k)) for k in range(1, 9)]  # 8 of the 255 minors


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=d, max_size=d)),
    st.lists(st.booleans(), min_size=6, max_size=6))
def test_principal_minors_of_small_entries(B, paired):
    """Small entries make zero minors at every depth, asked for in any order;
    the table's sums stay exact on any block layout, by elimination where a
    Schur block is missing or would divide by 0."""
    forward, backward, want = _sylvester_minors(B), _sylvester_minors(B, -1), _minors_by_bareiss(B)
    assert forward == backward
    assert all(forward[S] == want[S] for S in forward if forward[S] is not None)
    sizes, i = [], 0
    while i < len(B):
        sizes.append(2 if i + 1 < len(B) and paired[i] else 1)
        i += sizes[-1]
    table = minors.MinorTable(np.array(B, dtype=float), tuple(sizes))
    for keys in table.keys:
        for key in keys:
            assert table.sums(key) == _turned_minor_sums(table, sizes, B, key), (sizes, key)


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


def test_cold_table_fills_each_key_once_under_threads(monkeypatch):
    """Threads that meet one cold table form each key's sums once, and give
    the coefficients of serial calls."""
    spec = sc.generate_instance((2, 2, 2), seed=3)
    ns = (100, 101, 2_000, 7_197)  # more threads than a small box has cores
    minors._tables.clear()
    serial = [oracle._charpoly_coeffs(spec.L, spec.model, n) for n in ns]
    formed = []
    form = minors.MinorTable._form
    monkeypatch.setattr(minors.MinorTable, "_form",
                        lambda self, key: formed.append(key) or form(self, key))
    barrier = threading.Barrier(len(ns))

    def call(n):
        barrier.wait(timeout=60)
        return oracle._charpoly_coeffs(spec.L, spec.model, n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):  # a race shows in some rounds only
            minors._tables.clear()
            formed.clear()
            with ThreadPoolExecutor(max_workers=len(ns)) as pool:
                threaded = list(pool.map(call, ns, timeout=120))
            assert threaded == serial
            assert len(formed) == len(set(formed)) == 26  # every key of (2,2,2) at n = 100
    finally:
        sys.setswitchinterval(interval)
        minors._tables.clear()


@pytest.mark.parametrize("order", [(100, 1_000), (1_000, 100)], ids=["up", "down"])
def test_memo_changes_no_coefficient(order):
    """A cold call, a warm call and a call after another exponent give the
    same coefficient balls and spectra."""
    spec = sc.generate_instance((1, 2, 2), seed=3)
    minors._tables.clear()
    first, second = order
    cold = oracle._charpoly_coeffs(spec.L, spec.model, first), certified_spectrum(
        spec.L, spec.model, first)
    warm = oracle._charpoly_coeffs(spec.L, spec.model, first), certified_spectrum(
        spec.L, spec.model, first)
    other = oracle._charpoly_coeffs(spec.L, spec.model, second)
    after = oracle._charpoly_coeffs(spec.L, spec.model, first), certified_spectrum(
        spec.L, spec.model, first)
    minors._tables.clear()
    assert oracle._charpoly_coeffs(spec.L, spec.model, second) == other
    for coeffs, (spectrum, real_simple) in (warm, after):
        assert coeffs == cold[0] and real_simple == cold[1][1]
        assert spectrum.unit.tobytes() == cold[1][0].unit.tobytes()
        assert spectrum.log_mod.tobytes() == cold[1][0].log_mod.tobytes()


def test_memo_holds_at_most_its_cap():
    """The memo keeps the _TABLE_CAP most recently used tables."""
    spec = sc.generate_instance((2, 2, 2), seed=3)
    minors._tables.clear()
    mats = [spec.L * (1.0 + j * 2.0 ** -40) for j in range(minors.TABLE_CAP + 5)]
    for j, L in enumerate(mats):
        oracle._charpoly_coeffs(L, spec.model, 5_000)
        assert len(minors._tables) == min(j + 1, minors.TABLE_CAP)
    oracle._charpoly_coeffs(mats[5], spec.model, 5_000)  # used again: kept, now the newest
    oracle._charpoly_coeffs(mats[0], spec.model, 5_000)  # built again: mats[6] goes
    assert len(minors._tables) == minors.TABLE_CAP
    assert list(minors._tables) == [(L.tobytes(), (2, 2, 2)) for L in mats[7:] + [mats[5], mats[0]]]
    minors._tables.clear()


def test_spread_digits_linear_in_n(demo_instance):
    model = demo_instance.model
    assert spread_digits(model, 20) == pytest.approx(2 * spread_digits(model, 10))
