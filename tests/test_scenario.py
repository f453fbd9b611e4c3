import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from spectral_cascade import scenario
from spectral_cascade.blocks import BlockStructure
from spectral_cascade.cascade import choose_parameters
from spectral_cascade.errors import (
    ConditionFailure,
    IndependenceFailure,
    PerturbationExhausted,
)
from spectral_cascade.linalg import op_norm, singular_values
from spectral_cascade.scenario import (
    _ANGLE_PRIMES,
    InstanceSpec,
    PerturbationLaw,
    check_angle_independence,
    check_L_conditions,
    generate_instance,
    perturb_to_generic,
    random_model_T,
)

PATTERNS = [(1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 2), (2, 2, 2)]


def test_law_validation_and_direction():
    with pytest.raises(ValueError):
        PerturbationLaw(-0.1, 0.5, 0)
    with pytest.raises(ValueError):
        PerturbationLaw(0.1, 1.0, 0)
    law = PerturbationLaw(0.05, 0.5, 7)
    G = law.direction(4)
    assert op_norm(G) == pytest.approx(1.0)
    np.testing.assert_array_equal(G, law.direction(4))  # deterministic


def _former_L_n(spec, n):
    """L_n with the unit direction drawn afresh on every call."""
    d = spec.model.d
    G = np.random.default_rng(spec.law.seed).standard_normal((d, d))
    G = G / max(op_norm(G), 1e-300)
    return spec.L @ (np.eye(d) + spec.law.c * spec.law.rho ** n * G)


@pytest.mark.parametrize("pattern", PATTERNS, ids=["".join(map(str, p)) for p in PATTERNS])
def test_L_n_matches_the_former_draw(pattern):
    for seed in range(4):
        spec = generate_instance(pattern, seed=seed)
        for n in (0, 1, 50, 10_000):
            assert spec.L_n(n).tobytes() == _former_L_n(spec, n).tobytes(), (seed, n)


def test_direction_is_drawn_once_and_read_only(monkeypatch):
    draws = []

    def counted(seed):
        draws.append(seed)
        return np.random.default_rng(seed)

    monkeypatch.setattr(scenario, "default_rng", counted)
    scenario._unit_direction.cache_clear()
    law, twin = PerturbationLaw(0.05, 0.5, 11), PerturbationLaw(0.02, 0.25, 11)
    G = law.direction(4)
    assert twin.direction(4) is G and law.direction(4) is G
    law.direction(5)
    assert draws == [11, 11]  # one draw per (seed, d)
    assert not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 0.0


def test_sequence_converges_geometrically(demo_instance):
    spec = demo_instance
    base = spec.L
    gaps = [op_norm(spec.L_n(n) - base) for n in (0, 5, 10)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < spec.law.c * spec.law.rho ** 10 * op_norm(base) * 1.01


def test_conditions_on_singular_L():
    s = BlockStructure((1, 2))
    L = np.zeros((3, 3))
    report = check_L_conditions(L, s)
    assert not report.passed
    assert report.lines[0].name == "L invertible"


def test_conditions_on_equal_singular_values():
    # A_1 is conformal (equal singular values) for a (2,1) structure
    s = BlockStructure((2, 1))
    L = np.eye(3)
    report = check_L_conditions(L, s)
    names = [ln.name for ln in report.lines if not ln.passed]
    assert any("singular values" in n for n in names)


def test_conditions_stop_at_singular_corners():
    """A swap L on (1,2): A_1(L) and the corner of L^-1 = L from block 2 on are singular."""
    L = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    report = check_L_conditions(L, BlockStructure((1, 2)))
    assert [(ln.name, ln.passed) for ln in report.lines] == [
        ("L invertible", True),
        ("A_1(L) invertible", False),
        ("D^(1)(L^-1) invertible", False),
    ]
    assert not report.passed


@pytest.mark.parametrize("pattern", PATTERNS, ids=["".join(map(str, p)) for p in PATTERNS])
def test_invertibility_margins_are_smallest_singular_values(pattern):
    for seed in range(4):
        L = generate_instance(pattern, seed=seed).L
        structure = BlockStructure(pattern)
        corners = {"L invertible": L,
                   "A_1(L) invertible": L[: pattern[0], : pattern[0]]}
        Li = np.linalg.inv(L)
        for j, o in enumerate(structure.offsets[1:], start=1):
            corners[f"D^({j})(L^-1) invertible"] = Li[o:, o:]
        lines = [ln for ln in check_L_conditions(L, structure).lines
                 if ln.name.endswith("invertible")]
        assert [ln.name for ln in lines] == list(corners)
        for ln in lines:
            assert ln.margin == float(singular_values(corners[ln.name])[-1]), ln.name


def test_wrong_shape_L_raises_value_error(demo_instance):
    """A 4x4 L on a (1,2,2) structure is a usage error, not a failed condition."""
    model = demo_instance.model
    assert model.structure.sizes == (1, 2, 2)
    L = np.eye(4)
    with pytest.raises(ValueError, match="5x5"):
        check_L_conditions(L, model.structure)
    with pytest.raises(ValueError, match="5x5"):
        choose_parameters(model, L, 1e-3, law=demo_instance.law)


def test_angle_independence_accepts_sqrt_primes():
    margin = check_angle_independence([math.sqrt(2) % 1.0])
    assert margin > 1.0
    check_angle_independence([math.sqrt(2) % 1.0, math.sqrt(3) % 1.0])


def test_angle_independence_rejects_rationals():
    with pytest.raises(IndependenceFailure):
        check_angle_independence([0.5])
    with pytest.raises(IndependenceFailure):
        check_angle_independence([3.0 / 7.0])
    # a pair with an exact small relation: t1 = 2 t2 mod 1
    t2 = math.sqrt(2) % 1.0
    with pytest.raises(IndependenceFailure):
        check_angle_independence([(2 * t2) % 1.0, t2])


def test_angle_independence_three_angles():
    thetas = [math.sqrt(p) % 1.0 for p in (2, 3, 5)]
    check_angle_independence(thetas)
    with pytest.raises(IndependenceFailure):
        check_angle_independence([thetas[0], thetas[1], (thetas[0] + thetas[1]) % 1.0])


def _sqrt_angles(primes):
    return [math.sqrt(p) % 1.0 for p in primes]


def _planted_angles(a, b):
    """sqrt(2), sqrt(3) mod 1 and a dyadic theta_3 with a t1 + b t2 + t3 in Z exactly."""
    t1, t2 = _sqrt_angles((2, 3))
    t3 = float(-(a * Fraction(t1) + b * Fraction(t2)) % 1)
    assert (a * Fraction(t1) + b * Fraction(t2) + Fraction(t3)).denominator == 1
    return [t1, t2, t3]


@pytest.mark.parametrize("a, b", [(1000, -999), (300, 250), (40, 30)])
def test_angle_independence_catches_planted_relations(a, b):
    with pytest.raises(IndependenceFailure, match=rf"\[-?{abs(a)}, -?{abs(b)}, -?1\]"):
        check_angle_independence(_planted_angles(a, b))


def test_angle_independence_catches_relation_of_float_angles():
    # the float angles of sqrt(7), sqrt(13), sqrt(19) are dyadic rationals
    # that satisfy an exact integer relation inside the coefficient box
    thetas = _sqrt_angles((7, 13, 19))
    coeffs = (9557, -5072, -7657)
    assert sum(c * Fraction(t) for c, t in zip(coeffs, thetas)) == 352
    with pytest.raises(IndependenceFailure, match=r"\[-?9557, -?5072, -?7657\]"):
        check_angle_independence(thetas)


def test_angle_independence_margin():
    # above 1: no lattice vector came within the enumeration radius
    for primes in ((2,), (2, 3), (2, 3, 5)):
        assert 1.0 < check_angle_independence(_sqrt_angles(primes)) < math.inf
    # at or below 1: candidates came within reach and each cleared the exact test
    assert 0.0 < check_angle_independence(_sqrt_angles((11, 17, 23))) <= 1.0


def test_random_model_T_skips_related_angles():
    first = np.random.default_rng(238).choice(_ANGLE_PRIMES, size=3, replace=False)
    assert sorted(first) == [7, 13, 19]
    model = random_model_T((2, 2, 2), [2.0, 1.0, 0.5], seed=238)
    assert sorted(model.rotation_angles.values()) != sorted(_sqrt_angles((7, 13, 19)))


def test_every_drawable_angle_tuple():
    """Exactly one unordered 1-, 2- or 3-tuple of _ANGLE_PRIMES has a relation."""
    start = time.perf_counter()
    rejected = []
    for t in (1, 2, 3):
        for primes in combinations(_ANGLE_PRIMES, t):
            try:
                margin = check_angle_independence(_sqrt_angles(primes))
            except IndependenceFailure:
                rejected.append(primes)
                continue
            assert math.isfinite(margin) and margin > 0, primes
    assert rejected == [(7, 13, 19)]
    assert time.perf_counter() - start < 5.0


def test_angle_independence_allocates_no_large_arrays():
    thetas = _sqrt_angles((53, 59, 61))
    tracemalloc.start()
    try:
        check_angle_independence(thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_random_model_T_shape_and_angles():
    model = random_model_T((1, 2, 2), [4.0, 2.0, 0.5], seed=1)
    assert model.structure.sizes == (1, 2, 2)
    assert [b.modulus for b in model.diag_blocks] == [4.0, 2.0, 0.5]
    assert set(model.rotation_angles) == {2, 3}
    with pytest.raises(ValueError):
        random_model_T((1, 2), [1.0, 2.0], seed=0)


def test_perturb_to_generic_fixes_conformal_block():
    s = BlockStructure((2, 1))
    L = np.eye(3)  # fails the distinct-singular-value condition
    fixed = perturb_to_generic(L, s, strength=0.2, seed=0)
    assert check_L_conditions(fixed, s).passed
    assert op_norm(fixed - L) <= 0.2 + 1e-12
    with pytest.raises(PerturbationExhausted):
        perturb_to_generic(L, s, strength=1e-15, seed=0)


def test_generate_instance_is_valid_and_deterministic():
    a = generate_instance((2, 2), seed=42)
    b = generate_instance((2, 2), seed=42)
    np.testing.assert_array_equal(a.L, b.L)
    assert check_L_conditions(a.L, a.model.structure).passed
    mods = [blk.modulus for blk in a.model.diag_blocks]
    assert mods[0] > mods[1]
    assert a.model.d == 4


def test_instance_spec_validation(demo_instance):
    with pytest.raises(ValueError):
        InstanceSpec(model=demo_instance.model, L=np.eye(4),
                     law=demo_instance.law, a=1, b=0)
    with pytest.raises(ValueError):
        InstanceSpec(model=demo_instance.model, L=demo_instance.L,
                     law=demo_instance.law, a=0, b=0)
