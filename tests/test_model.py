import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_cascade.blocks import BlockStructure
from spectral_cascade.errors import PowerOverflow
from spectral_cascade.linalg import op_norm
from spectral_cascade.model import DiagonalModel, DiagonalPowers, RotationBlock, ScalarBlock


def make_model():
    return DiagonalModel(
        BlockStructure((1, 2, 2)),
        (
            ScalarBlock(1.6),
            RotationBlock(1.1, math.sqrt(2) % 1.0),
            RotationBlock(0.7, math.sqrt(3) % 1.0),
        ),
    )


def test_block_validation():
    with pytest.raises(ValueError):
        ScalarBlock(0.0)
    with pytest.raises(ValueError):
        RotationBlock(-1.0, 0.1)
    with pytest.raises(ValueError):
        RotationBlock(1.0, 1.2)


def test_moduli_must_decrease():
    with pytest.raises(ValueError):
        DiagonalModel(
            BlockStructure((1, 2)), (ScalarBlock(1.0), RotationBlock(1.0, 0.1))
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 60))
def test_closed_form_power_matches_repeated_multiplication(n):
    model = make_model()
    np.testing.assert_allclose(
        model.power(n), np.linalg.matrix_power(model.matrix(), n), rtol=1e-12, atol=1e-12
    )


def test_negative_scalar_sign_alternates():
    blk = ScalarBlock(-2.0)
    assert blk.power(3)[0, 0] == -8.0
    assert blk.power(4)[0, 0] == 16.0


def test_power_overflow_guard():
    with pytest.raises(PowerOverflow):
        ScalarBlock(10.0).power(400)


def test_tail_drops_leading_blocks():
    model = make_model()
    tail = model.tail(2)
    assert tail.structure.sizes == (2, 2)
    np.testing.assert_array_equal(tail.matrix(), model.matrix()[1:, 1:])
    assert model.tail(1) is not model
    np.testing.assert_array_equal(model.tail(1).matrix(), model.matrix())


def test_rotation_angles_keyed_by_level():
    model = make_model()
    assert set(model.rotation_angles) == {2, 3}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_sandwich_products_match_dense(n, seed):
    """The log-scaled sandwiches equal the literal products at safe n."""
    model = make_model()
    powers = DiagonalPowers(model)
    rng = np.random.default_rng(seed)
    head_inv = np.linalg.inv(model.block(1).power(n))
    tail = model.tail(2).power(n)
    u = rng.standard_normal((4, 1))
    dense = tail @ u @ head_inv
    np.testing.assert_allclose(powers.dvn_u_avmn(u, n), dense, rtol=1e-10, atol=1e-12)
    v = rng.standard_normal((1, 4))
    dense2 = head_inv @ v @ tail
    np.testing.assert_allclose(powers.avmn_u_dvn(v, n), dense2, rtol=1e-10, atol=1e-12)


def test_sandwich_contracts_at_huge_n():
    model = make_model()
    powers = DiagonalPowers(model)
    u = np.ones((4, 1))
    out = powers.dvn_u_avmn(u, 100_000)
    assert np.all(np.isfinite(out))
    assert op_norm(out) < 1e-300 * 1e280  # decays like (1.1/1.6)^n, far below tiny


def test_coordinate_log_moduli_and_det():
    model = make_model()
    logs = model.coordinate_log_moduli()
    assert logs.shape == (5,)
    assert logs[0] == pytest.approx(math.log(1.6))


def test_sandwich_cache_follows_the_exponent():
    """One instance queried at interleaved n equals a fresh instance at each n.

    Odd steps ask for A(V)^-n u D(V)^n first, so both products refresh the cache.
    """
    model = make_model()
    powers = DiagonalPowers(model)
    rng = np.random.default_rng(5)
    for i, n in enumerate((37, 5, 37, 0, 100_000)):
        u, v = rng.standard_normal((4, 1)), rng.standard_normal((1, 4))
        calls = [("dvn_u_avmn", u), ("avmn_u_dvn", v)][:: 1 if i % 2 == 0 else -1]
        for name, w in calls:
            expected = getattr(DiagonalPowers(model), name)(w, n)
            np.testing.assert_array_equal(getattr(powers, name)(w, n), expected)


def test_sandwich_cache_compares_an_array_by_value():
    """An exponent array changed in place is a new exponent: the products are
    those of a fresh instance at its new values, not the kept factors."""
    model = make_model()
    powers = DiagonalPowers(model)
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal((2, 4, 1)), rng.standard_normal((2, 1, 4))
    ns = np.array([5, 37])
    powers.dvn_u_avmn(u, ns)
    ns += 3
    np.testing.assert_array_equal(powers.dvn_u_avmn(u, ns), DiagonalPowers(model).dvn_u_avmn(u, ns))
    powers.share_units(ns, [b.unit_power(ns) for b in model.diag_blocks])
    ns += 3
    np.testing.assert_array_equal(powers.avmn_u_dvn(v, ns), DiagonalPowers(model).avmn_u_dvn(v, ns))


def test_sandwich_cache_survives_a_failed_exponent():
    """An exponent whose factors raise leaves the cached ones of the last n intact."""
    model = DiagonalModel(BlockStructure((2, 1)), (RotationBlock(1.6, 0.3), ScalarBlock(-0.5)))
    powers = DiagonalPowers(model)
    u = np.ones((1, 2))
    before = powers.dvn_u_avmn(u, 5)
    with pytest.raises(OverflowError):  # n ln(rho) of the tail's scale leaves the float range
        powers.dvn_u_avmn(u, 10 ** 400)
    np.testing.assert_array_equal(powers.dvn_u_avmn(u, 5), before)


def test_sandwich_uses_the_factors_it_built(monkeypatch):
    """Another thread sharing the object may install its exponent's factors
    between this call's build and its product; the product still uses the
    factors of its own exponent."""
    model = make_model()
    u = np.random.default_rng(3).standard_normal((4, 1))
    want = DiagonalPowers(model).dvn_u_avmn(u, 37)
    other = DiagonalPowers(model)
    other.dvn_u_avmn(u, 5)
    build = DiagonalPowers.share_units

    def interleaved(self, n, units):
        built = build(self, n, units)
        self._cache = other._cache  # another thread's share_units at n = 5
        return built

    monkeypatch.setattr(DiagonalPowers, "share_units", interleaved)
    np.testing.assert_array_equal(DiagonalPowers(model).dvn_u_avmn(u, 37), want)


def test_sandwich_on_a_stack_is_each_item_alone():
    """A stack of u at an array of exponents gives every item's products bit
    for bit as that item alone, whether the caller shares the units or not."""
    model = make_model()
    rng = np.random.default_rng(7)
    ns = np.array([0, 5, 37, 1_000, 100_000])
    u, v = rng.standard_normal((5, 4, 1)), rng.standard_normal((5, 1, 4))
    alone = DiagonalPowers(model)
    want = [(alone.dvn_u_avmn(ui, n), alone.avmn_u_dvn(vi, n)) for ui, vi, n in zip(u, v, ns.tolist())]
    shared = DiagonalPowers(model)
    shared.share_units(ns, [np.array([b.unit_power(n) for n in ns.tolist()])
                            for b in model.diag_blocks])
    for powers in (DiagonalPowers(model), shared):
        got = zip(powers.dvn_u_avmn(u, ns), powers.avmn_u_dvn(v, ns))
        assert [(a.tobytes(), b.tobytes()) for a, b in got] == \
            [(a.tobytes(), b.tobytes()) for a, b in want]
