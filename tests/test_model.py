import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_cascade import model as model_module
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
    np.testing.assert_allclose(powers.dvn_u_avmn(u, powers.at(n)), dense, rtol=1e-10, atol=1e-12)
    v = rng.standard_normal((1, 4))
    dense2 = head_inv @ v @ tail
    np.testing.assert_allclose(powers.avmn_u_dvn(v, powers.at(n)), dense2, rtol=1e-10, atol=1e-12)


def test_sandwich_contracts_at_huge_n():
    model = make_model()
    powers = DiagonalPowers(model)
    u = np.ones((4, 1))
    out = powers.dvn_u_avmn(u, powers.at(100_000))
    assert np.all(np.isfinite(out))
    assert op_norm(out) < 1e-300 * 1e280  # decays like (1.1/1.6)^n, far below tiny


def test_coordinate_log_moduli_and_det():
    model = make_model()
    logs = model.coordinate_log_moduli()
    assert logs.shape == (5,)
    assert logs[0] == pytest.approx(math.log(1.6))


def test_sandwich_memo_follows_the_exponent():
    """One instance asked at interleaved n gives, at each n, the products of a
    fresh instance, bit for bit, and the memo serves a repeated n its value."""
    model = make_model()
    powers = DiagonalPowers(model)
    rng = np.random.default_rng(5)
    for n in (37, 5, 37, 0, 100_000):
        u, v = rng.standard_normal((4, 1)), rng.standard_normal((1, 4))
        s, fresh = powers.at(n), DiagonalPowers(model).at(n)
        assert s.n == n and powers.at(n) is s
        for name, w in [("dvn_u_avmn", u), ("avmn_u_dvn", v)]:
            np.testing.assert_array_equal(getattr(powers, name)(w, s),
                                          getattr(powers, name)(w, fresh))


def test_sandwich_keeps_its_factors_when_its_inputs_change():
    """An exponent array or a unit part changed in place after from_units
    leaves the sandwich's factors as they were: those of the old values."""
    model = make_model()
    powers = DiagonalPowers(model)
    ns = np.array([5, 37])
    units = [b.unit_power(ns) for b in model.diag_blocks]
    s = powers.from_units(ns, units)
    want = powers.from_units(ns.copy(), [u.copy() for u in units])
    ns += 3
    for u in units:
        u *= -1.0
    for got, kept in zip(s[1:], want[1:]):
        np.testing.assert_array_equal(got, kept)


def test_sandwich_memo_stores_no_failed_exponent():
    """An exponent whose factors raise stores nothing, and the memo keeps the
    sandwich of the last n."""
    model = DiagonalModel(BlockStructure((2, 1)), (RotationBlock(1.6, 0.3), ScalarBlock(-0.5)))
    powers = DiagonalPowers(model)
    before = powers.at(5)
    with pytest.raises(OverflowError):  # n ln(rho) of the tail's scale leaves the float range
        powers.at(10 ** 400)
    assert (powers, 10 ** 400) not in model_module._sandwiches
    assert powers.at(5) is before


def test_sandwich_on_a_stack_is_each_item_alone():
    """A stack of u at an array of exponents gives every item's products bit
    for bit as that item alone, whether the units are formed for the stack
    in one call or item by item."""
    model = make_model()
    rng = np.random.default_rng(7)
    ns = np.array([0, 5, 37, 1_000, 100_000])
    u, v = rng.standard_normal((5, 4, 1)), rng.standard_normal((5, 1, 4))
    powers = DiagonalPowers(model)
    want = [(powers.dvn_u_avmn(ui, s), powers.avmn_u_dvn(vi, s))
            for ui, vi, s in zip(u, v, map(powers.at, ns.tolist()))]
    for units in ([b.unit_power(ns) for b in model.diag_blocks],
                  [np.array([b.unit_power(n) for n in ns.tolist()]) for b in model.diag_blocks]):
        s = powers.from_units(ns, units)
        got = zip(powers.dvn_u_avmn(u, s), powers.avmn_u_dvn(v, s))
        assert [(a.tobytes(), b.tobytes()) for a, b in got] == \
            [(a.tobytes(), b.tobytes()) for a, b in want]
