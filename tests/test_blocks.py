import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectral_cascade.blocks import BlockStructure, block_diag, d_chain, project_D, split_blocks

sizes_strategy = st.lists(st.sampled_from([1, 2]), min_size=2, max_size=5).map(tuple)


def test_structure_basic():
    s = BlockStructure((1, 2, 2))
    assert s.m == 3
    assert s.d == 5
    assert s.kappa == (5, 4, 2)
    assert s.kappa_at(4) == 0
    assert s.rotation_indices == (2, 3)


def test_structure_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BlockStructure((1, 3))
    with pytest.raises(ValueError):
        BlockStructure(())


@given(sizes_strategy)
def test_kappa_telescopes(sizes):
    s = BlockStructure(sizes)
    for j in range(1, s.m):
        assert s.kappa_at(j) == s.sizes[j - 1] + s.kappa_at(j + 1)


@given(sizes_strategy, st.integers(0, 2**32 - 1))
def test_split_assemble_roundtrip(sizes, seed):
    s = BlockStructure(sizes)
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((s.d, s.d))
    k1 = s.sizes[0]
    A, B, C, D = split_blocks(J, k1)
    assert A.shape == (k1, k1) and D.shape == (s.d - k1, s.d - k1)
    np.testing.assert_array_equal(np.block([[A, B], [C, D]]), J)


def test_projections_match_split():
    s = BlockStructure((2, 1, 2))
    rng = np.random.default_rng(0)
    J = rng.standard_normal((5, 5))
    _, _, _, D = split_blocks(J, 2)
    np.testing.assert_array_equal(project_D(J, s, 1), D)


def test_d_chain_iterates():
    s = BlockStructure((1, 2, 2))
    rng = np.random.default_rng(1)
    J = rng.standard_normal((5, 5))
    np.testing.assert_array_equal(d_chain(J, s, 0), J)
    step1 = project_D(J, s, 1)
    np.testing.assert_array_equal(d_chain(J, s, 1), step1)
    np.testing.assert_array_equal(d_chain(J, s, 2), project_D(step1, s, 2))
    with pytest.raises(ValueError):
        d_chain(J, s, 3)


def test_projection_size_mismatch():
    s = BlockStructure((1, 2))
    with pytest.raises(ValueError):
        project_D(np.eye(4), s, 1)


def test_block_diag_layout():
    M = block_diag(np.array([[2.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    expected = np.array([[2.0, 0, 0], [0, 0, 1], [0, -1, 0]])
    np.testing.assert_array_equal(M, expected)
