import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectral_cascade.blocks import BlockStructure, block_diag, split_blocks

sizes_strategy = st.lists(st.sampled_from([1, 2]), min_size=2, max_size=5).map(tuple)


def test_structure_basic():
    s = BlockStructure((1, 2, 2))
    assert s.m == 3
    assert s.d == 5
    assert s.offsets == (0, 1, 3)
    assert s.rotation_indices == (2, 3)


def test_structure_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BlockStructure((1, 3))
    with pytest.raises(ValueError):
        BlockStructure(())


@given(sizes_strategy)
def test_offsets_telescope(sizes):
    s = BlockStructure(sizes)
    for j in range(s.m - 1):
        assert s.offsets[j + 1] == s.offsets[j] + s.sizes[j]
    assert s.offsets[0] == 0
    assert s.offsets[-1] + s.sizes[-1] == s.d


@given(sizes_strategy, st.integers(0, 2**32 - 1))
def test_split_assemble_roundtrip(sizes, seed):
    s = BlockStructure(sizes)
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((s.d, s.d))
    k1 = s.sizes[0]
    A, B, C, D = split_blocks(J, k1)
    assert A.shape == (k1, k1) and D.shape == (s.d - k1, s.d - k1)
    np.testing.assert_array_equal(np.block([[A, B], [C, D]]), J)


def test_block_diag_layout():
    M = block_diag(np.array([[2.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    expected = np.array([[2.0, 0, 0], [0, 0, 1], [0, -1, 0]])
    np.testing.assert_array_equal(M, expected)
