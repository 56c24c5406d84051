"""Rotary embedding property tests."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn.rope import RotaryEmbedding, rotate


@pytest.fixture
def rope():
    return RotaryEmbedding(head_dim=8, max_seq_len=32)


def test_rotation_preserves_norm(rope):
    x = np.random.default_rng(0).standard_normal((2, 4, 8)).astype(np.float32)
    rotated = rope(Tensor(x)).data
    np.testing.assert_allclose(np.linalg.norm(rotated, axis=-1),
                               np.linalg.norm(x, axis=-1), rtol=1e-5)


def test_position_zero_is_identity(rope):
    x = np.random.default_rng(1).standard_normal((1, 1, 8)).astype(np.float32)
    np.testing.assert_allclose(rope(Tensor(x)).data, x, atol=1e-6)


def test_relative_position_property(rope):
    """q.k after RoPE depends only on the position difference."""
    gen = np.random.default_rng(2)
    q = gen.standard_normal(8).astype(np.float32)
    k = gen.standard_normal(8).astype(np.float32)

    def score(pos_q, pos_k):
        qr = rope(Tensor(q[None, None, :]), position_offset=pos_q).data[0, 0]
        kr = rope(Tensor(k[None, None, :]), position_offset=pos_k).data[0, 0]
        return float(qr @ kr)

    assert np.isclose(score(3, 5), score(10, 12), atol=1e-4)
    assert not np.isclose(score(3, 5), score(3, 9), atol=1e-4)


def test_pair_scaling_commutes_with_rotation(rope):
    """The invariance the outlier injection relies on (DESIGN.md)."""
    gen = np.random.default_rng(3)
    x = gen.standard_normal((1, 4, 8)).astype(np.float32)
    scale = np.ones(8, dtype=np.float32)
    scale[2:4] = 7.5  # one RoPE pair scaled uniformly
    scaled_then_rotated = rope(Tensor(x * scale)).data
    rotated_then_scaled = rope(Tensor(x)).data * scale
    np.testing.assert_allclose(scaled_then_rotated, rotated_then_scaled,
                               rtol=1e-5)


def test_offset_matches_slicing(rope):
    x = np.random.default_rng(4).standard_normal((1, 6, 8)).astype(np.float32)
    full = rope(Tensor(x)).data
    tail = rope(Tensor(x[:, 4:]), position_offset=4).data
    np.testing.assert_allclose(full[:, 4:], tail, atol=1e-6)


def test_backward_is_inverse_rotation(rope):
    x = Tensor(np.random.default_rng(5).standard_normal((1, 3, 8))
               .astype(np.float32), requires_grad=True)
    rope(x).sum().backward()
    # grad = R^T @ ones; rotating the grad forward recovers ones.
    g = rope(Tensor(x.grad)).data
    np.testing.assert_allclose(g, np.ones_like(g), atol=1e-5)


def test_rejects_odd_head_dim():
    with pytest.raises(ValueError):
        RotaryEmbedding(head_dim=7, max_seq_len=8)


def test_rejects_overflow_position(rope):
    x = Tensor(np.zeros((1, 30, 8), dtype=np.float32))
    with pytest.raises(ValueError):
        rope(x, position_offset=10)


def test_tables_are_views_and_nothing_is_memoised(rope):
    """Generate sessions over every prompt length visit O(max_seq_len^2)
    distinct (offset, seq) pairs; lookups must leave no state behind."""
    before = set(vars(rope))
    for offset in range(32):
        for seq in range(1, 33 - offset):
            cos, sin = rope.tables(offset, seq)
            assert cos.base is rope.cos and sin.base is rope.sin
    np.testing.assert_array_equal(rope.tables(3, 4)[0], rope.cos[3:7])
    assert set(vars(rope)) == before
    assert not any(isinstance(v, dict) for v in vars(rope).values())


def test_tables_at_matches_per_row_offsets(rope):
    """Per-row positions rotate each batch row like its own offset."""
    x = np.random.default_rng(6).standard_normal((2, 3, 4, 8)) \
        .astype(np.float32)
    positions = np.array([[5, 6, 7, 8], [20, 21, 22, 23]])
    cos, sin = rope.tables_at(positions)
    assert cos.shape == sin.shape == (2, 1, 4, 4)
    got = rotate(x, cos, sin)
    for row, offset in enumerate((5, 20)):
        np.testing.assert_array_equal(
            got[row], rope(Tensor(x[row]), position_offset=offset).data)


@pytest.mark.parametrize("bad", [-1, 32])
def test_tables_at_rejects_out_of_range(rope, bad):
    with pytest.raises(ValueError, match="positions outside"):
        rope.tables_at(np.array([[0, bad]]))
