"""NN-level functional tests."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from tests.autograd.test_tensor import check_grad, numeric_grad


def test_softmax_rows_sum_to_one():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
    probs = F.softmax(x, axis=-1).data
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(4), atol=1e-6)


def test_softmax_stable_for_large_logits():
    x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
    probs = F.softmax(x).data
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs[0, :2], [0.5, 0.5], atol=1e-6)


def test_softmax_grad():
    check_grad(lambda a: F.softmax(a, axis=-1), (3, 5))


def test_cross_entropy_value():
    logits = Tensor(np.zeros((2, 4), dtype=np.float32))
    loss = F.cross_entropy(logits, np.array([0, 3]))
    np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-6)


def test_cross_entropy_grad_matches_numeric():
    gen = np.random.default_rng(2)
    logits_np = gen.standard_normal((5, 7)).astype(np.float32)
    targets = gen.integers(0, 7, size=5)
    logits = Tensor(logits_np.copy(), requires_grad=True)
    F.cross_entropy(logits, targets).backward()

    def scalar(x):
        return float(F.cross_entropy(Tensor(x.astype(np.float32)),
                                     targets).data)
    expected = numeric_grad(scalar, logits_np.astype(np.float64))
    np.testing.assert_allclose(logits.grad, expected, atol=2e-3)


def test_cross_entropy_validates_shapes():
    with pytest.raises(ValueError):
        F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        F.cross_entropy(Tensor(np.zeros((2, 4))), np.zeros(3, dtype=int))


def test_nll_per_token_matches_cross_entropy():
    gen = np.random.default_rng(3)
    logits = gen.standard_normal((4, 9)).astype(np.float32)
    targets = gen.integers(0, 9, size=4)
    nll = F.nll_per_token(logits, targets)
    loss = F.cross_entropy(Tensor(logits), targets)
    np.testing.assert_allclose(nll.mean(), loss.data, atol=1e-6)


def test_embedding_gather_and_scatter():
    weight = Tensor(np.arange(12.0).reshape(4, 3).astype(np.float32),
                    requires_grad=True)
    indices = np.array([[0, 2], [2, 3]])
    out = F.embedding(weight, indices)
    np.testing.assert_allclose(out.data[0, 1], weight.data[2])
    out.sum().backward()
    # Row 2 used twice, rows 0 and 3 once, row 1 never.
    np.testing.assert_allclose(weight.grad[:, 0], [1.0, 0.0, 2.0, 1.0])


def test_rms_norm_unit_scale():
    x = Tensor(np.random.default_rng(4).standard_normal((2, 8)).astype(np.float32))
    gain = Tensor(np.ones(8, dtype=np.float32))
    out = F.rms_norm(x, gain).data
    rms = np.sqrt((out ** 2).mean(axis=-1))
    np.testing.assert_allclose(rms, np.ones(2), atol=1e-3)


def test_rms_norm_grad():
    check_grad(lambda a, g: F.rms_norm(a, g), (3, 8), (8,))
