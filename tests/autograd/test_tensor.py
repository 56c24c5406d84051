"""Tensor autograd tests with finite-difference verification."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.autograd.tensor import unbroadcast


def numeric_grad(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        up = f(x)
        x[idx] = orig - eps
        down = f(x)
        x[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def check_grad(op, *shapes, seed=0, atol=2e-2):
    gen = np.random.default_rng(seed)
    arrays = [gen.standard_normal(s).astype(np.float32) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    loss = out.sum() if out.size > 1 else out
    loss.backward()
    for i, (array, tensor) in enumerate(zip(arrays, tensors)):
        def scalar(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x.astype(np.float32))
            result = op(*args)
            return float(result.data.sum())
        expected = numeric_grad(scalar, array.astype(np.float64))
        np.testing.assert_allclose(tensor.grad, expected, atol=atol,
                                   err_msg=f"arg {i}")


def test_add_grad():
    check_grad(lambda a, b: a + b, (3, 4), (3, 4))


def test_add_broadcast_grad():
    check_grad(lambda a, b: a + b, (3, 4), (4,))
    check_grad(lambda a, b: a + b, (2, 3, 4), (1, 4))


def test_mul_grad():
    check_grad(lambda a, b: a * b, (3, 4), (3, 4))


def test_div_grad():
    check_grad(lambda a, b: a / (b * b + 1.0), (3,), (3,))


def test_pow_sqrt_grad():
    check_grad(lambda a: (a * a + 1.0).sqrt(), (5,))


def test_relu_grad_away_from_kink():
    gen = np.random.default_rng(0)
    x = gen.standard_normal((10,)).astype(np.float32)
    x[np.abs(x) < 0.1] = 0.5
    t = Tensor(x, requires_grad=True)
    t.relu().sum().backward()
    np.testing.assert_allclose(t.grad, (x > 0).astype(np.float32))


def test_matmul_grad():
    check_grad(lambda a, b: a @ b, (3, 4), (4, 2))


def test_batched_matmul_grad():
    check_grad(lambda a, b: a @ b, (2, 3, 4), (2, 4, 2))


def test_reductions_grad():
    check_grad(lambda a: a.sum(axis=1), (3, 4))
    check_grad(lambda a: a.mean(axis=0, keepdims=True), (3, 4))


def test_shape_ops_grad():
    check_grad(lambda a: a.reshape(6, 2), (3, 4))
    check_grad(lambda a: a.transpose(1, 0), (3, 4))


def test_getitem_grad():
    check_grad(lambda a: a[1:, :2], (3, 4))


def test_diamond_graph_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0
    y.backward()
    np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


def test_reused_tensor_accumulates_across_backwards():
    x = Tensor(np.array([1.0]), requires_grad=True)
    (x * 2).backward()
    (x * 3).backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = x * 2
    assert not y.requires_grad
    with pytest.raises(RuntimeError):
        y.backward(np.ones(3))


def test_backward_requires_scalar_without_seed():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        (x * 2).backward()


def test_unbroadcast_shapes():
    grad = np.ones((2, 3, 4))
    assert unbroadcast(grad, (3, 4)).shape == (3, 4)
    assert unbroadcast(grad, (1, 4)).shape == (1, 4)
    np.testing.assert_allclose(unbroadcast(grad, (1, 4)), np.full((1, 4), 6.0))


def test_detach_breaks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x.detach()
    assert not y.requires_grad
