"""Property-based gradient checks over random op chains."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor

OPS = {
    "sqrt_shifted": lambda t: (t * t + 1.0).sqrt(),
    "reciprocal_shifted": lambda t: 1.0 / (t * t + 1.0),
    "square": lambda t: t * t,
    "affine": lambda t: t * 1.7 + 0.3,
}


@settings(max_examples=30, deadline=None)
@given(chain=st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=4),
       seed=st.integers(0, 10_000))
def test_random_chain_gradient_matches_finite_difference(chain, seed):
    gen = np.random.default_rng(seed)
    x_np = gen.uniform(-1.5, 1.5, size=(4,)).astype(np.float32)

    def apply_chain(tensor):
        for name in chain:
            tensor = OPS[name](tensor)
        return tensor.sum()

    x = Tensor(x_np.copy(), requires_grad=True)
    apply_chain(x).backward()

    eps = 1e-3
    numeric = np.zeros_like(x_np, dtype=np.float64)
    for i in range(x_np.size):
        bumped = x_np.astype(np.float64).copy()
        bumped[i] += eps
        up = float(apply_chain(Tensor(bumped.astype(np.float32))).data)
        bumped[i] -= 2 * eps
        down = float(apply_chain(Tensor(bumped.astype(np.float32))).data)
        numeric[i] = (up - down) / (2 * eps)
    # Tolerance relative to gradient magnitude: composed chains (e.g.
    # square^3) legitimately produce large derivatives where float32
    # forward passes limit finite-difference accuracy.
    tolerance = 5e-2 * max(1.0, float(np.abs(numeric).max()))
    np.testing.assert_allclose(x.grad, numeric, atol=tolerance)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 5), k=st.integers(1, 5), n=st.integers(1, 5),
       seed=st.integers(0, 1000))
def test_matmul_grad_shapes_property(m, k, n, seed):
    gen = np.random.default_rng(seed)
    a = Tensor(gen.standard_normal((m, k)).astype(np.float32),
               requires_grad=True)
    b = Tensor(gen.standard_normal((k, n)).astype(np.float32),
               requires_grad=True)
    (a @ b).sum().backward()
    assert a.grad.shape == (m, k)
    assert b.grad.shape == (k, n)
    # d(sum(AB))/dA = 1 B^T exactly.
    np.testing.assert_allclose(a.grad, np.ones((m, n)) @ b.data.T, atol=1e-5)
