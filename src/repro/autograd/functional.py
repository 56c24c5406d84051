"""Neural-network level functions built on :class:`~repro.autograd.Tensor`.

``softmax`` and ``cross_entropy`` are implemented as primitives with
analytic backward passes (numerically stable and much faster than the
composed graphs); ``rms_norm`` is composed from primitives.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=axis, keepdims=True)
    out = x._make(probs, (x,))
    if out.requires_grad:
        def _backward(g, a=x, p=probs, axis=axis):
            inner = (g * p).sum(axis=axis, keepdims=True)
            a._accumulate(p * (g - inner))
        out._backward = _backward
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy.

    Parameters
    ----------
    logits:
        ``(N, V)`` unnormalised scores.
    targets:
        ``(N,)`` integer class ids.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}")
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    nll = -logp[np.arange(n), targets]
    out = logits._make(np.asarray(nll.mean(), dtype=np.float32), (logits,))
    if out.requires_grad:
        def _backward(g, a=logits, logp=logp, targets=targets, n=n):
            grad = np.exp(logp)
            grad[np.arange(n), targets] -= 1.0
            a._accumulate(grad * (g / n))
        out._backward = _backward
    return out


def nll_per_token(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-token negative log likelihood for plain arrays (evaluation path).

    Used by the perplexity harness where no gradients are needed.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsumexp
    flat = logp.reshape(-1, logp.shape[-1])
    idx = np.asarray(targets).reshape(-1)
    return -flat[np.arange(flat.shape[0]), idx].reshape(np.asarray(targets).shape)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather ``weight[indices]`` with scatter-add backward."""
    indices = np.asarray(indices)
    out = weight._make(weight.data[indices], (weight,))
    if out.requires_grad:
        def _backward(g, w=weight, indices=indices):
            grad = np.zeros_like(w.data)
            np.add.at(grad, indices.reshape(-1), g.reshape(-1, g.shape[-1]))
            w._accumulate(grad)
        out._backward = _backward
    return out


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square layer norm (LLaMA-style, no mean subtraction)."""
    mean_square = (x * x).mean(axis=-1, keepdims=True)
    return x * (mean_square + eps).pow(-0.5) * gain

