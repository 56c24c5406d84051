"""Basic layers: Linear, Embedding, RMSNorm.

``Linear`` is the quantization surface of the whole reproduction: every
weight-quantization method in :mod:`repro.quant` and :mod:`repro.core`
rewrites ``Linear.weight`` (out_features x in_features, row = output
channel) and attaches its bit-accounting metadata to the layer.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, functional as F
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b`` with weight shape ``(out, in)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = False,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        # Gaussian init: trained LLM weights are heavy-tailed/Gaussian, and
        # the quantization-grid behaviour the paper studies depends on it.
        scale = 1.0 / np.sqrt(in_features)
        weight = rng.standard_normal((out_features, in_features)) * scale
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight.astype(np.float32))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        # Populated by quantizers (see repro.quant.base.QuantRecord).
        self.quant_record = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a raw array, for the serving forward.

        ``weight.data`` is read at call time (quantizers reassign it,
        outlier injection edits it in place) and multiplied as the same
        transposed *view*: a contiguous ``W.T`` copy would go stale and,
        at ``seq == 1``, takes a GEMV kernel that rounds differently.
        A span (``seq > 1``) runs as one ``(rows * seq, d)`` GEMM, not one
        per row; flattening ``seq == 1`` would break parity with generate.
        """
        weight = self.weight.data.T
        if x.shape[-2] > 1:
            out = (x.reshape(-1, x.shape[-1]) @ weight).reshape(
                *x.shape[:-1], weight.shape[1])
        else:
            out = x @ weight
        return out if self.bias is None else out + self.bias.data

    def __repr__(self) -> str:
        tag = "" if self.quant_record is None else f", quant={self.quant_record.method}"
        return f"Linear({self.in_features}, {self.out_features}{tag})"


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            rng.standard_normal((num_embeddings, dim)).astype(np.float32) * 0.02)

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


class RMSNorm(Module):
    """LLaMA-style RMS normalisation with learned gain."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps
        self.gain = Parameter(np.ones(dim, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.rms_norm(x, self.gain, eps=self.eps)

    def apply(self, x: np.ndarray, inv_dim: np.float32) -> np.ndarray:
        """:func:`F.rms_norm` on a raw array, op for op in float32
        (``inv_dim``: the caller's hoisted ``float32(1 / dim)``)."""
        mean_square = (x * x).sum(axis=-1, keepdims=True) * inv_dim
        return x * (mean_square + np.float32(self.eps)) ** -0.5 \
            * self.gain.data
