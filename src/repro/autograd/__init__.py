"""Reverse-mode automatic differentiation over numpy arrays.

This is the training substrate for the reproduction: a small, explicit
tensor library with broadcasting-aware gradients.  It exists so the
LLaMA-style models quantized by :mod:`repro.quant` and :mod:`repro.core`
can be trained from scratch without any external ML framework.
"""

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd import functional

__all__ = ["Tensor", "no_grad", "functional"]
