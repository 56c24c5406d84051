"""Core :class:`Tensor` with reverse-mode autodiff.

The design follows the classic tape-less topological-sort approach: every
operation returns a new ``Tensor`` holding a ``_backward`` closure that
scatters the output gradient to its parents.  Broadcasting is supported by
summing gradients over broadcast axes (:func:`unbroadcast`).

Only the operations needed by the transformer substrate are implemented;
each is exercised by finite-difference checks in ``tests/autograd``.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=np.float32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float32`` unless it already is a
        floating numpy array.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False, _prev: Sequence["Tensor"] = ()):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward = None
        self._prev: tuple[Tensor, ...] = tuple(_prev)

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # ------------------------------------------------------------------ #
    # graph machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: Iterable["Tensor"]) -> "Tensor":
        parents = [p for p in parents if isinstance(p, Tensor)]
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs, _prev=parents if needs else ())
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without seed needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float32))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data + other.data, (self, other))
        if out.requires_grad:
            def _backward(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(unbroadcast(g, a.shape))
                if b.requires_grad:
                    b._accumulate(unbroadcast(g, b.shape))
            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))
        if out.requires_grad:
            def _backward(g, a=self):
                a._accumulate(-g)
            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data * other.data, (self, other))
        if out.requires_grad:
            def _backward(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(unbroadcast(g * b.data, a.shape))
                if b.requires_grad:
                    b._accumulate(unbroadcast(g * a.data, b.shape))
            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self * self._lift(other).pow(-1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        out = self._make(self.data ** exponent, (self,))
        if out.requires_grad:
            def _backward(g, a=self, p=exponent):
                a._accumulate(g * p * (a.data ** (p - 1.0)))
            out._backward = _backward
        return out

    __pow__ = pow

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    def relu(self) -> "Tensor":
        out = self._make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            def _backward(g, a=self):
                a._accumulate(g * (a.data > 0.0))
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data @ other.data, (self, other))
        if out.requires_grad:
            def _backward(g, a=self, b=other):
                if a.requires_grad:
                    ga = g @ np.swapaxes(b.data, -1, -2)
                    a._accumulate(unbroadcast(ga, a.shape))
                if b.requires_grad:
                    gb = np.swapaxes(a.data, -1, -2) @ g
                    b._accumulate(unbroadcast(gb, b.shape))
            out._backward = _backward
        return out

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def _backward(g, a=self, axis=axis, keepdims=keepdims):
                if axis is None:
                    grad = np.broadcast_to(g, a.shape)
                else:
                    if not keepdims:
                        g = np.expand_dims(g, axis)
                    grad = np.broadcast_to(g, a.shape)
                a._accumulate(np.ascontiguousarray(grad))
            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            def _backward(g, a=self):
                a._accumulate(g.reshape(a.shape))
            out._backward = _backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out = self._make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inverse = tuple(np.argsort(axes))
            def _backward(g, a=self, inverse=inverse):
                a._accumulate(np.ascontiguousarray(g.transpose(inverse)))
            out._backward = _backward
        return out

    def __getitem__(self, key) -> "Tensor":
        out = self._make(self.data[key], (self,))
        if out.requires_grad:
            def _backward(g, a=self, key=key):
                grad = np.zeros_like(a.data)
                np.add.at(grad, key, g)
                a._accumulate(grad)
            out._backward = _backward
        return out
