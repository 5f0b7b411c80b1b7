"""Dense float64 tensors with reverse-mode automatic differentiation.

A dynamic tape is recorded per forward pass: every operation closes over its
inputs and knows how to push gradients back to them.  ``backward()`` on a
scalar walks the tape in reverse topological order.  The tape is rebuilt on
every forward call, so stochastic graph topologies (a different vertex set
each step) need no special handling.

All values are float64.  Tensors are immutable after construction except for
gradient accumulation; one tape must only ever be driven by a single thread.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "mul",
    "matmul",
    "relu",
    "softmax_rows",
    "slice_axis",
    "concat",
    "take_spatial_vectors",
    "replace_spatial_vectors",
]

# Module-level switch so evaluation passes can skip tape construction.
_grad_enabled = [True]


class no_grad:
    """Context manager: operations inside record no tape."""

    def __enter__(self):
        self._prev = _grad_enabled[0]
        _grad_enabled[0] = False
        return self

    def __exit__(self, *exc):
        _grad_enabled[0] = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    # -- construction of op results -------------------------------------

    @staticmethod
    def _result(data, parents, backward, op):
        t = Tensor.__new__(Tensor)
        t.data = data
        t.grad = None
        if _grad_enabled[0] and any(p.requires_grad for p in parents):
            t.requires_grad = True
            t._parents = parents
            t._backward = backward
        else:
            t.requires_grad = False
            t._parents = ()
            t._backward = None
        t._op = op
        return t

    # -- basic introspection ---------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}, op={self._op!r})"

    # -- backward pass ----------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every ``requires_grad`` ancestor.

        Repeated calls without resetting grads accumulate; the trainer is
        responsible for zeroing between steps.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        # Iterative post-order: recursion would overflow on long tapes.
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def _accum(self, g):
        # Accumulation is always out-of-place; grads are never mutated in place.
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), neg(self))

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def relu(self):
        return relu(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _sum_to_shape(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise and arithmetic primitives ---------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_sum_to_shape(g, a.data.shape))
        if b.requires_grad:
            b._accum(_sum_to_shape(g, b.data.shape))

    return Tensor._result(out_data, (a, b), backward, "add")


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(-g)

    return Tensor._result(-a.data, (a,), backward, "neg")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_sum_to_shape(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_sum_to_shape(g * a.data, b.data.shape))

    return Tensor._result(out_data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_sum_to_shape(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_sum_to_shape(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._result(out_data, (a, b), backward, "div")


def power(a: Tensor, p) -> Tensor:
    p = float(p)
    out_data = a.data**p

    def backward(g):
        if a.requires_grad:
            a._accum(g * p * a.data ** (p - 1.0))

    return Tensor._result(out_data, (a,), backward, "pow")


def relu(a: Tensor) -> Tensor:
    # Subgradient at exactly 0 is 0.
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accum(g * (a.data > 0.0))

    return Tensor._result(out_data, (a,), backward, "relu")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accum(g * out_data)

    return Tensor._result(out_data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accum(g / a.data)

    return Tensor._result(out_data, (a,), backward, "log")


# -- reductions and shape ops ----------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(gg, a.data.shape).copy())

    return Tensor._result(np.asarray(out_data), (a,), backward, "sum")


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.size / out_data.size

    def backward(g):
        if not a.requires_grad:
            return
        gg = g / count
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        a._accum(np.broadcast_to(gg, a.data.shape).copy())

    return Tensor._result(np.asarray(out_data), (a,), backward, "mean")


def reshape(a: Tensor, shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accum(g.reshape(a.data.shape))

    return Tensor._result(out_data, (a,), backward, "reshape")


def transpose(a: Tensor, axes=None) -> Tensor:
    out_data = a.data.transpose(axes) if axes else a.data.T
    inv = np.argsort(axes) if axes else None

    def backward(g):
        if a.requires_grad:
            a._accum(g.transpose(inv) if axes else g.T)

    return Tensor._result(out_data, (a,), backward, "transpose")


def slice_axis(a: Tensor, axis: int, lo: int, hi: int) -> Tensor:
    """Contiguous slice ``a[..., lo:hi, ...]`` along one axis."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(lo, hi)
    idx = tuple(idx)
    out_data = a.data[idx]

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[idx] = g
            a._accum(ga)

    return Tensor._result(out_data, (a,), backward, "slice_axis")


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows of a 2-D tensor by index (indices may repeat)."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[idx]

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            np.add.at(ga, idx, g)
            a._accum(ga)

    return Tensor._result(out_data, (a,), backward, "take_rows")


def concat(tensors, axis=0) -> Tensor:
    tensors = tuple(_lift(t) for t in tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return Tensor._result(out_data, tensors, backward, "concat")


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return Tensor._result(out_data, (a, b), backward, "matmul")


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, stabilized by row-max subtraction."""
    if a.data.ndim != 2:
        raise DimensionError(f"softmax_rows expects a 2-D tensor, got {a.data.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            # dX = Y * (g - sum(g * Y, rows))
            a._accum(y * (g - (g * y).sum(axis=1, keepdims=True)))

    return Tensor._result(y, (a,), backward, "softmax_rows")


# -- spatial gather / scatter -------------------------------------------------


def take_spatial_vectors(x: Tensor, ib, iy, ix) -> Tensor:
    """Gather feature vectors at positions (ib[i], :, iy[i], ix[i]) into (n, c).

    Positions must be unique; the backward scatter relies on it.
    """
    ib = np.asarray(ib, dtype=np.intp)
    iy = np.asarray(iy, dtype=np.intp)
    ix = np.asarray(ix, dtype=np.intp)
    out_data = x.data[ib, :, iy, ix]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[ib, :, iy, ix] = g
            x._accum(gx)

    return Tensor._result(out_data, (x,), backward, "take_spatial_vectors")


def replace_spatial_vectors(x: Tensor, ib, iy, ix, rows: Tensor) -> Tensor:
    """Copy of ``x`` with feature vectors at the given positions replaced by ``rows``.

    Positions must be unique.
    """
    ib = np.asarray(ib, dtype=np.intp)
    iy = np.asarray(iy, dtype=np.intp)
    ix = np.asarray(ix, dtype=np.intp)
    rows = _lift(rows)
    out_data = x.data.copy()
    out_data[ib, :, iy, ix] = rows.data

    def backward(g):
        if rows.requires_grad:
            rows._accum(g[ib, :, iy, ix])
        if x.requires_grad:
            gx = g.copy()
            gx[ib, :, iy, ix] = 0.0
            x._accum(gx)

    return Tensor._result(out_data, (x, rows), backward, "replace_spatial_vectors")
