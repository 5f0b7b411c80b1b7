"""Dense float64 tensors with reverse-mode automatic differentiation.

A dynamic tape is recorded per forward pass: every operation closes over its
inputs and knows how to push gradients back to them.  ``backward()`` on a
scalar walks the tape in reverse topological order and populates ``grad`` on
the leaves (parameters and inputs).  The walk consumes the graph: each
interior node drops its gradient, closure and parent links once its closure
has run, so a finished step holds no tape, and a second ``backward()``
through a consumed node raises ``ContractError``.  The tape is rebuilt on
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
        # The closure is kept only if a parent requires grad, so a one-parent
        # op's ``backward`` need not check its parent.
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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}, op={self._op!r})"

    # -- backward pass ----------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every ``requires_grad`` leaf this scalar depends on.

        The graph is consumed: every interior node is released (``grad``,
        closure and parents dropped) right after its closure has run, so
        only the leaves keep gradients and the tape's memory is freed as
        the walk goes.  A second call through any consumed node raises
        ``ContractError``; build the graph again instead.  Gradients of
        leaves accumulate over calls; the trainer zeroes them between steps.
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
            node._check_live()
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None
                node._backward = None
                node._parents = ()

    def _check_live(self):
        """Raise if ``backward()`` already consumed the tape through this node.

        An op result that requires grad always holds its closure until a
        backward pass releases it, so a missing closure marks it consumed.
        """
        if self.requires_grad and self._backward is None and self._op != "leaf":
            raise ContractError(
                f"the tape through this {self._op!r} node was already consumed by "
                "backward(); run the forward pass again"
            )

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

    def __sub__(self, other):
        return add(self, _lift(other) * -1.0)

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __pow__(self, p):
        return power(self, p)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        total = tsum(self, axis=axis, keepdims=keepdims)
        return total / (self.data.size / total.data.size)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self):
        return transpose(self)


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
        a._accum(g * p * a.data ** (p - 1.0))

    return Tensor._result(out_data, (a,), backward, "pow")


def relu(a: Tensor) -> Tensor:
    # Subgradient at exactly 0 is 0.
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accum(g * (a.data > 0.0))

    return Tensor._result(out_data, (a,), backward, "relu")


# -- reductions and shape ops ----------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(gg, a.data.shape).copy())

    return Tensor._result(np.asarray(out_data), (a,), backward, "sum")


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accum(g.reshape(a.data.shape))

    return Tensor._result(out_data, (a,), backward, "reshape")


def _matrix_t(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack: the last two axes swapped."""
    return x.T if x.ndim == 2 else np.swapaxes(x, -1, -2)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes: the transpose of each matrix of a stack."""
    out_data = _matrix_t(a.data)

    def backward(g):
        a._accum(_matrix_t(g))

    return Tensor._result(out_data, (a,), backward, "transpose")


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather ``a[idx]`` along the first axis; ``idx`` may have any shape and repeat."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        a._accum(ga)

    return Tensor._result(out_data, (a,), backward, "take_rows")


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as a stack."""
    a, b = _lift(a), _lift(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul expects operands of at least 2 dims, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ _matrix_t(b.data)
            a._accum(ga if ga.shape == a.data.shape else _sum_to_shape(ga, a.data.shape))
        if b.requires_grad:
            if b.data.ndim == 2:
                # One matrix shared by a stack: one GEMM over all the stack's rows.
                gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _sum_to_shape(_matrix_t(a.data) @ g, b.data.shape)
            b._accum(gb)

    return Tensor._result(out_data, (a, b), backward, "matmul")


def softmax_rows(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, stabilized by subtracting the row maximum.

    With a boolean ``mask`` (broadcastable to ``a``) only the True entries
    of a row compete: the others get probability 0 and no gradient, and a
    row with no True entry is all zeros.
    """
    if a.data.ndim < 1:
        raise DimensionError("softmax_rows expects at least 1 dim, got a scalar")
    y = a.data if mask is None else np.where(mask, a.data, -np.inf)
    top = y.max(axis=-1, keepdims=True)
    top[np.isneginf(top)] = 0.0  # a row with no True entry
    y = y - top
    np.exp(y, out=y)
    # A row sums to at least 1 (its maximum gives exp(0)) unless no entry is True.
    y /= np.maximum(y.sum(axis=-1, keepdims=True), 1.0)

    def backward(g):
        # dX = Y * (g - sum(g * Y, rows))
        gy = g * y
        np.subtract(g, gy.sum(axis=-1, keepdims=True), out=gy)
        gy *= y
        a._accum(gy)

    return Tensor._result(y, (a,), backward, "softmax_rows")


# -- spatial gather / scatter -------------------------------------------------


def take_spatial_vectors(x: Tensor, ib, iy, ix, valid=None) -> Tensor:
    """Gather feature vectors at positions (ib, :, iy, ix) into shape ``ib.shape + (c,)``.

    Positions must be unique; the backward scatter relies on it.  With a
    boolean ``valid`` of the index shape only its True entries are
    positions: the others read as zero rows and take no gradient.
    """
    ib, iy, ix = (np.asarray(i, dtype=np.intp) for i in (ib, iy, ix))
    out_data = x.data[ib, :, iy, ix]
    if valid is not None:
        out_data[~valid] = 0.0
        ib, iy, ix = ib[valid], iy[valid], ix[valid]

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[ib, :, iy, ix] = g if valid is None else g[valid]
        x._accum(gx)

    return Tensor._result(out_data, (x,), backward, "take_spatial_vectors")


def replace_spatial_vectors(x: Tensor, ib, iy, ix, rows: Tensor, valid=None) -> Tensor:
    """Copy of ``x`` with feature vectors at the given positions replaced by ``rows``.

    ``rows`` has shape ``ib.shape + (c,)`` and positions must be unique.
    With a boolean ``valid`` only its True entries are written; the other
    rows are ignored and get zero gradient.
    """
    ib, iy, ix = (np.asarray(i, dtype=np.intp) for i in (ib, iy, ix))
    rows = _lift(rows)
    if valid is not None:
        ib, iy, ix = ib[valid], iy[valid], ix[valid]
    out_data = x.data.copy()
    out_data[ib, :, iy, ix] = rows.data if valid is None else rows.data[valid]

    def backward(g):
        if rows.requires_grad:
            if valid is None:
                rows._accum(g[ib, :, iy, ix])
            else:
                gr = np.zeros_like(rows.data)
                gr[valid] = g[ib, :, iy, ix]
                rows._accum(gr)
        if x.requires_grad:
            gx = g.copy()
            gx[ib, :, iy, ix] = 0.0
            x._accum(gx)

    return Tensor._result(out_data, (x, rows), backward, "replace_spatial_vectors")
