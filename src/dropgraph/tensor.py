"""Dense float64 tensors with reverse-mode automatic differentiation.

A dynamic tape is recorded per forward pass, apart from the values: a
``Tensor`` is its array ``data`` plus its tape node, and a node holds only
its gradient, its parents' nodes, its backward closure and its op name.
Each closure keeps just the arrays its rule reads (a matmul the other
operand's value, only if this operand needs a gradient; a relu its output,
which the next op holds anyway; a sum a shape), so a value no backward reads
dies with its last user reference: a batch-norm output dies as soon as the
relu after it has run.  A value that needs no gradient gets a node (a
gradient-free leaf) only when it becomes a parent of a recorded op.
``backward()`` on a scalar walks the tape in reverse topological order and
populates ``grad`` on the leaves (parameters and inputs).  The order is the
reverse of a depth-first post-order from the scalar that enters each node's
parents last one first.  It is part of the records contract: a node with
several consumers sums their gradients in the order their closures run, and
another topological order (creation order, say) changes those sums in the
last bits and with them the run records.  The walk consumes
the graph: each interior node drops its gradient, closure and parent links
once its closure has run, and a second ``backward()`` through a consumed
node raises ``ContractError``.  The tape is rebuilt on every forward call,
so stochastic graph topologies (a different vertex set each step) need no
special handling.

Since no closure keeps a relu's input, ``record_relu_inputs`` collects the
input of every relu run under it; it is installed like ``no_grad``, and
``gradcheck.relu_margin`` reads it to find relu kinks.

Closures capture arrays at forward time, so ``data`` must not be rebound
between a forward pass and its ``backward()``.  No caller does: ``SGD.step``
rebinds after ``backward()``, and ``grad_check`` edits ``data`` in place and
then runs a new forward pass.  All values are float64; one tape must only
ever be driven by a single thread.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "no_grad",
    "record_relu_inputs",
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


# The list that ``record_relu_inputs`` installed, or None.
_relu_inputs = [None]


class record_relu_inputs:
    """Context manager: each relu inside appends its input array to the list it yields.

    With no recorder installed a relu pays one check.  A nested recorder
    hands what it collected on to the one it restores.
    """

    def __enter__(self):
        self._prev = _relu_inputs[0]
        self.inputs = _relu_inputs[0] = []
        return self.inputs

    def __exit__(self, *exc):
        _relu_inputs[0] = self._prev
        if self._prev is not None:
            self._prev.extend(self.inputs)
        return False


class _Node:
    """A tape entry: a leaf (no closure), or the record of one op."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, parents=(), backward=None, op="leaf", requires_grad=True):
        self.grad, self.requires_grad = None, requires_grad
        self._parents, self._backward, self._op = parents, backward, op

    def _check_live(self):
        """Raise if ``backward()`` consumed the tape here: an op node without its closure."""
        if self._backward is None and self._op != "leaf":
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


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None and self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, value):
        if bool(value) != self.requires_grad:  # a new leaf, or detached from any tape
            self._node = _Node() if value else None

    @property
    def grad(self):
        return self._node.grad if self.requires_grad else None

    @grad.setter
    def grad(self, value):
        if self.requires_grad:
            self._node.grad = value
        elif value is not None:
            raise ContractError("only a tensor that requires grad holds a gradient")

    # The tape as seen from a value, read by walks that start at a loss.
    _parents = property(lambda self: () if self._node is None else self._node._parents)
    _op = property(lambda self: "leaf" if self._node is None else self._node._op)

    # -- construction of op results -------------------------------------

    @staticmethod
    def _result(data, parents, backward, op):
        """An op's value, recorded on the tape only if a parent requires grad."""
        t = Tensor.__new__(Tensor)
        t.data = data
        t._node = None
        if _grad_enabled[0]:
            for p in parents:  # a loop, not any(): this runs once per op
                if p._node is not None and p._node.requires_grad:
                    t._node = _Node(tuple(map(_tape_node, parents)), backward, op)
                    break
        return t

    # -- basic introspection ---------------------------------------------

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}, op={self._op!r})"

    # -- backward pass ----------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every ``requires_grad`` leaf this scalar depends on.

        Each interior node is released as soon as its closure has run, so the
        tape's memory is freed as the walk goes; a second call through a
        consumed node raises ``ContractError``.  Gradients of leaves
        accumulate over calls; the trainer's optimizer clears them between
        steps.  Called on a leaf, it adds 1 to that leaf's own gradient.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            return  # no tape reaches a leaf that requires grad
        root = self._node
        # Iterative post-order over the op nodes (recursion would overflow on
        # long tapes).  A leaf runs no closure, so the walk never enters one;
        # an op node is entered once, and raises if its closure is gone.
        topo = []
        visited = set()
        stack = [] if root._op == "leaf" else [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
            elif node not in visited:
                if node._backward is None:
                    node._check_live()
                visited.add(node)
                stack.append((node, True))
                for p in node._parents:
                    if p._op != "leaf" and p not in visited:
                        stack.append((p, False))
        root._accum(np.ones_like(self.data))
        for node in reversed(topo):
            node._backward(node.grad, *node._parents)
            node.grad = None
            node._backward = None
            node._parents = ()

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


def _tape_node(t: Tensor) -> _Node:
    """``t``'s node as a parent on the tape; a value with none gets a gradient-free leaf."""
    if t._node is None:
        t._node = _Node(requires_grad=False)
    return t._node


def _zeros_like(a: np.ndarray):
    """A maker of ``np.zeros_like(a)`` that does not keep ``a``.  The zeros keep a's
    memory order (a gradient's order decides the summation order of reductions)."""
    shape = a.shape
    if a.flags.c_contiguous:
        return lambda: np.zeros(shape)
    axes = sorted(range(a.ndim), key=lambda i: -abs(a.strides[i]))  # outermost first
    back = sorted(range(a.ndim), key=axes.__getitem__)
    return lambda: np.zeros([shape[i] for i in axes]).transpose(back)


def _sum_to_shape(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise and arithmetic primitives ---------------------------------
# ``backward(g, *nodes)`` is passed its parents' nodes and closes over no parent
# Tensor.  A one-parent op is recorded only if its parent requires grad.  An
# operand's gradient that reads the other's value keeps it only if needed.


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    sa, sb = a.data.shape, b.data.shape

    def backward(g, na, nb):
        if na.requires_grad:
            na._accum(_sum_to_shape(g, sa))
        if nb.requires_grad:
            nb._accum(_sum_to_shape(g, sb))

    return Tensor._result(a.data + b.data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    sa, sb = a.data.shape, b.data.shape
    av, bv = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)

    def backward(g, na, nb):
        if na.requires_grad:
            na._accum(_sum_to_shape(g * bv, sa))
        if nb.requires_grad:
            nb._accum(_sum_to_shape(g * av, sb))

    return Tensor._result(a.data * b.data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    sa, sb = a.data.shape, b.data.shape
    av, bv = (a.data if b.requires_grad else None), b.data

    def backward(g, na, nb):
        if na.requires_grad:
            na._accum(_sum_to_shape(g / bv, sa))
        if nb.requires_grad:
            nb._accum(_sum_to_shape(-g * av / (bv * bv), sb))

    return Tensor._result(a.data / b.data, (a, b), backward, "div")


def power(a: Tensor, p) -> Tensor:
    p = float(p)
    av = a.data

    def backward(g, na):
        na._accum(g * p * av ** (p - 1.0))

    return Tensor._result(av**p, (a,), backward, "pow")


def relu(a: Tensor) -> Tensor:
    # Subgradient at exactly 0 is 0.  The output is > 0 exactly where the
    # input is, so the closure keeps the output and lets the input die.
    if _relu_inputs[0] is not None:
        _relu_inputs[0].append(a.data)
    out = np.maximum(a.data, 0.0)

    def backward(g, na):
        na._accum(g * (out > 0.0))

    return Tensor._result(out, (a,), backward, "relu")


# -- reductions and shape ops ----------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def backward(g, na):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        na._accum(np.broadcast_to(gg, shape).copy())

    return Tensor._result(np.asarray(out_data), (a,), backward, "sum")


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def backward(g, na):
        na._accum(g.reshape(old))

    return Tensor._result(a.data.reshape(shape), (a,), backward, "reshape")


def _matrix_t(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack: the last two axes swapped."""
    return x.T if x.ndim == 2 else np.swapaxes(x, -1, -2)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes: the transpose of each matrix of a stack."""

    def backward(g, na):
        na._accum(_matrix_t(g))

    return Tensor._result(_matrix_t(a.data), (a,), backward, "transpose")


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather ``a[idx]`` along the first axis; ``idx`` may have any shape and repeat."""
    idx = np.asarray(idx, dtype=np.intp)
    zeros = _zeros_like(a.data)

    def backward(g, na):
        ga = zeros()
        np.add.at(ga, idx, g)
        na._accum(ga)

    return Tensor._result(a.data[idx], (a,), backward, "take_rows")


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
    sa, sb = a.data.shape, b.data.shape
    av, bv = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)

    def backward(g, na, nb):
        if na.requires_grad:
            ga = g @ _matrix_t(bv)
            na._accum(_sum_to_shape(ga, sa))
        if nb.requires_grad:
            if len(sb) == 2:
                # One matrix shared by a stack: one GEMM over all the stack's rows.
                gb = av.reshape(-1, sa[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _sum_to_shape(_matrix_t(av) @ g, sb)
            nb._accum(gb)

    return Tensor._result(a.data @ b.data, (a, b), backward, "matmul")


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
    top[top == -np.inf] = 0.0  # a row with no True entry
    y = y - top
    np.exp(y, out=y)
    # A row sums to at least 1 (its maximum gives exp(0)) unless no entry is True.
    y /= np.maximum(y.sum(axis=-1, keepdims=True), 1.0)

    def backward(g, na):
        # dX = Y * (g - sum(g * Y, rows))
        gy = g * y
        np.subtract(g, gy.sum(axis=-1, keepdims=True), out=gy)
        gy *= y
        na._accum(gy)

    return Tensor._result(y, (a,), backward, "softmax_rows")


# -- spatial gather / scatter -------------------------------------------------


def _padded(rows: np.ndarray, valid):
    """``rows`` in order at the True entries of zeros shaped ``valid.shape + (c,)``, or as is."""
    if valid is None:
        return rows
    block = np.zeros(valid.shape + rows.shape[-1:])
    block[valid] = rows
    return block


def take_spatial_vectors(x: Tensor, indices: np.ndarray, valid=None) -> Tensor:
    """Gather the feature vectors of ``x`` at the (n, 3) rows (b, y, x) of ``indices``.

    Rows must be unique; the backward scatter relies on it.  Without
    ``valid`` the result is (n, c).  A boolean ``valid`` with n True entries
    gives a ``valid.shape + (c,)`` block: the gathered rows fill its True
    entries in order, and the other entries are zero rows that take no
    gradient.
    """
    ib, iy, ix = indices.T
    out_data = _padded(x.data[ib, :, iy, ix], valid)
    zeros = _zeros_like(x.data)

    def backward(g, nx):
        gx = zeros()
        gx[ib, :, iy, ix] = g if valid is None else g[valid]
        nx._accum(gx)

    return Tensor._result(out_data, (x,), backward, "take_spatial_vectors")


def replace_spatial_vectors(x: Tensor, indices: np.ndarray, rows: Tensor, valid=None) -> Tensor:
    """Copy of ``x`` with the feature vectors at the rows of ``indices`` replaced by ``rows``.

    Rows must be unique.  Without ``valid``, ``rows`` is (n, c).  With a
    boolean ``valid`` of n True entries, ``rows`` is ``valid.shape + (c,)``
    and its rows at the True entries are written in order; the others are
    ignored and get zero gradient.
    """
    ib, iy, ix = indices.T
    rows = _lift(rows)
    out_data = x.data.copy()
    out_data[ib, :, iy, ix] = rows.data if valid is None else rows.data[valid]

    def backward(g, nx, nr):
        if nr.requires_grad:
            nr._accum(_padded(g[ib, :, iy, ix], valid))
        if nx.requires_grad:
            gx = g.copy()
            gx[ib, :, iy, ix] = 0.0
            nx._accum(gx)

    return Tensor._result(out_data, (x, rows), backward, "replace_spatial_vectors")
