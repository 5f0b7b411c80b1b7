"""Finite-difference gradient verification.

``grad_check`` compares the tape's analytic gradient of a scalar-valued
tensor program against central differences.  It is the independent oracle
used throughout the test suite; it never calls into the backward pass it is
checking except to read the analytic result.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor

__all__ = ["grad_check", "min_relu_margin"]


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map ``x`` to a scalar Tensor and be deterministic (pin any
    RNG before calling).  The error at coordinate i is
    ``|analytic_i - numeric_i| / max(1, |analytic_i|, |numeric_i|)``.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    x.requires_grad = True
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise ContractError(f"grad_check needs a scalar-valued f, got shape {out.data.shape}")
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else np.asarray(x.grad, dtype=np.float64)
    analytic = analytic.reshape(x.data.shape).copy()

    flat = x.data.ravel()
    ana = analytic.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(x).data)
        flat[i] = orig - eps
        f_minus = float(f(x).data)
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        denom = max(1.0, abs(ana[i]), abs(numeric))
        worst = max(worst, abs(ana[i] - numeric) / denom)
    return worst


def min_relu_margin(out: Tensor) -> float:
    """Smallest nonzero |input| feeding any relu on the tape rooted at ``out``.

    Used to reject gradient-check instances that sit too close to a relu
    kink, where central differences are invalid.  Exact zeros are ignored:
    they arise when an upstream relu is dead (the input is locally constant
    at 0), which is not a kink under perturbation of the checked variable.
    Returns +inf when the tape contains no relu input near a kink.  Call
    it before ``backward()``: a consumed tape has no parents to search and
    raises ``ContractError``.
    """
    margin = np.inf
    seen = set()
    stack = [] if out._node is None else [out._node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        node._check_live()
        if node._op == "relu":
            src = np.abs(node._backward.input)  # relu's backward keeps its input
            nonzero = src[src > 0.0]
            if nonzero.size:
                margin = min(margin, float(nonzero.min()))
        stack.extend(node._parents)
    return margin
