"""Finite-difference gradient verification.

``grad_check`` compares the tape's analytic gradient of a scalar-valued
tensor program against central differences.  It is the independent oracle
used throughout the test suite; it never calls into the backward pass it is
checking except to read the analytic result.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor, record_relu_inputs

__all__ = ["grad_check", "relu_margin"]


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

    # Index x.data itself: ravel() copies a strided array, and f would not see the change.
    data = x.data
    worst = 0.0
    for i in np.ndindex(data.shape):
        orig = data[i]
        data[i] = orig + eps
        f_plus = float(f(x).data)
        data[i] = orig - eps
        f_minus = float(f(x).data)
        data[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        denom = max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def relu_margin(f, x: Tensor):
    """``(f(x), margin)``: margin is the smallest nonzero |input| of any relu ``f`` runs.

    Used to reject gradient-check instances that sit too close to a relu
    kink, where central differences are invalid.  Exact zeros are ignored:
    they arise when an upstream relu is dead (the input is locally constant
    at 0), which is not a kink under perturbation of the checked variable.
    The margin is +inf when ``f`` runs no relu or feeds relus only zeros.
    """
    with record_relu_inputs() as inputs:
        out = f(x)
    margin = np.inf
    for src in inputs:
        src = np.abs(src)
        nonzero = src[src > 0.0]
        if nonzero.size:
            margin = min(margin, float(nonzero.min()))
    return out, margin
