import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from test_nn import CONV_GRID, KERNEL_SIZES

from dropgraph import _conv, nn
from dropgraph.tensor import Tensor

RNG = np.random.default_rng(20261017)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_conv_working_set_is_one_item_of_columns():
    """Columns are unfolded per batch item, never for the whole batch, and
    the padding is applied while unfolding."""
    n, c, k = 64, 16, 3
    x = RNG.normal(size=(n, c, 32, 32))
    w = RNG.normal(size=(16, c, k, k))
    item_cols = c * k * k * 32 * 32 * 8

    out, peak = _peak_bytes(_conv.conv_forward, x, w, 1, 32, 32, 1)
    assert out.shape == (n, 16, 32, 32)
    assert peak <= out.nbytes + 2 * item_cols

    g = np.ascontiguousarray(out)
    dw, peak = _peak_bytes(_conv.conv_dw, x, g, 1, k, 1)
    assert dw.shape == w.shape
    assert peak <= dw.nbytes + 2 * item_cols

    dx, peak = _peak_bytes(_conv.conv_dx_full, g, w, 1, 1, 32, 32)
    assert dx.shape == x.shape
    assert peak <= dx.nbytes + 2 * item_cols


def test_strided_dx_builds_no_dilated_grid():
    """Each phase of the input grid is unfolded per item from the output gradient
    itself; the stride-dilated gradient (here 2.3x dx) is never built."""
    n, cin, cout, k, stride = 64, 16, 32, 3, 2
    w = RNG.normal(size=(cout, cin, k, k))
    g = RNG.normal(size=(n, cout, 16, 16))
    taps = -(-k // stride)  # the most kernel taps that land on one phase, per axis
    phase_cols = cout * taps * taps * 16 * 16 * 8

    dx, peak = _peak_bytes(_conv.conv_dx_full, g, w, stride, 1, 32, 32)
    assert dx.shape == (n, cin, 32, 32)
    assert peak <= dx.nbytes + 2 * phase_cols


def test_padded_conv2d_makes_no_padded_copy():
    """The zero padding is applied inside the unfold, not by padding the batch."""
    n, c, k = 64, 16, 3
    x = Tensor(RNG.normal(size=(n, c, 32, 32)))
    w = Tensor(RNG.normal(size=(16, c, k, k)))
    item_cols = c * k * k * 32 * 32 * 8

    out, peak = _peak_bytes(nn.conv2d, x, w, None, 1, 1)
    assert out.data.shape == (n, 16, 32, 32)
    assert peak <= out.data.nbytes + 2 * item_cols


def test_dx_does_not_go_through_the_public_forward(monkeypatch):
    """A wrapper installed on conv_forward, such as a tracer, sees only forward convs."""
    def fail(*args):
        raise AssertionError("conv_dx_full called conv_forward")

    monkeypatch.setattr(_conv, "conv_forward", fail)
    w = RNG.normal(size=(4, 3, 3, 3))
    assert _conv.conv_dx_full(RNG.normal(size=(2, 4, 7, 7)), w, 1, 1, 7, 7).shape == (2, 3, 7, 7)
    assert _conv.conv_dx_full(RNG.normal(size=(2, 4, 4, 4)), w, 2, 1, 7, 7).shape == (2, 3, 7, 7)


def dense_dx(g, weights, stride, padding, h, w):
    """The input gradient as a full correlation of the stride-dilated output
    gradient with the flipped kernel, cropped to the unpadded (h, w) input."""
    n, cout, oh, ow = g.shape
    k = weights.shape[2]
    grid = np.zeros((n, cout, (oh - 1) * stride + 2 * k - 1, (ow - 1) * stride + 2 * k - 1))
    grid[:, :, k - 1:k - 1 + (oh - 1) * stride + 1:stride,
         k - 1:k - 1 + (ow - 1) * stride + 1:stride] = g
    windows = np.lib.stride_tricks.sliding_window_view(grid, (k, k), axis=(2, 3))
    full = np.einsum("nohwuv,oiuv->nihw", windows, weights[:, :, ::-1, ::-1])
    padded = np.zeros((n, weights.shape[1], h + 2 * padding, w + 2 * padding))
    rows, cols = min(full.shape[2], padded.shape[2]), min(full.shape[3], padded.shape[3])
    padded[:, :, :rows, :cols] = full[:, :, :rows, :cols]
    return padded[:, :, padding:padding + h, padding:padding + w]


def dense_dw(x, g, stride, padding, k):
    """The kernel gradient summed over every (item, output position) of the padded input."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = g.shape[2:]
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    windows = windows[:, :, :(oh - 1) * stride + 1:stride, :(ow - 1) * stride + 1:stride]
    return np.einsum("nchwuv,nohw->ocuv", windows, g)


@pytest.mark.parametrize("stride,pad,h", CONV_GRID)
def test_backward_matches_the_dense_dilated_grid_formula(stride, pad, h):
    for k in KERNEL_SIZES:
        if k < pad:
            continue
        x = RNG.normal(size=(2, 3, h, h + 1))
        w = RNG.normal(size=(4, 3, k, k))
        oh, ow = (h + 2 * pad - k) // stride + 1, (h + 1 + 2 * pad - k) // stride + 1
        g = RNG.normal(size=(2, 4, oh, ow))
        for got, want in ((_conv.conv_dx_full(g, w, stride, pad, h, h + 1),
                           dense_dx(g, w, stride, pad, h, h + 1)),
                          (_conv.conv_dw(x, g, stride, k, pad), dense_dw(x, g, stride, pad, k))):
            # Relative to the largest entry: an entry that cancels to near 0
            # keeps the rounding error of its terms.
            npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("h,w,k,stride,pad", [(1, 1, 1, 2, 0), (1, 2, 1, 3, 0), (2, 1, 3, 3, 1),
                                              (1, 1, 3, 2, 1), (2, 2, 2, 3, 0)])
def test_dx_of_a_map_with_fewer_rows_or_columns_than_phases(h, w, k, stride, pad):
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    g = RNG.normal(size=(2, 4, oh, ow))
    weights = RNG.normal(size=(4, 3, k, k))
    want = dense_dx(g, weights, stride, pad, h, w)
    npt.assert_allclose(_conv.conv_dx_full(g, weights, stride, pad, h, w), want,
                        rtol=1e-13, atol=1e-13 * np.abs(want).max())
