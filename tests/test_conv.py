import tracemalloc

import numpy as np

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

    gp = _conv.dx_grid(g, 1, 1, k, 32, 32)
    dx, peak = _peak_bytes(_conv.conv_dx_full, gp, w)
    assert dx.shape == x.shape
    assert peak <= dx.nbytes + 2 * item_cols


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
    gp = RNG.normal(size=(2, 4, 9, 9))
    assert _conv.conv_dx_full(gp, RNG.normal(size=(4, 3, 3, 3))).shape == (2, 3, 7, 7)
