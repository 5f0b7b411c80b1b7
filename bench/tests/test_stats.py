import json
import math

import pytest

from stats import (conv_dw_counts, conv_dx_counts, conv_forward_counts, percentile,
                   quartile_spread, records_digest, samples_beyond)


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(36, 50) == 18
    assert samples_beyond(36, 90) == 4
    assert samples_beyond(101, 90) == 10
    assert samples_beyond(1, 90) == 0


def test_quartile_spread_matches_statistics_quantiles():
    xs = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    import statistics
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert quartile_spread(xs) == pytest.approx((q3 - q1) / q2)


def test_conv_forward_counts_by_hand():
    # x (2, 3, 8, 8) padded, kernel (5, 3, 3, 3), stride 1 -> 6x6 output.
    flops, cols = conv_forward_counts((2, 3, 8, 8), (5, 3, 3, 3), 6, 6)
    assert flops == 2 * 5 * 27 * 72
    assert cols == 27 * 72 * 8


def test_conv_dx_counts_by_hand():
    # padded output grad (2, 5, 10, 10), kernel (5, 3, 3, 3): full correlation
    # with the (3, 5, 3, 3) flipped kernel gives an 8x8 map.
    flops, cols = conv_dx_counts((2, 5, 10, 10), (5, 3, 3, 3))
    assert flops == 2 * 3 * 45 * (2 * 64)
    assert cols == 45 * 128 * 8


def test_conv_dw_counts_by_hand():
    flops, cols = conv_dw_counts((2, 3, 8, 8), (2, 5, 6, 6), 3)
    assert flops == 2 * 5 * 27 * 72
    assert cols == 27 * 72 * 8


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_counts_match_the_program_im2col(dg, stride):
    """The byte counts equal the im2col matrices the numpy backend builds."""
    import numpy as np

    conv = dg._conv
    rng = np.random.default_rng(0)
    xp = rng.normal(size=(2, 3, 9, 9))
    w = rng.normal(size=(4, 3, 3, 3))
    cols, oh, ow = conv._im2col(xp, 3, stride)
    flops, nbytes = conv_forward_counts(xp.shape, w.shape, oh, ow)
    assert nbytes == cols.nbytes
    assert flops == 2 * w.shape[0] * cols.shape[0] * cols.shape[1]
    g = rng.normal(size=(2, 4, oh, ow))
    assert conv_dw_counts(xp.shape, g.shape, 3)[1] == cols.nbytes
    gp = np.pad(g, ((0, 0), (0, 0), (2, 2), (2, 2)))
    dx_cols, _, _ = conv._im2col(gp, 3, 1)
    assert conv_dx_counts(gp.shape, w.shape)[1] == dx_cols.nbytes


def test_records_digest_ignores_wall_time_only():
    run = {"type": "run", "seed": 1, "final_val_acc": 0.5, "wall_time_s": 1.0}
    a = [json.dumps({"type": "config", "text": "x"}), json.dumps(run)]
    b = [a[0], json.dumps({**run, "wall_time_s": 2.5})]
    c = [a[0], json.dumps({**run, "final_val_acc": math.nextafter(0.5, 1.0)})]
    assert records_digest(a) == records_digest(b)
    assert records_digest(a) != records_digest(c)
