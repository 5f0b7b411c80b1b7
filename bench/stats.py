"""Pure arithmetic of the benchmark: percentiles, conv work counts, digests."""

from __future__ import annotations

import hashlib
import json
import math
import statistics

FLOAT_BYTES = 8  # the program computes in float64


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def conv_forward_counts(x_shape, w_shape, oh: int, ow: int) -> tuple[int, int]:
    """(FLOPs, im2col bytes) of one forward conv on a padded input.

    The im2col matrix is (cin*k*k, n*oh*ow); the matmul with the
    (cout, cin*k*k) kernel costs two FLOPs per multiply-add.
    """
    n = x_shape[0]
    cout, cin, k, _ = w_shape
    patch = cin * k * k
    positions = n * oh * ow
    return 2 * cout * patch * positions, patch * positions * FLOAT_BYTES


def conv_dx_counts(g_shape, w_shape) -> tuple[int, int]:
    """(FLOPs, im2col bytes) of the input gradient as a full correlation.

    The padded, stride-dilated output gradient (n, cout, hp, wp) is
    correlated with the flipped kernel, channels swapped, at stride 1.
    """
    n, cout, hp, wp = g_shape
    _, cin, k, _ = w_shape
    return conv_forward_counts((n, cout, hp, wp), (cin, cout, k, k), hp - k + 1, wp - k + 1)


def conv_dw_counts(x_shape, g_shape, k: int) -> tuple[int, int]:
    """(FLOPs, im2col bytes) of the kernel gradient: (cout, n*oh*ow) @ cols.T."""
    n, cin = x_shape[0], x_shape[1]
    cout, oh, ow = g_shape[1], g_shape[2], g_shape[3]
    return conv_forward_counts((n, cin), (cout, cin, k, k), oh, ow)


def records_digest(lines) -> str:
    """SHA-256 over runs.jsonl lines with every ``wall_time_s`` removed.

    Equal digests mean equal configs, seeds, statuses, accuracies and
    per-epoch losses to the last bit.
    """
    h = hashlib.sha256()
    for line in lines:
        obj = json.loads(line)
        obj.pop("wall_time_s", None)
        h.update(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")
    return h.hexdigest()[:16]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the run-to-run spread used to check steadiness."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
