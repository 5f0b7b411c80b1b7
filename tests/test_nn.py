import numpy as np
import numpy.testing as npt
import pytest

from dropgraph.errors import ContractError, DimensionError
from dropgraph.gradcheck import grad_check
from dropgraph.nn import (
    BN_EPS,
    BatchNorm2d,
    Conv2d,
    Linear,
    batchnorm_train,
    conv2d,
    conv_bn,
    cross_entropy,
    global_avg_pool,
)
from dropgraph.rng import RngStream
from dropgraph.tensor import Tensor

RNG = np.random.default_rng(20240302)


def conv_naive(x, k, b, stride, pad):
    """Six-loop reference convolution; the oracle for conv2d."""
    n, cin, h, w = x.shape
    cout, _, kk, _ = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kk) // stride + 1
    ow = (w + 2 * pad - kk) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for ni in range(n):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kk):
                            for v in range(kk):
                                acc += xp[ni, ci, oy * stride + u, ox * stride + v] * k[co, ci, u, v]
                    out[ni, co, oy, ox] = acc + (0.0 if b is None else b[co])
    return out


# -- conv2d ---------------------------------------------------------------------


def test_conv_1x1_identity_kernel():
    x = Tensor(RNG.normal(size=(2, 3, 5, 5)))
    kernel = Tensor(np.eye(3).reshape(3, 3, 1, 1))
    out = conv2d(x, kernel, Tensor(np.zeros(3)))
    npt.assert_allclose(out.data, x.data, atol=1e-15)


def test_conv_zero_kernel_gives_bias():
    x = Tensor(RNG.normal(size=(2, 3, 4, 4)))
    bias = np.array([1.0, -2.0])
    out = conv2d(x, Tensor(np.zeros((2, 3, 3, 3))), Tensor(bias), padding=1)
    want = np.broadcast_to(bias[None, :, None, None], (2, 2, 4, 4))
    npt.assert_array_equal(out.data, want)


def test_conv_ramp_image_sliding_window():
    x = np.arange(25.0).reshape(1, 1, 5, 5)
    k = RNG.normal(size=(1, 1, 3, 3))
    out = conv2d(Tensor(x), Tensor(k), None).data
    npt.assert_allclose(out, conv_naive(x, k, None, 1, 0), rtol=1e-12)


def test_conv_matches_naive_on_200_random_cases():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        k = int(rng.choice([1, 2, 3]))
        stride = int(rng.choice([1, 2, 3]))
        pad = int(rng.choice([0, 1, 2]))
        h = int(rng.integers(k, k + 5))
        w = int(rng.integers(k, k + 5))
        if h + 2 * pad < k or w + 2 * pad < k:
            continue
        x = rng.normal(size=(n, cin, h, w))
        kk = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        got = conv2d(Tensor(x), Tensor(kk), Tensor(b), stride, pad).data
        want = conv_naive(x, kk, b, stride, pad)
        scale = max(1.0, np.abs(want).max())
        worst = max(worst, np.abs(got - want).max() / scale)
    assert worst <= 1e-10


def test_conv_channel_mismatch():
    with pytest.raises(DimensionError, match="channel"):
        conv2d(Tensor(np.zeros((1, 3, 5, 5))), Tensor(np.zeros((2, 4, 3, 3))), None)


@pytest.mark.parametrize("stride,padding,name", [(0, 0, "stride 0"), (-1, 0, "stride -1"),
                                                  (1, -1, "padding -1")])
def test_conv_refuses_a_stride_below_one_and_a_negative_padding(stride, padding, name):
    x, k = Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ContractError, match=name):
        conv2d(x, k, None, stride, padding)


def test_conv_kernel_larger_than_padded_input():
    with pytest.raises(DimensionError):
        conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))), None)


def conv_dx_naive(g, k, stride, pad, h, w):
    """Scatter loop for the input gradient, matching ``conv_naive`` term by term."""
    n, cout, oh, ow = g.shape
    _, cin, kk, _ = k.shape
    dx = np.zeros((n, cin, h, w))
    for ni in range(n):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    for ci in range(cin):
                        for u in range(kk):
                            for v in range(kk):
                                iy, ix = oy * stride + u - pad, ox * stride + v - pad
                                if 0 <= iy < h and 0 <= ix < w:
                                    dx[ni, ci, iy, ix] += g[ni, co, oy, ox] * k[co, ci, u, v]
    return dx


# Every stride with every padding up to the largest kernel; the input is h x (h+1),
# so (size + 2*pad - k) % stride is both zero and nonzero for stride 2.
CONV_GRID = list(dict.fromkeys(
    [(1, 1, 5), (2, 0, 7), (2, 1, 6), (3, 0, 8)]
    + [(stride, pad, 5 + stride) for stride in (1, 2, 3) for pad in range(6)]
))
KERNEL_SIZES = (1, 3, 5)


@pytest.mark.parametrize("stride,pad,h", CONV_GRID)
def test_conv_gradients(stride, pad, h):
    """Finite differences, for each kernel size k >= pad."""
    for k in KERNEL_SIZES:
        if k < pad:
            continue
        x = Tensor(RNG.normal(size=(2, 2, h, h + 1)), requires_grad=True)
        kern = Tensor(RNG.normal(size=(3, 2, k, k)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        assert grad_check(lambda t: (conv2d(t, kern, b, stride, pad) ** 2).sum(), x) <= 1e-5
        assert grad_check(lambda t: (conv2d(x, t, b, stride, pad) ** 2).sum(), kern) <= 1e-5
        assert grad_check(lambda t: (conv2d(x, kern, t, stride, pad) ** 2).sum(), b) <= 1e-5


@pytest.mark.parametrize("stride,pad,h", CONV_GRID)
def test_conv_input_gradient_matches_scatter_loop(stride, pad, h):
    for k in KERNEL_SIZES:
        if k < pad:
            continue
        x = Tensor(RNG.normal(size=(2, 3, h, h + 1)), requires_grad=True)
        kern = RNG.normal(size=(4, 3, k, k))
        out = conv2d(x, Tensor(kern), None, stride, pad)
        g = RNG.normal(size=out.data.shape)
        (out * Tensor(g)).sum().backward()
        want = conv_dx_naive(g, kern, stride, pad, h, h + 1)
        assert x.grad.shape == x.data.shape
        assert _rel_err(x.grad, want) <= 1e-12, (k, stride, pad, h)


# -- batch norm ---------------------------------------------------------------------


def test_batchnorm_train_normalizes():
    x = Tensor(RNG.normal(size=(8, 3, 6, 6)) * 4 + 2)
    g = Tensor(np.ones(3))
    b = Tensor(np.zeros(3))
    out, m, v = batchnorm_train(x, g, b)
    npt.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-12)
    npt.assert_allclose(out.data.std(axis=(0, 2, 3)), np.ones(3), atol=1e-3)
    npt.assert_allclose(m, x.data.mean(axis=(0, 2, 3)), atol=1e-12)


def test_batchnorm_gradients():
    x = Tensor(RNG.normal(size=(4, 3, 5, 5)), requires_grad=True)
    g = Tensor(RNG.normal(size=3) + 1.5, requires_grad=True)
    b = Tensor(RNG.normal(size=3), requires_grad=True)
    assert grad_check(lambda t: (batchnorm_train(t, g, b)[0] ** 2).sum(), x) <= 1e-5
    assert grad_check(lambda t: (batchnorm_train(x, t, b)[0] ** 2).sum(), g) <= 1e-5
    assert grad_check(lambda t: (batchnorm_train(x, g, t)[0] ** 2).sum(), b) <= 1e-5


def test_batchnorm_eval_is_affine_and_stateless():
    bn = BatchNorm2d(3)
    for _ in range(5):
        bn(Tensor(RNG.normal(size=(8, 3, 4, 4)) * 2 + 1))
    assert (bn.running_var > 0).all()
    bn.eval()
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    x = RNG.normal(size=(4, 3, 4, 4))
    y1 = bn(Tensor(x)).data
    y2 = bn(Tensor(x)).data
    npt.assert_array_equal(y1, y2)
    npt.assert_array_equal(bn.running_mean, rm)
    npt.assert_array_equal(bn.running_var, rv)
    # affine: f(a*x1 + (1-a)*x2) == a*f(x1) + (1-a)*f(x2)
    x2 = RNG.normal(size=(4, 3, 4, 4))
    lhs = bn(Tensor(0.3 * x + 0.7 * x2)).data
    rhs = 0.3 * bn(Tensor(x)).data + 0.7 * bn(Tensor(x2)).data
    npt.assert_allclose(lhs, rhs, atol=1e-10)


def _batchnorm_two_pass(x, gamma, beta, eps, g):
    """Reference batch norm: normalise, then the textbook backward over xhat."""
    axes = (0, 2, 3)
    m = x.mean(axis=axes)
    xc = x - m[None, :, None, None]
    var = np.mean(xc * xc, axis=axes)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    gh = g * gamma[None, :, None, None]
    dx = inv[None, :, None, None] * (
        gh - gh.mean(axis=axes)[None, :, None, None]
        - xhat * (gh * xhat).mean(axis=axes)[None, :, None, None])
    return out, m, var, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("shape", [(32, 16, 32, 32), (32, 32, 16, 16), (2, 3, 2, 1)])
def test_fused_batchnorm_matches_two_pass_formula(shape):
    rng = np.random.default_rng(sum(shape))
    x = Tensor(rng.normal(size=shape) * 3 + 1.5, requires_grad=True)
    gamma = Tensor(rng.normal(size=shape[1]) + 1.0, requires_grad=True)
    beta = Tensor(rng.normal(size=shape[1]), requires_grad=True)
    g = rng.normal(size=shape)
    out, m, v = batchnorm_train(x, gamma, beta)
    (out * Tensor(g)).sum().backward()
    want = _batchnorm_two_pass(x.data, gamma.data, beta.data, BN_EPS, g)
    for got, ref in zip((out.data, m, v, x.grad, gamma.grad, beta.grad), want):
        assert _rel_err(got, ref) <= 1e-12


def _eval_conv_bn(bias: bool, stride: int, padding: int, k: int):
    rng = RngStream(31, ("conv_bn", bias, stride, padding, k))
    conv = Conv2d(3, 4, k, rng.child("conv"), stride=stride, padding=padding, bias=bias)
    bn = BatchNorm2d(4)
    bn.gamma.data = rng.child("gamma").normal(size=4) + 1.0
    bn.beta.data = rng.child("beta").normal(size=4)
    bn.running_mean = rng.child("mean").normal(size=4)
    bn.running_var = rng.child("var").uniform(size=4) + 0.5
    if bias:
        conv.bias.data = rng.child("bias").normal(size=4)
    conv.eval()
    bn.eval()
    x = Tensor(rng.child("x").normal(size=(2, 3, 6, 6)), requires_grad=True)
    return conv, bn, x


@pytest.mark.parametrize("bias, stride, padding, k",
                         [(True, 1, 1, 3), (False, 2, 1, 3), (False, 2, 0, 1)])
def test_eval_conv_bn_matches_unfused(bias, stride, padding, k):
    conv, bn, x = _eval_conv_bn(bias, stride, padding, k)
    fused = conv_bn(conv, bn, x)
    assert fused._op == "conv2d"  # the batch norm is folded, not applied after
    assert _rel_err(fused.data, bn(conv(x)).data) <= 1e-12


def test_train_conv_bn_is_bn_of_conv():
    conv, bn, x = _eval_conv_bn(True, 1, 1, 3)
    conv.train()
    bn.train()
    # Train-mode batch norm ignores the running statistics it updates.
    npt.assert_array_equal(conv_bn(conv, bn, x).data, bn(conv(x)).data)


@pytest.mark.parametrize("bias", [True, False])
def test_eval_conv_bn_gradients(bias):
    conv, bn, x = _eval_conv_bn(bias, 2, 1, 3)
    loss = lambda _: (conv_bn(conv, bn, x) ** 2).sum()  # noqa: E731
    params = [x, conv.kernel, bn.gamma, bn.beta] + ([conv.bias] if bias else [])
    for p in params:
        assert grad_check(loss, p) <= 1e-6


# -- cross entropy ----------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(Tensor(np.zeros((6, 4))), np.zeros(6, dtype=int))
    assert abs(loss.item() - 1.3862943611198906) <= 1e-12


def test_cross_entropy_frozen_value():
    loss = cross_entropy(Tensor([[1.0, 2.0, 3.0]]), np.array([2]))
    assert abs(loss.item() - 0.40760596444438030) <= 1e-13


def test_cross_entropy_margin_limit():
    logits = np.zeros((1, 3))
    logits[0, 1] = 50.0
    loss = cross_entropy(Tensor(logits), np.array([1]))
    assert 0.0 <= loss.item() < 1e-12


def test_cross_entropy_nonnegative():
    for _ in range(30):
        logits = Tensor(RNG.normal(size=(5, 6)) * 3)
        labels = RNG.integers(0, 6, size=5)
        assert cross_entropy(logits, labels).item() >= 0.0


def test_cross_entropy_label_range():
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_gradient():
    logits = Tensor(RNG.normal(size=(6, 4)), requires_grad=True)
    labels = RNG.integers(0, 4, size=6)
    assert grad_check(lambda t: cross_entropy(t, labels), logits) <= 1e-5


# -- pooling ------------------------------------------------------------------------


def test_global_avg_pool_constant():
    out = global_avg_pool(Tensor(np.full((2, 3, 4, 4), 2.5)))
    npt.assert_array_equal(out.data, np.full((2, 3), 2.5))


def test_global_avg_pool_hand_case():
    out = global_avg_pool(Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)))
    npt.assert_array_equal(out.data, [[2.5]])


def test_global_avg_pool_matches_sum_oracle():
    x = RNG.normal(size=(3, 5, 4, 6))
    got = global_avg_pool(Tensor(x)).data
    want = x.sum(axis=(2, 3)) / (4 * 6)
    npt.assert_allclose(got, want, rtol=1e-12)


# -- layers ------------------------------------------------------------------------


def test_linear_layer_forward_and_grad():
    layer = Linear(5, 3, RngStream(0, ("lin",)))
    x = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
    out = layer(x)
    npt.assert_allclose(out.data, x.data @ layer.weight.data + layer.bias.data, rtol=1e-12)
    assert grad_check(lambda t: (layer(t) ** 2).sum(), x) <= 1e-5


def test_conv_layer_output_shape():
    layer = Conv2d(3, 8, 3, RngStream(0, ("c",)), stride=2, padding=1)
    out = layer(Tensor(RNG.normal(size=(2, 3, 9, 9))))
    assert out.data.shape == (2, 8, 5, 5)


def test_module_collects_parameters():
    layer = Conv2d(3, 8, 3, RngStream(0, ("c",)))
    names = dict(layer.named_parameters())
    assert set(names) == {"kernel", "bias"}
