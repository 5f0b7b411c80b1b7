"""Neural-network layers and losses for the desk-scale backbones.

Convolution is cross-correlation (no kernel flip).  The heavy ops (conv2d,
batch norm, cross-entropy) are single fused tape nodes with hand-written
backward rules; everything else composes tensor primitives.

Batch norm costs one pass over the feature map in training and none in
eval: ``batchnorm_train`` takes its per-channel sums by einsum and keeps
only the centred input for the backward, and ``ConvBN``, the one conv-norm
unit, folds its eval-mode batch norm into the kernel and bias of its conv
(Ioffe & Szegedy, arXiv 1502.03167, section 3.1), so eval runs one conv per
unit.  The folded kernel and bias are tape ops on the conv and BN
parameters, so an eval-mode model stays differentiable.

Conv kernels, linear weights and the regularizers' GCN weights start from
``kaiming``, the He initialisation N(0, 2 / fan_in) (arXiv 1502.01852).
"""

from __future__ import annotations

import numpy as np

from . import _conv
from .errors import ContractError, DimensionError
from .rng import RngStream
from .tensor import Tensor, matmul, relu

__all__ = [
    "Module",
    "ConvBN",
    "Linear",
    "conv2d",
    "cross_entropy",
    "global_avg_pool",
    "kaiming",
    "relu",
]

# Batch-norm constants: variance floor and running-statistics momentum.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


# -- functional ops -----------------------------------------------------------


def conv2d(x: Tensor, kernel: Tensor, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over (batch, channel, height, width)."""
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError(
            f"conv2d expects 4-D input and kernel, got {x.data.shape} and {kernel.data.shape}"
        )
    n, cin, h, w = x.data.shape
    cout, cin_k, k, k2 = kernel.data.shape
    if k != k2:
        raise DimensionError(f"conv2d kernel must be square, got {kernel.data.shape}")
    if cin != cin_k:
        raise DimensionError(
            f"conv2d channel mismatch: input has {cin}, kernel expects {cin_k}"
        )
    if stride < 1 or padding < 0:
        raise ContractError(
            f"conv2d needs stride >= 1 and padding >= 0, got stride {stride} and padding {padding}"
        )
    if h + 2 * padding < k or w + 2 * padding < k:
        raise DimensionError(
            f"conv2d padded size ({h + 2 * padding}x{w + 2 * padding}) smaller than kernel {k}"
        )
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = _conv.conv_forward(x.data, kernel.data, stride, oh, ow, padding)
    if bias is not None:
        out += bias.data[None, :, None, None]

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    # dw reads the input and dx the kernel: each is kept only for the other's gradient.
    xv = x.data if kernel.requires_grad else None
    kv = kernel.data if x.requires_grad else None

    def backward(g, nx, nk, nb=None):
        g = np.ascontiguousarray(g)
        if nb is not None and nb.requires_grad:
            nb._accum(g.sum(axis=(0, 2, 3)))
        if nk.requires_grad:
            nk._accum(_conv.conv_dw(xv, g, stride, k, padding))
        if nx.requires_grad:
            nx._accum(_conv.conv_dx_full(g, kv, stride, padding, h, w))

    return Tensor._result(out, parents, backward, "conv2d")


def batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor):
    """Batch normalization over (batch, H, W) per channel, training statistics.

    Returns (normalized Tensor, batch_mean, batch_var) where the statistics
    are plain arrays for the running-average update.

    One fused op: per-channel sums come from einsum over (n, c, h*w) views,
    the output is ``xc * scale + beta`` with ``scale = gamma / std``, and the
    tape keeps only the centred input ``xc`` and per-channel scalars, not ``x``.
    """
    n, c = x.data.shape[:2]
    count = x.data.size // c
    mean = np.einsum("ncp->c", x.data.reshape(n, c, -1)) / count
    xc = x.data - mean[:, None, None]
    xc3 = xc.reshape(n, c, -1)
    var = np.einsum("ncp,ncp->c", xc3, xc3) / count
    inv = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma.data * inv
    out = xc * scale[:, None, None]
    out += beta.data[:, None, None]

    def backward(g, nx, ngamma, nbeta):
        g3 = g.reshape(n, c, -1)
        g_sum = np.einsum("ncp->c", g3)
        gxc_sum = np.einsum("ncp,ncp->c", g3, xc3)
        if nbeta.requires_grad:
            nbeta._accum(g_sum)
        if ngamma.requires_grad:
            ngamma._accum(gxc_sum * inv)
        if nx.requires_grad:
            # dx = scale * (g - xc * inv^2 * sum(g xc) / m - sum(g) / m):
            # one new array, updated in place (g itself is never written).
            dx = xc * (-inv * inv * gxc_sum / count)[:, None, None]
            dx += g
            dx *= scale[:, None, None]
            dx -= (scale * g_sum / count)[:, None, None]
            nx._accum(dx)

    return Tensor._result(out, (x, gamma, beta), backward, "batchnorm"), mean, var


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels under softmax."""
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects (n, classes) logits, got {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    n, classes = logits.data.shape
    if n == 0:
        raise ContractError(f"cross_entropy needs at least one row, got logits of shape "
                            f"{logits.data.shape}")
    if labels.shape != (n,):
        raise ContractError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= classes:
        raise ContractError(
            f"labels must lie in [0, {classes}), got range [{labels.min()}, {labels.max()}]"
        )
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    rows = np.arange(n)
    losses = lse - z[rows, labels]

    def backward(g, node):
        # The softmax is built here, so a no-grad evaluation never builds it.
        grad = np.exp(z - lse[:, None])
        grad[rows, labels] -= 1.0
        node._accum(grad * (np.asarray(g) / n))

    # The mean as numpy's own mean takes it (sum, then divide), the same bits
    # without its Python-level overhead.
    return Tensor._result(np.asarray(np.add.reduce(losses) / n), (logits,), backward,
                          "cross_entropy")


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial grid: (batch, c, h, w) -> (batch, c)."""
    if x.data.ndim != 4:
        raise DimensionError(f"global_avg_pool expects a 4-D feature map, got {x.data.shape}")
    return x.mean(axis=(2, 3))


def kaiming(rng: RngStream, shape, fan_in: int) -> Tensor:
    """A trainable weight of ``shape`` drawn from N(0, 2 / fan_in) on ``rng``."""
    return Tensor(rng.normal(size=shape, scale=np.sqrt(2.0 / fan_in)), requires_grad=True)


# -- layer containers ----------------------------------------------------------


class Module:
    """Minimal layer container: parameter discovery and train/eval mode."""

    def __init__(self):
        self.training = True

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _children(self):
        for name, value in self.__dict__.items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = ""):
        for name, value in self.__dict__.items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield (f"{prefix}{name}", value)
        for name, child in self._children():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def named_buffers(self, prefix: str = ""):
        """Non-trainable state arrays (e.g. batch-norm running statistics)."""
        for name, value in self.__dict__.items():
            if isinstance(value, np.ndarray):
                yield (f"{prefix}{name}", value)
        for name, child in self._children():
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def set_buffer(self, name: str, value):
        parts = name.split(".")
        obj = self
        for part in parts[:-1]:
            obj = obj[int(part)] if isinstance(obj, (list, tuple)) else getattr(obj, part)
        setattr(obj, parts[-1], value)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def train(self, mode: bool = True):
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)


class ConvBN(Module):
    """A conv with Kaiming fan-in init, then batch norm with running statistics.

    The conv keeps same-padding (``k // 2``).  Train mode runs
    ``batchnorm_train`` on the conv output and updates the running statistics
    with momentum ``BN_MOMENTUM``.  Eval mode uses the running statistics and
    mutates nothing: the batch norm is then a per-channel affine map
    ``x * scale + shift``, so it folds into the conv as kernel
    ``kernel * scale`` and bias ``bias * scale + shift``.  Both modes add
    ``BN_EPS`` to the variance.
    """

    def __init__(self, cin: int, cout: int, k: int, stride: int, rng: RngStream,
                 bias: bool = True):
        super().__init__()
        self.kernel = kaiming(rng, (cout, cin, k, k), cin * k * k)
        self.bias = Tensor(np.zeros(cout), requires_grad=True) if bias else None
        self.gamma = Tensor(np.ones(cout), requires_grad=True)
        self.beta = Tensor(np.zeros(cout), requires_grad=True)
        self.running_mean = np.zeros(cout)
        self.running_var = np.ones(cout)
        self.stride = stride
        self.padding = k // 2

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            out, m, v = batchnorm_train(conv2d(x, self.kernel, self.bias, self.stride,
                                               self.padding), self.gamma, self.beta)
            mom = BN_MOMENTUM
            self.running_mean = (1.0 - mom) * self.running_mean + mom * m
            self.running_var = (1.0 - mom) * self.running_var + mom * v
            return out
        inv = Tensor(1.0 / np.sqrt(self.running_var + BN_EPS))
        scale = self.gamma * inv
        shift = self.beta - Tensor(self.running_mean) * scale
        kernel = self.kernel * scale.reshape(scale.data.shape[0], 1, 1, 1)
        bias = shift if self.bias is None else self.bias * scale + shift
        return conv2d(x, kernel, bias, self.stride, self.padding)


class Linear(Module):
    """Affine layer with Kaiming fan-in init."""

    def __init__(self, fin: int, fout: int, rng: RngStream):
        super().__init__()
        self.weight = kaiming(rng, (fin, fout), fin)
        self.bias = Tensor(np.zeros(fout), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias
