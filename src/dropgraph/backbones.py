"""Desk-scale backbones with regularizer insertion points.

``TinyResNet`` is a two-group residual classifier of ``nn.ConvBN`` units;
regularizers sit after each block's final activation in the configured
groups and, optionally, on the skip feature (sharing the block's mask but
drawing fresh multipliers).
``TwoLayerGcn`` is a node classifier with the regularizer placed before the
second graph layer, where block masking degenerates to per-node gating.
Checkpoints store a model's named parameters and buffers as ``.npy`` records
behind a JSON header (``data.save_arrays``); a unit's batch-norm arrays sit
under its conv's name (``stem.gamma``, ``blocks.0.conv1.running_mean``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GraphInstance, load_arrays, save_arrays
from .errors import ConfigError, ContractError, DimensionError
from .nn import ConvBN, Linear, Module, global_avg_pool
from .regularizers import MASK_KINDS, RegularizerConfig, make_regularizer, sample_block_mask
from .rng import RngStream
from .tensor import Tensor, matmul, relu

__all__ = [
    "TinyResNetConfig",
    "TinyResNet",
    "TwoLayerGcnConfig",
    "TwoLayerGcn",
    "save_checkpoint",
    "load_checkpoint",
    "apply_checkpoint",
]


# -- residual image classifier ---------------------------------------------------


@dataclass
class TinyResNetConfig:
    stem_channels: int = 16
    groups: tuple = ((2, 16), (2, 32))
    classes: int = 4
    regularize_groups: tuple = (1,)  # last group by default
    regularize_skip: bool = True
    image_size: int = 32

    def __post_init__(self):
        self.groups = tuple(tuple(g) for g in self.groups)
        self.regularize_groups = tuple(self.regularize_groups)
        for ch in [self.stem_channels] + [c for _, c in self.groups]:
            if ch < 4 or ch % 4 != 0:
                raise ConfigError(f"channel counts must be positive multiples of 4, got {ch}")
        for blocks, ch in self.groups:
            if blocks < 1:
                raise ConfigError(f"groups need at least one block each, got {blocks}x{ch}")
        for g in self.regularize_groups:
            if not (0 <= g < len(self.groups)):
                raise ConfigError(
                    f"regularize_groups entry {g} outside [0, {len(self.groups)})"
                )

    def spatial_size_of_group(self, group: int) -> int:
        # Groups after the first start with a stride-2, padding-1 3x3 conv: n -> ceil(n/2).
        return -(-self.image_size // 2**group)

    def check_block_size(self, reg_cfg: RegularizerConfig):
        """Mask-sampling regularizers need every regularized map to hold one block."""
        if reg_cfg.kind not in MASK_KINDS:
            return
        for g in self.regularize_groups:
            size = self.spatial_size_of_group(g)
            if size < reg_cfg.block_size:
                raise ConfigError(f"block_size {reg_cfg.block_size} exceeds the group {g} "
                                  f"feature map ({size}x{size})")


class ResidualBlock(Module):
    """conv-norm-relu x2 plus skip (a 1x1 conv-norm where the shape changes);
    regularizers after the block activation and (optionally) on the skip feature."""

    def __init__(self, cin: int, cout: int, stride: int, rng: RngStream,
                 main_reg=None, skip_reg=None):
        super().__init__()
        self.conv1 = ConvBN(cin, cout, 3, stride, rng.child("conv1"))
        self.conv2 = ConvBN(cout, cout, 3, 1, rng.child("conv2"))
        self.projection = None
        if stride != 1 or cin != cout:
            self.projection = ConvBN(cin, cout, 1, stride, rng.child("proj"), bias=False)
        self.main_reg = main_reg
        self.skip_reg = skip_reg

    def forward(self, x: Tensor, rng: RngStream, rho: float | None) -> Tensor:
        h = relu(self.conv2(relu(self.conv1(x))))
        sk = x if self.projection is None else self.projection(x)
        # The regularizers run in eval too: each is the identity there, except
        # partial graph reasoning's train-and-infer arm.
        mask = None
        if self.training and self.skip_reg is not None:
            # One block mask shared by the main and skip DropGraphs (mask kinds).
            b, _, hh, ww = h.data.shape
            mask = sample_block_mask(hh, ww, self.main_reg.cfg.block_size, rho,
                                     rng.child("block_mask"), batch=b)
        if self.main_reg is not None:
            h = self.main_reg(h, rng.child("main"), rho, mask=mask)
        if self.skip_reg is not None:
            sk = self.skip_reg(sk, rng.child("skip"), rho, mask=mask)
        return h + sk


class TinyResNet(Module):
    """Stem conv-norm-relu, residual groups, global average pool, linear head.

    ``reg_cfg`` (kind included) places the regularizers; ``forward`` takes
    the step's drop probability ``rho``, which evaluation passes as None.
    """

    def __init__(self, cfg: TinyResNetConfig, rng: RngStream,
                 reg_cfg: RegularizerConfig | None = None):
        super().__init__()
        self.cfg = cfg
        reg_cfg = reg_cfg or RegularizerConfig()
        cfg.check_block_size(reg_cfg)
        # The synthetic images are single-channel.
        self.stem = ConvBN(1, cfg.stem_channels, 3, 1, rng.child("stem"))
        blocks = []
        cin = cfg.stem_channels
        reg_index = 0
        for gi, (n_blocks, cout) in enumerate(cfg.groups):
            size = cfg.spatial_size_of_group(gi)
            for bi in range(n_blocks):
                stride = 2 if (gi > 0 and bi == 0) else 1
                main_reg = skip_reg = None
                if reg_cfg.kind != "none" and gi in cfg.regularize_groups:
                    main_reg = make_regularizer(reg_cfg, cout, rng.child("reg", reg_index),
                                                spatial_size=(size, size))
                    reg_index += 1
                    if cfg.regularize_skip and reg_cfg.kind in MASK_KINDS:
                        skip_reg = make_regularizer(reg_cfg, cout, rng.child("reg", reg_index),
                                                    spatial_size=(size, size))
                        reg_index += 1
                blocks.append(ResidualBlock(cin, cout, stride, rng.child("block", gi, bi),
                                            main_reg=main_reg, skip_reg=skip_reg))
                cin = cout
        self.blocks = blocks
        self.head = Linear(cin, cfg.classes, rng.child("head"))

    def forward(self, x: Tensor, rng: RngStream | None = None,
                rho: float | None = None) -> Tensor:
        if x.data.ndim != 4:
            raise DimensionError(f"expected (batch, c, h, w) input, got {x.data.shape}")
        if min(x.data.shape[2], x.data.shape[3]) < 8:
            raise ContractError(f"input spatial size must be >= 8, got {x.data.shape}")
        if rng is None:
            rng = RngStream(0).child("unseeded_forward")
        h = relu(self.stem(x))
        for i, block in enumerate(self.blocks):
            h = block(h, rng.child("block", i), rho)
        return self.head(global_avg_pool(h))


# -- two-layer graph classifier ------------------------------------------------------


@dataclass
class TwoLayerGcnConfig:
    in_features: int
    hidden: int = 16
    classes: int = 3

    def __post_init__(self):
        if self.hidden < 4 or self.hidden % 4 != 0:
            raise ConfigError(f"hidden width must be a positive multiple of 4, got {self.hidden}")


class TwoLayerGcn(Module):
    """relu(A X W1) -> regularizer -> A H W2.

    Node features are treated as a (1, hidden, n, 1) map inside the
    regularizer, so vertex sampling picks node rows and block masking with
    s=1 is per-node gating.

    Both layers multiply the dense (n, n) ``A`` by the narrow side.  The
    first reads ``A X`` from ``GraphInstance.propagated_features``, so
    ``A`` meets the features once per graph, not once per forward; it and
    the regularizer cover all n nodes.  The second is evaluated as
    ``A_rows (H W2) + b2``: ``H W2`` has ``classes`` columns where ``H`` has
    ``hidden``, which makes the product (and its gradient) hidden/classes
    times cheaper, and ``A_rows`` is the block of ``A``'s rows whose logits
    the caller reads (``GraphInstance.train_adjacency`` for the loss,
    ``val_adjacency`` for the score), so the product is m x n, not n x n,
    and its backward ``A_rows^T g`` is an m-row product.  Without ``rows``
    the forward returns the logits of all n nodes.  The bias is added after
    ``A``, because the rows of ``A`` do not sum to 1.  ``layer2`` stays a
    ``Linear``, so checkpoints keep the names ``layer2.weight`` and
    ``layer2.bias``.

    ``reg_cfg`` (kind included) builds the regularizer; ``forward`` takes
    the step's drop probability ``rho``, which evaluation passes as None.
    """

    def __init__(self, cfg: TwoLayerGcnConfig, rng: RngStream,
                 reg_cfg: RegularizerConfig | None = None):
        super().__init__()
        self.cfg = cfg
        self.layer1 = Linear(cfg.in_features, cfg.hidden, rng.child("gcn1"))
        self.layer2 = Linear(cfg.hidden, cfg.classes, rng.child("gcn2"))
        self.reg = make_regularizer(reg_cfg or RegularizerConfig(), cfg.hidden, rng.child("reg"))

    def forward(self, g: GraphInstance, rng: RngStream | None = None,
                rho: float | None = None, rows: np.ndarray | None = None) -> Tensor:
        if rng is None:
            rng = RngStream(0).child("unseeded_forward")
        h = relu(self.layer1(Tensor(g.propagated_features)))
        if self.reg is not None:
            # In eval the regularizer is the identity (but for partial graph
            # reasoning's train-and-infer arm) and the detour is views only.
            n, c = h.data.shape
            as_map = h.transpose().reshape(1, c, n, 1)
            h = self.reg(as_map, rng.child("reg"), rho).reshape(c, n).transpose()
        ahat = Tensor(g.normalized_adjacency if rows is None else rows)
        return matmul(ahat, matmul(h, self.layer2.weight)) + self.layer2.bias


# -- parameter checkpoints --------------------------------------------------------------


def save_checkpoint(model: Module, path):
    """Write named parameters and buffers with ``data.save_arrays`` (kind ``checkpoint``).

    Buffers (batch-norm running statistics) are stored alongside parameters
    so a restored model is inference-complete.  Each array keeps its dtype.
    """
    arrays = {name: p.data for name, p in model.named_parameters()}
    arrays.update(model.named_buffers())
    save_arrays(path, "checkpoint", arrays)


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into an ordered name -> array mapping (``data.load_arrays``)."""
    return load_arrays(path, "checkpoint")[1]


def apply_checkpoint(model: Module, path):
    """Load parameter and buffer values into a model; names, shapes and dtypes must match."""
    stored = load_checkpoint(path)

    def stored_like(name, current):
        if name not in stored:
            raise ContractError(f"checkpoint missing {name!r}")
        arr = stored[name]
        if (arr.shape, arr.dtype) != (current.shape, current.dtype):
            raise ContractError(f"checkpoint mismatch for {name!r}: {arr.dtype} {arr.shape} "
                                f"vs {current.dtype} {current.shape}")
        return arr

    for name, p in model.named_parameters():
        p.data = stored_like(name, p.data)
    for name, buf in model.named_buffers():
        model.set_buffer(name, stored_like(name, buf))
