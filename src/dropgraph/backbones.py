"""Desk-scale backbones with regularizer insertion points.

``TinyResNet`` is a two-group residual classifier; regularizers sit after
each block's final activation in the configured groups and, optionally, on
the skip feature (sharing the block's mask but drawing fresh multipliers).
``TwoLayerGcn`` is a node classifier with the regularizer placed before the
second graph layer, where block masking degenerates to per-node gating.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .nn import BatchNorm2d, Conv2d, Linear, Module, global_avg_pool
from .regularizers import (
    MASK_KINDS,
    DropGraph,
    RegularizerConfig,
    SchedulerState,
    make_regularizer,
    sample_block_mask,
    schedule_rho,
)
from .rng import RngStream
from .tensor import Tensor, matmul, relu

__all__ = [
    "TinyResNetConfig",
    "TinyResNet",
    "TwoLayerGcnConfig",
    "TwoLayerGcn",
    "GraphInstance",
    "save_checkpoint",
    "load_checkpoint",
    "apply_checkpoint",
]


# -- residual image classifier ---------------------------------------------------


@dataclass
class TinyResNetConfig:
    in_channels: int = 1
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
        for g in self.regularize_groups:
            if not (0 <= g < len(self.groups)):
                raise ConfigError(
                    f"regularize_groups entry {g} outside [0, {len(self.groups)})"
                )

    def spatial_size_of_group(self, group: int) -> int:
        # Groups after the first start with a stride-2 block.
        return self.image_size // (2**group)

    def check_block_size(self, reg_kind: str, block_size: int):
        """Mask-sampling regularizers need every regularized map to hold one block."""
        if reg_kind not in MASK_KINDS:
            return
        for g in self.regularize_groups:
            size = self.spatial_size_of_group(g)
            if size < block_size:
                raise ConfigError(f"block_size {block_size} exceeds the group {g} "
                                  f"feature map ({size}x{size})")


class ResidualBlock(Module):
    """conv-norm-relu x2 plus skip; regularizers after the block activation
    and (optionally) on the skip feature."""

    def __init__(self, cin: int, cout: int, stride: int, rng: RngStream,
                 main_reg=None, skip_reg=None):
        super().__init__()
        self.conv1 = Conv2d(cin, cout, 3, rng.child("conv1"), stride=stride, padding=1)
        self.bn1 = BatchNorm2d(cout)
        self.conv2 = Conv2d(cout, cout, 3, rng.child("conv2"), stride=1, padding=1)
        self.bn2 = BatchNorm2d(cout)
        self.projection = None
        self.proj_bn = None
        if stride != 1 or cin != cout:
            self.projection = Conv2d(cin, cout, 1, rng.child("proj"), stride=stride,
                                     padding=0, bias=False)
            self.proj_bn = BatchNorm2d(cout)
        self.main_reg = main_reg
        self.skip_reg = skip_reg

    def forward(self, x: Tensor, rng: RngStream, sched: SchedulerState | None) -> Tensor:
        h = relu(self.bn1(self.conv1(x)))
        h = relu(self.bn2(self.conv2(h)))
        sk = x if self.projection is None else self.proj_bn(self.projection(x))
        if self.training:
            mask = None
            if (isinstance(self.main_reg, DropGraph) and isinstance(self.skip_reg, DropGraph)):
                # One block mask shared by the main and skip distortions.
                b, _, hh, ww = h.data.shape
                cfg = self.main_reg.cfg
                rho_t = schedule_rho(sched) if sched is not None else cfg.rho_target
                mask = sample_block_mask(hh, ww, cfg.block_size, rho_t,
                                         rng.child("block_mask"), batch=b)
            if self.main_reg is not None:
                h = self.main_reg(h, rng.child("main"), sched, mask=mask)
            if self.skip_reg is not None:
                sk = self.skip_reg(sk, rng.child("skip"), sched, mask=mask)
        return h + sk


class TinyResNet(Module):
    """Stem conv, residual groups, global average pool, linear head."""

    def __init__(self, cfg: TinyResNetConfig, rng: RngStream,
                 reg_kind: str = "none", reg_cfg: RegularizerConfig | None = None,
                 pgr_strategy: str = "random", pgr_active_in_eval: bool = False):
        super().__init__()
        self.cfg = cfg
        reg_cfg = reg_cfg or RegularizerConfig()
        cfg.check_block_size(reg_kind, reg_cfg.block_size)
        self.stem = Conv2d(cfg.in_channels, cfg.stem_channels, 3, rng.child("stem"),
                           stride=1, padding=1)
        self.stem_bn = BatchNorm2d(cfg.stem_channels)
        blocks = []
        cin = cfg.stem_channels
        reg_index = 0
        for gi, (n_blocks, cout) in enumerate(cfg.groups):
            size = cfg.spatial_size_of_group(gi)
            for bi in range(n_blocks):
                stride = 2 if (gi > 0 and bi == 0) else 1
                main_reg = skip_reg = None
                if reg_kind != "none" and gi in cfg.regularize_groups:
                    main_reg = make_regularizer(
                        reg_kind, cout, reg_cfg, rng.child("reg", reg_index),
                        spatial_size=(size, size), pgr_strategy=pgr_strategy,
                        pgr_active_in_eval=pgr_active_in_eval)
                    reg_index += 1
                    if cfg.regularize_skip and reg_kind in MASK_KINDS:
                        skip_reg = make_regularizer(
                            reg_kind, cout, reg_cfg, rng.child("reg", reg_index),
                            spatial_size=(size, size))
                        reg_index += 1
                blocks.append(ResidualBlock(cin, cout, stride, rng.child("block", gi, bi),
                                            main_reg=main_reg, skip_reg=skip_reg))
                cin = cout
        self.blocks = blocks
        self.head = Linear(cin, cfg.classes, rng.child("head"))

    def forward(self, x: Tensor, rng: RngStream | None = None,
                sched: SchedulerState | None = None) -> Tensor:
        if x.data.ndim != 4:
            raise DimensionError(f"expected (batch, c, h, w) input, got {x.data.shape}")
        if min(x.data.shape[2], x.data.shape[3]) < 8:
            raise ContractError(f"input spatial size must be >= 8, got {x.data.shape}")
        if rng is None:
            rng = RngStream(0).child("unseeded_forward")
        h = relu(self.stem_bn(self.stem(x)))
        for i, block in enumerate(self.blocks):
            h = block(h, rng.child("block", i), sched)
        return self.head(global_avg_pool(h))


# -- two-layer graph classifier ------------------------------------------------------


@dataclass
class GraphInstance:
    """One node-classification problem on a fixed graph."""

    node_features: np.ndarray  # (n, f)
    normalized_adjacency: np.ndarray  # (n, n), symmetric degree-normalized A+I
    labels: np.ndarray  # (n,)
    train_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    val_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    test_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))


@dataclass
class TwoLayerGcnConfig:
    in_features: int
    hidden: int = 16
    classes: int = 3

    def __post_init__(self):
        if self.hidden % 4 != 0:
            raise ConfigError(f"hidden width must be divisible by 4, got {self.hidden}")


class TwoLayerGcn(Module):
    """relu(A X W1) -> regularizer -> A H W2.

    Node features are treated as a (1, hidden, n, 1) map inside the
    regularizer, so vertex sampling picks node rows and block masking with
    s=1 is per-node gating.
    """

    def __init__(self, cfg: TwoLayerGcnConfig, rng: RngStream,
                 reg_kind: str = "none", reg_cfg: RegularizerConfig | None = None):
        super().__init__()
        self.cfg = cfg
        self.layer1 = Linear(cfg.in_features, cfg.hidden, rng.child("gcn1"))
        self.layer2 = Linear(cfg.hidden, cfg.classes, rng.child("gcn2"))
        reg_cfg = reg_cfg or RegularizerConfig(block_size=1)
        self.reg = make_regularizer(reg_kind, cfg.hidden, reg_cfg, rng.child("reg"))

    def forward(self, g: GraphInstance, rng: RngStream | None = None,
                sched: SchedulerState | None = None) -> Tensor:
        if rng is None:
            rng = RngStream(0).child("unseeded_forward")
        ahat = Tensor(g.normalized_adjacency)
        x = Tensor(g.node_features)
        h = relu(self.layer1(matmul(ahat, x)))
        if self.reg is not None and self.training:
            n, c = h.data.shape
            as_map = h.transpose().reshape(1, c, n, 1)
            as_map = self.reg(as_map, rng.child("reg"), sched)
            h = as_map.reshape(c, n).transpose()
        return self.layer2(matmul(ahat, h))


# -- parameter checkpoints --------------------------------------------------------------

_CKPT_MAGIC = b"DGCKPT"
_CKPT_VERSION = 1


def save_checkpoint(model: Module, path):
    """Write named parameters and buffers as a flat, versioned binary file.

    Layout: magic ``DGCKPT`` (6 bytes), version u16, count u32, then per
    entry: name length u16 + UTF-8 name, ndim u8, each dim u32, raw float64
    little-endian values in row-major order.  Buffers (batch-norm running
    statistics) are stored alongside parameters so a restored model is
    inference-complete.
    """
    entries = [(name, p.data) for name, p in model.named_parameters()]
    entries += list(model.named_buffers())
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<HI", _CKPT_VERSION, len(entries)))
        for name, arr in entries:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into an ordered name -> array mapping."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ContractError(f"not a checkpoint file: bad magic {magic!r}")
        version, count = struct.unpack("<HI", fh.read(6))
        if version != _CKPT_VERSION:
            raise ContractError(f"unsupported checkpoint version {version}")
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(ndim))
            n_values = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(8 * n_values), dtype="<f8").reshape(shape)
            out[name] = data.astype(np.float64)
        return out


def apply_checkpoint(model: Module, path):
    """Load parameter and buffer values into a model; names and shapes must match."""
    stored = load_checkpoint(path)
    for name, p in model.named_parameters():
        if name not in stored:
            raise ContractError(f"checkpoint missing parameter {name!r}")
        if stored[name].shape != p.data.shape:
            raise ContractError(
                f"checkpoint shape mismatch for {name!r}: "
                f"{stored[name].shape} vs {p.data.shape}"
            )
        p.data = stored[name].copy()
    for name, buf in model.named_buffers():
        if name not in stored:
            raise ContractError(f"checkpoint missing buffer {name!r}")
        if stored[name].shape != buf.shape:
            raise ContractError(
                f"checkpoint shape mismatch for buffer {name!r}: "
                f"{stored[name].shape} vs {buf.shape}"
            )
        model.set_buffer(name, stored[name].copy())
