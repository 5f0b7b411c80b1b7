"""Training-time feature-map regularizers.

The family ranges from plain Bernoulli dropout to the graph-reasoning
regularizer: contiguous square blocks of a feature map are gated out and,
instead of leaving zeros behind, a small stand-alone graph network built
over randomly sampled feature vectors generates replacement distortions.
Every variant is the exact identity in eval mode.

Two stochastic branches drive the graph regularizer:

* mask branch - block gate ``M`` controlled by drop probability ``rho``
  (ramped by a scheduler) and block size ``s``;
* graph branch - vertex set ``V`` sampled per feature map with ratio
  ``alpha``, pairwise adjacency ``A``, and a three-layer GCN bottleneck
  that maps vertex values to distortions.

Each stochastic site draws from its own named RNG path, so any site can be
replayed in isolation and configurations that ignore a site (for example a
zero adjacency) still consume identical randomness elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .nn import Module
from .rng import RngStream
from .tensor import (
    Tensor,
    concat,
    matmul,
    relu,
    slice_axis,
    softmax_rows,
    take_spatial_vectors,
    tmean,
    replace_spatial_vectors,
)

__all__ = [
    "RegularizerConfig",
    "DropMask",
    "VertexSet",
    "AdjacencyMatrix",
    "GraphGeneratorParams",
    "SchedulerState",
    "dropout",
    "spatial_dropout",
    "sample_block_mask",
    "sample_vertices",
    "build_adjacency",
    "graph_reasoning",
    "generate_graph_distortions",
    "generate_alt_distortions",
    "pool_expand_apply",
    "dropgraph_forward",
    "schedule_rho",
    "DropGraph",
    "ElementDropout",
    "SpatialDropout",
    "PartialGraphReasoning",
    "make_regularizer",
]

ADJACENCY_MODES = ("eq6", "learned", "similarity", "identity", "uniform", "zero")
GENERATOR_KINDS = ("graph", "random_noise", "avg_pool", "none")
SCHEDULER_KINDS = ("f1", "f2", "f3", "f4", "f5", "constant")
# Regularizer kinds that sample a block mask, the only ones that read block_size.
MASK_KINDS = ("dropblock", "dropgraph")


# -- configuration and value types ---------------------------------------------


@dataclass
class RegularizerConfig:
    """Settings for one regularizer instance."""

    alpha: float = 0.2
    rho_target: float = 0.1
    block_size: int = 3
    adjacency_mode: str = "eq6"
    generator_kind: str = "graph"
    scheduler_kind: str = "f1"
    rescale_dropout: bool = False
    normalize_similarity: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 <= self.rho_target < 1.0):
            raise ConfigError(f"rho_target must lie in [0, 1), got {self.rho_target}")
        if self.block_size < 1 or self.block_size % 2 == 0:
            raise ConfigError(f"block_size must be an odd positive integer, got {self.block_size}")
        if self.adjacency_mode not in ADJACENCY_MODES:
            raise ConfigError(f"adjacency_mode must be one of {ADJACENCY_MODES}, got {self.adjacency_mode!r}")
        if self.generator_kind not in GENERATOR_KINDS:
            raise ConfigError(f"generator_kind must be one of {GENERATOR_KINDS}, got {self.generator_kind!r}")
        if self.scheduler_kind not in SCHEDULER_KINDS:
            raise ConfigError(f"scheduler_kind must be one of {SCHEDULER_KINDS}, got {self.scheduler_kind!r}")


@dataclass
class DropMask:
    """Binary spatial gate, 1 = keep, shared across channels."""

    gate: np.ndarray  # (batch, h, w) float64 in {0, 1}
    dropped_fraction: float


@dataclass
class VertexSet:
    """Sampled feature vectors: positions plus their (n, c) value matrix."""

    indices: np.ndarray  # (n, 3) int rows (batch, y, x), lexicographically sorted
    values: Tensor  # (n, c)

    @property
    def count(self) -> int:
        return self.indices.shape[0]


@dataclass
class AdjacencyMatrix:
    entries: Tensor  # (n, n)
    mode: str


@dataclass
class SchedulerState:
    """Progress of the drop-probability ramp over one training run."""

    step: int
    total_steps: int
    kind: str = "f1"
    rho_target: float = 0.1

    def __post_init__(self):
        if self.total_steps <= 0:
            raise ConfigError(f"total_steps must be positive, got {self.total_steps}")
        if self.kind not in SCHEDULER_KINDS:
            raise ConfigError(f"scheduler kind must be one of {SCHEDULER_KINDS}, got {self.kind!r}")


class GraphGeneratorParams(Module):
    """Weights of the three-layer GCN distortion generator.

    The two outer layers form a bottleneck with channel reduction 4; only the
    middle layer is residual, so an all-zero adjacency collapses the whole
    generator to an exact zero output.
    """

    def __init__(self, channels: int, rng: RngStream):
        super().__init__()
        if channels % 4 != 0:
            raise ConfigError(
                f"graph generator needs channels divisible by 4, got {channels}"
            )
        reduced = channels // 4
        self.w_in = Tensor(
            rng.child("w_in").normal(size=(channels, reduced), scale=math.sqrt(2.0 / channels)),
            requires_grad=True,
        )
        self.w_mid = Tensor(
            rng.child("w_mid").normal(size=(reduced, reduced), scale=math.sqrt(2.0 / reduced)),
            requires_grad=True,
        )
        self.w_out = Tensor(
            rng.child("w_out").normal(size=(reduced, channels), scale=math.sqrt(2.0 / reduced)),
            requires_grad=True,
        )
        self.channels = channels


# -- classic dropout baselines ---------------------------------------------------


def _check_rho(rho: float):
    if not (0.0 <= rho < 1.0):
        raise ContractError(f"drop probability must lie in [0, 1), got {rho}")


def dropout(x: Tensor, rho: float, rng: RngStream, mode: str = "train",
            rescale: bool = False) -> Tensor:
    """Zero each scalar independently with probability ``rho`` (train only)."""
    _check_rho(rho)
    if mode == "eval" or rho == 0.0:
        return x
    keep = (rng.uniform(size=x.data.shape) >= rho).astype(np.float64)
    out = x * Tensor(keep)
    if rescale:
        out = out * (1.0 / (1.0 - rho))
    return out


def spatial_dropout(x: Tensor, rho: float, rng: RngStream, mode: str = "train",
                    rescale: bool = False) -> Tensor:
    """Zero whole feature vectors: one gate per (batch, y, x), all channels."""
    _check_rho(rho)
    if mode == "eval" or rho == 0.0:
        return x
    b, _, h, w = x.data.shape
    keep = (rng.uniform(size=(b, 1, h, w)) >= rho).astype(np.float64)
    out = x * Tensor(keep)
    if rescale:
        out = out * (1.0 / (1.0 - rho))
    return out


# -- mask branch -------------------------------------------------------------------


def sample_block_mask(h: int, w: int, s: int, rho: float, rng: RngStream,
                      batch: int = 1) -> DropMask:
    """Sample a block mask whose dropped area is calibrated to ``rho``.

    Seed positions are drawn Bernoulli(gamma) on the (h-s+1, w-s+1) region
    where an s x s block fits entirely inside the map; every seed zeroes its
    block, overlaps allowed.  gamma = rho*h*w / (s^2 (h-s+1)(w-s+1)) makes
    the expected dropped fraction track rho (verified by Monte Carlo in the
    acceptance suite, not trusted).
    """
    _check_rho(rho)
    if s > min(h, w):
        raise ContractError(f"block size {s} exceeds map size {h}x{w}")
    vh, vw = h - s + 1, w - s + 1
    gamma = min(1.0, rho * h * w / (s * s * vh * vw))
    seeds = rng.uniform(size=(batch, vh, vw)) < gamma
    dropped = np.zeros((batch, h, w), dtype=bool)
    for dy in range(s):
        for dx in range(s):
            dropped[:, dy : dy + vh, dx : dx + vw] |= seeds
    gate = 1.0 - dropped.astype(np.float64)
    return DropMask(gate=gate, dropped_fraction=float(dropped.mean()))


# -- graph branch --------------------------------------------------------------------


def sample_vertices(x: Tensor, alpha: float, rng: RngStream) -> VertexSet:
    """Select each spatial position of each batch item with probability alpha.

    When alpha > 0 an item whose draw comes up empty gets one forced vertex
    at a uniform random position, so the per-item vertex count is >= 1.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
    b, _, h, w = x.data.shape
    if alpha == 0.0:
        indices = np.zeros((0, 3), dtype=np.intp)
        return VertexSet(indices=indices, values=take_spatial_vectors(x, [], [], []))
    selected = rng.child("select").uniform(size=(b, h, w)) < alpha
    for bi in range(b):
        if not selected[bi].any():
            flat = int(rng.child("force", bi).integers(0, h * w))
            selected[bi, flat // w, flat % w] = True
    indices = np.argwhere(selected)  # lexicographic (b, y, x): unique, sorted
    values = take_spatial_vectors(x, indices[:, 0], indices[:, 1], indices[:, 2])
    return VertexSet(indices=indices, values=values)


def _tile_to(param: Tensor, n: int) -> Tensor:
    """Resize a square parameter matrix to n x n by truncation or tiling."""
    k = param.data.shape[0]
    if n <= k:
        return slice_axis(slice_axis(param, 0, 0, n), 1, 0, n)
    reps = -(-n // k)  # ceil
    rows = concat([param] * reps, axis=0)
    grid = concat([rows] * reps, axis=1)
    return slice_axis(slice_axis(grid, 0, 0, n), 1, 0, n)


def build_adjacency(v: VertexSet, mode: str = "eq6", normalize: bool = False,
                    learned_param: Tensor | None = None) -> AdjacencyMatrix:
    """Construct the vertex dependency matrix.

    ``eq6`` couples dissimilar vertices strongly: one minus the row-softmax
    of pairwise dot-product similarities, scaled by 1/max(n-1, 1).  Rows of
    the result sum to 1 for n >= 2; a single vertex yields the zero matrix.
    """
    n = v.count
    if n < 1:
        raise ContractError("build_adjacency requires at least one vertex")
    if mode == "identity":
        return AdjacencyMatrix(Tensor(np.eye(n)), mode)
    if mode == "uniform":
        return AdjacencyMatrix(Tensor(np.full((n, n), 1.0 / n)), mode)
    if mode == "zero":
        return AdjacencyMatrix(Tensor(np.zeros((n, n))), mode)
    if mode == "learned":
        if learned_param is None:
            raise ConfigError("learned adjacency mode needs a parameter matrix")
        return AdjacencyMatrix(_tile_to(learned_param, n), mode)
    vals = v.values
    if normalize:
        norm = ((vals * vals).sum(axis=1, keepdims=True) + 1e-12) ** 0.5
        vals = vals / norm
    sim = matmul(vals, vals.transpose())
    gated = softmax_rows(sim)
    if mode == "similarity":
        return AdjacencyMatrix(gated, mode)
    if mode == "eq6":
        a = (1.0 - gated) * (1.0 / max(n - 1, 1))
        return AdjacencyMatrix(a, mode)
    raise ConfigError(f"unknown adjacency mode {mode!r}")


def graph_reasoning(x: Tensor, a, w: Tensor) -> Tensor:
    """One residual graph convolution: x + A x W."""
    entries = a.entries if isinstance(a, AdjacencyMatrix) else a
    return x + matmul(matmul(entries, x), w)


def generate_graph_distortions(v: VertexSet, a: AdjacencyMatrix,
                               params: GraphGeneratorParams) -> Tensor:
    """Three-layer GCN bottleneck mapping vertex values to distortions.

    Channel flow c -> c/4 -> c/4 -> c; the middle layer is residual, the
    outer two are plain A.X.W maps, and all three share the same adjacency.
    """
    av = matmul(a.entries, v.values)
    h1 = relu(matmul(av, params.w_in))
    h2 = relu(graph_reasoning(h1, a, params.w_mid))
    return matmul(matmul(a.entries, h2), params.w_out)


def generate_alt_distortions(v: VertexSet, kind: str, rng: RngStream) -> Tensor:
    """Non-learned distortion generators used as ablation baselines."""
    n, c = v.values.data.shape
    if n < 1:
        raise ContractError("distortion generation requires at least one vertex")
    if kind == "avg_pool":
        mean_row = tmean(v.values, axis=0, keepdims=True)
        return mean_row * Tensor(np.ones((n, 1)))
    if kind == "random_noise":
        # Scale is detached: the noise magnitude follows the vertex statistics
        # but contributes no gradient path of its own.
        std = v.values.data.std(axis=0)
        return Tensor(rng.normal(size=(n, c)) * std)
    raise ConfigError(f"unknown alternative generator {kind!r}")


def pool_expand_apply(x: Tensor, m: DropMask, d: Tensor, v: VertexSet,
                      rng: RngStream) -> Tensor:
    """Pool distortions per batch item, expand to the map, apply at masked positions.

    Distortion rows are averaged over each batch item's vertices into one
    c-vector, broadcast back over the spatial grid, scaled by a uniform(0,1)
    multiplier drawn per spatial position (shared across channels), and
    written wherever the mask gate is 0.  Kept positions pass through
    unchanged; gradients flow into both ``x`` and ``d``.
    """
    b, c, h, w = x.data.shape
    n = d.data.shape[0]
    counts = np.bincount(v.indices[:, 0], minlength=b) if n else np.zeros(b, dtype=int)
    pool = np.zeros((b, n))
    row = 0
    for bi, cnt in enumerate(counts):
        if cnt:
            pool[bi, row : row + cnt] = 1.0 / cnt
            row += cnt
    pooled = matmul(Tensor(pool), d)  # (b, c)
    u = rng.uniform(size=(b, 1, h, w))
    gate = m.gate[:, None, :, :]
    filler = Tensor((1.0 - gate) * u)
    return x * Tensor(gate) + pooled.reshape(b, c, 1, 1) * filler


def dropgraph_forward(x: Tensor, cfg: RegularizerConfig,
                      params: GraphGeneratorParams | None,
                      sched: SchedulerState | None, rng: RngStream,
                      mode: str = "train", mask: DropMask | None = None,
                      learned_adjacency: Tensor | None = None) -> Tensor:
    """Full regularizer forward pass.

    Eval mode returns the input untouched and runs no graph computation.
    Train mode samples the block mask and the vertex set, builds one
    adjacency per batch item, generates distortions, and applies them at
    the masked positions.  ``mask`` can be passed in to share a gate across
    insertion points (skip paths); fresh multipliers are always drawn.
    """
    if mode == "eval":
        return x
    b, c, h, w = x.data.shape
    if cfg.block_size > min(h, w):
        raise ContractError(
            f"block_size {cfg.block_size} exceeds feature map {h}x{w}"
        )
    rho_t = schedule_rho(sched) if sched is not None else cfg.rho_target
    if mask is None:
        mask = sample_block_mask(h, w, cfg.block_size, rho_t, rng.child("mask"), batch=b)
    vertices = sample_vertices(x, cfg.alpha, rng.child("vertices"))
    n = vertices.count
    if n == 0 or cfg.generator_kind == "none":
        d = Tensor(np.zeros((n, c)))
    else:
        # One graph per batch item: vertex rows are lexicographically sorted,
        # so each item's rows form a contiguous slice.
        counts = np.bincount(vertices.indices[:, 0], minlength=b)
        pieces = []
        lo = 0
        for bi, cnt in enumerate(counts):
            if cnt == 0:
                continue
            hi = lo + int(cnt)
            item = VertexSet(indices=vertices.indices[lo:hi],
                             values=slice_axis(vertices.values, 0, lo, hi))
            adj = build_adjacency(item, cfg.adjacency_mode,
                                  normalize=cfg.normalize_similarity,
                                  learned_param=learned_adjacency)
            if cfg.generator_kind == "graph":
                pieces.append(generate_graph_distortions(item, adj, params))
            else:
                pieces.append(generate_alt_distortions(item, cfg.generator_kind,
                                                       rng.child("noise", bi)))
            lo = hi
        d = pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)
    return pool_expand_apply(x, mask, d, vertices, rng.child("multipliers"))


# -- drop-probability schedulers ------------------------------------------------------


def schedule_rho(s: SchedulerState) -> float:
    """Scheduled drop probability at the state's step.

    All ramps start at 0, end at rho_target, and are nondecreasing; the
    quadratic ramp lies below every other one pointwise.
    """
    if s.step < 0 or s.step > s.total_steps:
        raise ContractError(f"step {s.step} outside [0, {s.total_steps}]")
    r = s.step / s.total_steps
    rho = s.rho_target
    if s.kind == "constant":
        return rho
    if s.kind == "f1":
        return rho * r
    if s.kind == "f2":
        return rho * r * r
    if s.kind == "f3":
        return rho * math.sqrt(r)
    if s.kind == "f4":
        return rho * (1.0 - math.cos(math.pi * r)) / 2.0
    if s.kind == "f5":
        return rho * r * r * (3.0 - 2.0 * r)
    raise ConfigError(f"unknown scheduler kind {s.kind!r}")


# -- backbone-insertable modules ------------------------------------------------------


class DropGraph(Module):
    """Graph-reasoning regularizer bound to one insertion point."""

    def __init__(self, channels: int, cfg: RegularizerConfig, rng: RngStream,
                 spatial_size: tuple[int, int] | None = None):
        super().__init__()
        self.cfg = cfg
        self.params = (
            GraphGeneratorParams(channels, rng.child("phi"))
            if cfg.generator_kind == "graph"
            else None
        )
        self.adjacency_param = None
        if cfg.adjacency_mode == "learned":
            if spatial_size is None:
                raise ConfigError("learned adjacency needs the insertion point's spatial size")
            k = max(1, math.ceil(cfg.alpha * spatial_size[0] * spatial_size[1]))
            init = (1.0 + 0.01 * rng.child("adj").normal(size=(k, k))) / k
            self.adjacency_param = Tensor(init, requires_grad=True)

    def forward(self, x: Tensor, rng: RngStream, sched: SchedulerState | None,
                mask: DropMask | None = None) -> Tensor:
        mode = "train" if self.training else "eval"
        return dropgraph_forward(x, self.cfg, self.params, sched, rng, mode,
                                 mask=mask, learned_adjacency=self.adjacency_param)


class ElementDropout(Module):
    """Classic per-scalar dropout as an insertion-point module."""

    def __init__(self, cfg: RegularizerConfig):
        super().__init__()
        self.cfg = cfg

    def forward(self, x, rng, sched, mask=None):
        if not self.training:
            return x
        rho = schedule_rho(sched) if sched is not None else self.cfg.rho_target
        return dropout(x, rho, rng.child("dropout"), "train", self.cfg.rescale_dropout)


class SpatialDropout(Module):
    """Whole-feature-vector dropout as an insertion-point module."""

    def __init__(self, cfg: RegularizerConfig):
        super().__init__()
        self.cfg = cfg

    def forward(self, x, rng, sched, mask=None):
        if not self.training:
            return x
        rho = schedule_rho(sched) if sched is not None else self.cfg.rho_target
        return spatial_dropout(x, rho, rng.child("spatial"), "train", self.cfg.rescale_dropout)


class PartialGraphReasoning(Module):
    """Single graph-convolution layer applied to a sampled subset of positions.

    The selected feature vectors are replaced by A V W (non-residual); the
    rest of the map passes through.  Used by the sampling-strategy study:
    ``strategy`` picks random Bernoulli(alpha) sampling or the top
    alpha-fraction of positions by vector norm, and ``active_in_eval``
    switches between the train-only and train-and-infer arms.
    """

    def __init__(self, channels: int, alpha: float, rng: RngStream,
                 strategy: str = "random", active_in_eval: bool = False,
                 adjacency_mode: str = "eq6"):
        super().__init__()
        if strategy not in ("random", "top"):
            raise ConfigError(f"strategy must be 'random' or 'top', got {strategy!r}")
        if not (0.0 <= alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = alpha
        self.strategy = strategy
        self.active_in_eval = active_in_eval
        self.adjacency_mode = adjacency_mode
        self.weight = Tensor(
            rng.child("pgr_w").normal(size=(channels, channels), scale=math.sqrt(2.0 / channels)),
            requires_grad=True,
        )

    def _select_top(self, x: Tensor) -> np.ndarray:
        b, _, h, w = x.data.shape
        k = max(1, int(round(self.alpha * h * w)))
        mag = np.sqrt((x.data * x.data).sum(axis=1)).reshape(b, h * w)
        selected = np.zeros((b, h, w), dtype=bool)
        for bi in range(b):
            # lexsort: descending magnitude, position index breaks ties.
            order = np.lexsort((np.arange(h * w), -mag[bi]))[:k]
            selected[bi, order // w, order % w] = True
        return np.argwhere(selected)

    def forward(self, x: Tensor, rng: RngStream, sched=None, mask=None) -> Tensor:
        if not self.training and not self.active_in_eval:
            return x
        if self.alpha == 0.0:
            return x
        if self.strategy == "random":
            vertices = sample_vertices(x, self.alpha, rng.child("pgr_vertices"))
            indices = vertices.indices
            values = vertices.values
        else:
            indices = self._select_top(x)
            values = take_spatial_vectors(x, indices[:, 0], indices[:, 1], indices[:, 2])
        if indices.shape[0] == 0:
            return x
        b = x.data.shape[0]
        counts = np.bincount(indices[:, 0], minlength=b)
        pieces = []
        lo = 0
        for cnt in counts:
            if cnt == 0:
                continue
            hi = lo + int(cnt)
            item = VertexSet(indices=indices[lo:hi], values=slice_axis(values, 0, lo, hi))
            adj = build_adjacency(item, self.adjacency_mode)
            pieces.append(matmul(matmul(adj.entries, item.values), self.weight))
            lo = hi
        rows = pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)
        return replace_spatial_vectors(x, indices[:, 0], indices[:, 1], indices[:, 2], rows)


def make_regularizer(kind: str, channels: int, cfg: RegularizerConfig,
                     rng: RngStream, spatial_size=None, pgr_strategy: str = "random",
                     pgr_active_in_eval: bool = False):
    """Insertion-point module factory for a regularizer kind, or None."""
    if kind == "none":
        return None
    if kind == "dropout":
        return ElementDropout(cfg)
    if kind == "spatial_dropout":
        return SpatialDropout(cfg)
    if kind == "dropblock":
        mask_only = RegularizerConfig(
            alpha=0.0, rho_target=cfg.rho_target, block_size=cfg.block_size,
            adjacency_mode=cfg.adjacency_mode, generator_kind="none",
            scheduler_kind=cfg.scheduler_kind,
        )
        return DropGraph(channels, mask_only, rng, spatial_size=spatial_size)
    if kind == "dropgraph":
        return DropGraph(channels, cfg, rng, spatial_size=spatial_size)
    if kind == "pgr":
        return PartialGraphReasoning(channels, cfg.alpha, rng,
                                     strategy=pgr_strategy,
                                     active_in_eval=pgr_active_in_eval,
                                     adjacency_mode=cfg.adjacency_mode)
    raise ConfigError(f"unknown regularizer kind {kind!r}")
