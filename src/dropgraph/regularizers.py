"""Training-time feature-map regularizers.

The family ranges from plain Bernoulli dropout (per scalar, or per feature
vector with ``spatial``) to the graph-reasoning regularizer: contiguous
square blocks of a feature map are gated out and, instead of leaving zeros
behind, a small stand-alone graph network built over randomly sampled
feature vectors generates replacement distortions.  DropBlock is that
regularizer with no vertices and no generator, so its gated blocks stay
zero.  ``dropout`` and ``dropgraph_forward`` are training-time functions:
each insertion-point module returns its input when its ``training`` flag is
off, except partial graph reasoning's train-and-infer arm.

Two stochastic branches drive the graph regularizer:

* mask branch - block gate ``M`` controlled by drop probability ``rho``
  (ramped by a scheduler) and block size ``s``;
* graph branch - vertex set ``V`` sampled per feature map with ratio
  ``alpha``, pairwise adjacency ``A``, and a three-layer GCN bottleneck
  that maps vertex values to distortions.

Every batch item gets its own graph, and one insertion point runs all of
them at once in a padded layout: ``sample_vertices`` gathers item i's
``n_i`` vertices into rows ``:n_i`` of a (b, n_max, c) stack whose other
rows are zero.  Adjacency and GCN layers are then single stacked tensor
ops over the batch.  The softmax is masked to each item's own vertices,
per-item scales such as 1/max(n_i - 1, 1) are (b, 1, 1) arrays, and pad
rows and columns of ``A`` are exactly zero, so each item's result equals
its stand-alone graph up to floating-point summation order.  A one-item
batch is one flat (n, c) graph instead (see ``VertexSet``).

Each stochastic site draws from its own named RNG path, so any site can be
replayed in isolation and configurations that ignore a site (for example a
zero adjacency) still consume identical randomness elsewhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractError
from .nn import Module, kaiming
from .rng import RngStream
from .tensor import (
    Tensor,
    matmul,
    relu,
    replace_spatial_vectors,
    softmax_rows,
    take_rows,
    take_spatial_vectors,
)

__all__ = [
    "RegularizerConfig",
    "DropMask",
    "VertexSet",
    "GraphGeneratorParams",
    "dropout",
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
    "Dropout",
    "PartialGraphReasoning",
    "make_regularizer",
]

ADJACENCY_MODES = ("eq6", "learned", "similarity", "identity", "uniform", "zero")
GENERATOR_KINDS = ("graph", "random_noise", "avg_pool", "none")
# Drop-probability ramps: rho(r) for the end value rho and the run's progress r in [0, 1].
_RAMPS = {
    "f1": lambda rho, r: rho * r,
    "f2": lambda rho, r: rho * r * r,
    "f3": lambda rho, r: rho * math.sqrt(r),
    "f4": lambda rho, r: rho * (1.0 - math.cos(math.pi * r)) / 2.0,
    "f5": lambda rho, r: rho * r * r * (3.0 - 2.0 * r),
    "constant": lambda rho, r: rho,
}
SCHEDULER_KINDS = tuple(_RAMPS)
REG_KINDS = ("none", "dropout", "spatial_dropout", "dropblock", "dropgraph", "pgr")
# Regularizer kinds that sample a block mask, the only ones that read block_size.
MASK_KINDS = ("dropblock", "dropgraph")


# -- configuration and value types ---------------------------------------------


@dataclass
class RegularizerConfig:
    """Settings for one regularizer: field ``x`` is config key ``reg.x``.

    ``rho`` is the drop probability the schedule ends at.  The ``rho``
    argument of ``dropout``, ``sample_block_mask`` and ``dropgraph_forward``
    is the step's scheduled value, so no code path reads ``cfg.rho`` there.
    """

    kind: str = "none"
    alpha: float = 0.2
    rho: float = 0.1
    block_size: int = 3
    adjacency: str = "eq6"
    generator: str = "graph"
    scheduler: str = "f1"
    rescale_dropout: bool = False
    normalize_similarity: bool = False
    pgr_strategy: str = "random"
    pgr_active_in_eval: bool = False

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ConfigError(f"kind must be one of {REG_KINDS}, got {self.kind!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if self.block_size < 1 or self.block_size % 2 == 0:
            raise ConfigError(f"block_size must be an odd positive integer, got {self.block_size}")
        if self.adjacency not in ADJACENCY_MODES:
            raise ConfigError(f"adjacency must be one of {ADJACENCY_MODES}, got {self.adjacency!r}")
        if self.generator not in GENERATOR_KINDS:
            raise ConfigError(f"generator must be one of {GENERATOR_KINDS}, got {self.generator!r}")
        if self.scheduler not in SCHEDULER_KINDS:
            raise ConfigError(f"scheduler must be one of {SCHEDULER_KINDS}, got {self.scheduler!r}")
        if self.pgr_strategy not in ("random", "top"):
            raise ConfigError(f"pgr_strategy must be 'random' or 'top', got {self.pgr_strategy!r}")


@dataclass
class DropMask:
    """Binary spatial gate, 1 = keep, shared across channels."""

    gate: np.ndarray  # (batch, h, w) float64 in {0, 1}
    dropped_fraction: float


@dataclass
class VertexSet:
    """Sampled feature vectors: their positions and their values.

    ``values`` is one flat (n, c) graph over all rows of ``indices``, or one
    graph per batch item padded to the largest item: item i's vertices fill
    the rows where ``valid[i]`` is True, in ``indices`` order, and its pad
    rows after them are zero.  ``positions`` are the rows' (ib, iy, ix) map
    positions: ``indices`` when flat, and (i, 0, 0) at a pad row of item i.
    ``_gather_vertices`` alone picks the layout, flat exactly for a one-item
    batch; consumers read ``row_mask`` ((..., n, 1): 1 at vertex rows, 0 at
    pad rows) and ``sizes`` (each graph's vertex count, (..., 1, 1)).
    """

    indices: np.ndarray  # (n, 3) int rows (batch, y, x), lexicographically sorted
    values: Tensor  # (n, c), or (b, n_max, c) when valid is set
    valid: np.ndarray | None = None  # (b, n_max) bool, True at vertex rows; None when flat
    positions: tuple | None = None  # (ib, iy, ix), each shaped like values' rows
    row_mask: np.ndarray = field(init=False)
    sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.positions is None:
            self.positions = tuple(self.indices.T)
        valid = np.ones(self.values.data.shape[:-1], bool) if self.valid is None else self.valid
        self.row_mask = valid[..., None].astype(np.float64)
        self.sizes = self.row_mask.sum(axis=-2, keepdims=True)

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    @property
    def counts(self) -> np.ndarray | None:
        """(b,) vertices per item of the padded layout; None when flat."""
        return None if self.valid is None else self.valid.sum(axis=1)


def _gather_vertices(x: Tensor, indices: np.ndarray) -> VertexSet:
    """The feature vectors of ``x`` at ``indices``, one graph per batch item.

    A one-item batch is one flat (n, c) graph; a larger batch is padded
    (see ``VertexSet``) and always carries its ``valid`` mask.  Every item
    holds at least one vertex, or none does.
    """
    b = x.data.shape[0]
    # Flat for speed: padding the node-graph task's one (1, c, n, 1) map made its
    # regularizer 8-23% slower (2-core Xeon VM), and changed random_noise's RNG stream.
    if b == 1:
        return VertexSet(indices, take_spatial_vectors(x, *indices.T))
    counts = np.bincount(indices[:, 0], minlength=b)
    valid = np.arange(counts.max()) < counts[:, None]
    # ``indices`` is sorted by item, so its rows fill ``valid``'s True entries in order.
    pos = np.zeros((3,) + valid.shape, dtype=np.intp)
    pos[0] = np.arange(b)[:, None]
    pos[1:, valid] = indices[:, 1:].T
    return VertexSet(indices, take_spatial_vectors(x, *pos, valid=valid), valid, tuple(pos))


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
        self.w_in = kaiming(rng.child("w_in"), (channels, reduced), channels)
        self.w_mid = kaiming(rng.child("w_mid"), (reduced, reduced), reduced)
        self.w_out = kaiming(rng.child("w_out"), (reduced, channels), reduced)


# -- classic dropout baselines ---------------------------------------------------


def _check_rho(rho: float | None):
    if rho is None or not (0.0 <= rho < 1.0):
        raise ContractError(f"drop probability must lie in [0, 1), got {rho}")


def dropout(x: Tensor, rho: float, rng: RngStream, rescale: bool = False,
            spatial: bool = False) -> Tensor:
    """Zero each scalar independently with probability ``rho``, the step's scheduled value.

    A training-time function: inference skips it (``Dropout`` returns its
    input out of training).  With ``spatial`` a (batch, c, h, w) input gets
    one gate per (batch, y, x), shared by all channels: whole feature
    vectors drop.
    """
    _check_rho(rho)
    if rho == 0.0:
        return x
    shape = x.data.shape
    if spatial:
        shape = (shape[0], 1) + shape[2:]
    keep = (rng.uniform(size=shape) >= rho).astype(np.float64)
    out = x * Tensor(keep)
    if rescale:
        out = out * (1.0 / (1.0 - rho))
    return out


# -- mask branch -------------------------------------------------------------------


def _covering_seeds(n: int, s: int) -> np.ndarray:
    """Per coordinate of an n-long axis, the seed rows whose s-block covers it."""
    pos = np.arange(n)
    return np.minimum(pos, n - s) - np.maximum(pos - s + 1, 0) + 1


@functools.lru_cache(maxsize=1024)
def _block_seed_rate(h: int, w: int, s: int, rho: float) -> float:
    """The seed rate gamma whose expected dropped fraction is exactly ``rho``.

    A position covered by k(pos) = cover_y * cover_x possible seeds stays
    when none of them fires, so the expected dropped fraction is
    ``mean_pos 1 - (1 - gamma)^k(pos)``: 0 at gamma = 0, 1 at gamma = 1 and
    increasing in between.  Bisection solves it for gamma.
    """
    ks, counts = np.unique(np.outer(_covering_seeds(h, s), _covering_seeds(w, s)),
                           return_counts=True)
    weights = counts / (h * w)
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if weights @ (1.0 - (1.0 - mid) ** ks) < rho:
            lo = mid
        else:
            hi = mid
    return lo  # exactly 0 at rho = 0


def sample_block_mask(h: int, w: int, s: int, rho: float, rng: RngStream,
                      batch: int = 1) -> DropMask:
    """Sample a block mask whose expected dropped area is exactly ``rho``.

    Seed positions are drawn Bernoulli(gamma) on the (h-s+1, w-s+1) region
    where an s x s block fits entirely inside the map; every seed zeroes its
    block, overlaps allowed.  The DropBlock rate
    rho*h*w / (s^2 (h-s+1)(w-s+1)) ignores the overlaps (it drops 11.6% too
    little at 16x16, s=5, rho=0.2), so for s > 1 gamma solves the exact
    expectation instead (``_block_seed_rate``); for s = 1 both are rho.  The
    release gate checks the rate by Monte Carlo.
    """
    _check_rho(rho)
    if s > min(h, w):
        raise ContractError(f"block size {s} exceeds map size {h}x{w}")
    vh, vw = h - s + 1, w - s + 1
    if s == 1:
        gamma = min(1.0, rho * h * w / (s * s * vh * vw))
    else:
        gamma = _block_seed_rate(h, w, s, rho)
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
    at a uniform random position, so the per-item vertex count is >= 1; at
    alpha = 0 nothing is drawn.  The values come in their graph layout
    (``_gather_vertices``), so an empty set is (b, 0, c), or (0, c) when b = 1.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
    b, _, h, w = x.data.shape
    selected = np.zeros((b, h, w), dtype=bool)
    if alpha > 0.0:
        selected = rng.child("select").uniform(size=(b, h, w)) < alpha
        for bi in np.flatnonzero(~selected.reshape(b, h * w).any(axis=1)):
            flat = int(rng.child("force", int(bi)).integers(0, h * w))
            selected[bi, flat // w, flat % w] = True
    return _gather_vertices(x, np.argwhere(selected))  # lexicographic (b, y, x)


def build_adjacency(v: VertexSet, mode: str = "eq6", normalize: bool = False,
                    learned_param: Tensor | None = None) -> Tensor:
    """Construct the (n, n) vertex dependency matrix of each graph in ``v``.

    ``eq6`` couples dissimilar vertices strongly: one minus the row-softmax
    of pairwise dot-product similarities, scaled by 1/max(n-1, 1).  Rows of
    the result sum to 1 for n >= 2; a single vertex yields the zero matrix.
    For padded graphs the result is (b, n_max, n_max), each item's matrix
    computed over its own n vertices, with pad rows and columns exactly 0.
    """
    if v.count < 1:
        raise ContractError("build_adjacency requires at least one vertex")
    m = v.values.data.shape[-2]
    valid = v.valid
    pairs = None if valid is None else valid[:, :, None] & valid[:, None, :]
    if mode in ("identity", "uniform", "zero"):
        if mode == "identity":
            a = np.eye(m)
        elif mode == "uniform":
            a = np.ones((m, m)) / v.sizes
        else:
            a = np.zeros((m, m))
        return Tensor(a if pairs is None else a * pairs)
    if mode == "learned":
        if learned_param is None:
            raise ConfigError("learned adjacency mode needs a parameter matrix")
        # Truncate or tile the (k, k) parameter to (m, m): entry (i, j) is
        # param[i % k, j % k].
        k = learned_param.data.shape[0]
        r = np.arange(m) % k
        a = take_rows(learned_param.reshape(k * k), r[:, None] * k + r[None, :])
        return a if pairs is None else a * pairs
    vals = v.values
    if normalize:
        norm = ((vals * vals).sum(axis=-1, keepdims=True) + 1e-12) ** 0.5
        vals = vals / norm
    sim = matmul(vals, vals.transpose())
    gated = softmax_rows(sim, pairs)
    if mode == "similarity":
        return gated
    if mode == "eq6":
        scale = -1.0 / np.maximum(v.sizes - 1.0, 1.0)
        # (1 - S) * scale written as (S - 1) * -scale, which negates the
        # scale instead of the (b, n, n) stack; the result is the same bits.
        return (gated - 1.0) * (scale if pairs is None else pairs * scale)
    raise ConfigError(f"unknown adjacency mode {mode!r}")


def graph_reasoning(x: Tensor, a: Tensor, w: Tensor) -> Tensor:
    """One residual graph convolution: x + A x W."""
    return x + matmul(matmul(a, x), w)


def generate_graph_distortions(v: VertexSet, a: Tensor,
                               params: GraphGeneratorParams) -> Tensor:
    """Three-layer GCN bottleneck mapping vertex values to distortions.

    Channel flow c -> c/4 -> c/4 -> c; the middle layer is residual, the
    outer two are plain A.X.W maps, and all three share the same adjacency.
    The first layer is evaluated as A.(X.W), which narrows its n^2 term to
    c/4 channels.  Pad rows of a padded ``a`` are zero, so they stay zero.
    """
    h1 = relu(matmul(a, matmul(v.values, params.w_in)))
    h2 = relu(graph_reasoning(h1, a, params.w_mid))
    return matmul(matmul(a, h2), params.w_out)


def generate_alt_distortions(v: VertexSet, kind: str, rng: RngStream) -> Tensor:
    """Non-learned distortion generators used as ablation baselines.

    Padded graphs get zero pad rows; for ``random_noise`` item i of a padded
    set draws from ``rng.child(i)``.
    """
    if v.count < 1:
        raise ContractError("distortion generation requires at least one vertex")
    if kind == "avg_pool":
        mean_row = v.values.sum(axis=-2, keepdims=True) / np.maximum(v.sizes, 1.0)
        return mean_row * v.row_mask
    if kind == "random_noise":
        # Scale is detached: the noise magnitude follows the vertex statistics
        # but contributes no gradient path of its own.
        vals = v.values.data
        if v.valid is None:
            return Tensor(rng.normal(size=vals.shape) * vals.std(axis=0))
        noise = np.zeros_like(vals)
        counts = v.counts
        for bi in np.flatnonzero(counts):
            item = vals[bi, : counts[bi]]
            noise[bi, : len(item)] = rng.child(int(bi)).normal(size=item.shape) * item.std(axis=0)
        return Tensor(noise)
    raise ConfigError(f"unknown alternative generator {kind!r}")


def pool_expand_apply(x: Tensor, m: DropMask, d: Tensor, v: VertexSet,
                      rng: RngStream) -> Tensor:
    """Pool distortions per batch item, expand to the map, apply at masked positions.

    Distortion rows are averaged over each batch item's vertices into one
    c-vector, broadcast back over the spatial grid, scaled by a uniform(0,1)
    multiplier drawn per spatial position (shared across channels), and
    written wherever the mask gate is 0.  Kept positions pass through
    unchanged; gradients flow into both ``x`` and ``d``.  ``d`` has the
    layout of ``v.values``: one row per vertex, or padded per item.
    """
    b, c, h, w = x.data.shape
    pool = np.swapaxes(v.row_mask, -1, -2) / np.maximum(v.sizes, 1.0)  # (..., 1, n): 1/n_i
    pooled = matmul(Tensor(pool), d)
    u = rng.uniform(size=(b, 1, h, w))
    gate = m.gate[:, None, :, :]
    filler = Tensor((1.0 - gate) * u)
    return x * Tensor(gate) + pooled.reshape(b, c, 1, 1) * filler


def dropgraph_forward(x: Tensor, cfg: RegularizerConfig,
                      params: GraphGeneratorParams | None, rho: float, rng: RngStream,
                      mask: DropMask | None = None,
                      learned_adjacency: Tensor | None = None) -> Tensor:
    """Full training-time regularizer forward pass; inference skips it.

    Samples the block mask at the step's scheduled ``rho`` and the vertex set,
    builds one padded graph per batch item, generates distortions for all
    of them at once, and applies them at the masked positions.  ``mask``
    can be passed in to share a gate across insertion points (skip paths);
    ``rho`` is then not read.  Fresh multipliers are always drawn.
    """
    b, _, h, w = x.data.shape
    if mask is None:
        mask = sample_block_mask(h, w, cfg.block_size, rho, rng.child("mask"), batch=b)
    vertices = sample_vertices(x, cfg.alpha, rng.child("vertices"))
    if vertices.count == 0 or cfg.generator == "none":
        d = Tensor(np.zeros(vertices.values.data.shape))
    elif cfg.generator == "graph":
        adj = build_adjacency(vertices, cfg.adjacency,
                              normalize=cfg.normalize_similarity,
                              learned_param=learned_adjacency)
        d = generate_graph_distortions(vertices, adj, params)
    else:
        d = generate_alt_distortions(vertices, cfg.generator, rng.child("noise"))
    return pool_expand_apply(x, mask, d, vertices, rng.child("multipliers"))


# -- drop-probability schedulers ------------------------------------------------------


def schedule_rho(cfg: RegularizerConfig, step: int, total_steps: int) -> float:
    """Drop probability at ``step`` of a ``total_steps``-long training run.

    ``cfg.scheduler`` picks the ramp and ``cfg.rho`` its end value.  All
    ramps start at 0, end at ``cfg.rho``, and are nondecreasing;
    the quadratic ramp lies below every other one pointwise.  The trainer
    calls this once per step and passes the float to the model.
    """
    if total_steps <= 0:
        raise ContractError(f"total_steps must be positive, got {total_steps}")
    if step < 0 or step > total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return _RAMPS[cfg.scheduler](cfg.rho, step / total_steps)


# -- backbone-insertable modules ------------------------------------------------------


class DropGraph(Module):
    """Graph-reasoning regularizer bound to one insertion point."""

    def __init__(self, channels: int, cfg: RegularizerConfig, rng: RngStream,
                 spatial_size: tuple[int, int] | None = None):
        super().__init__()
        self.cfg = cfg
        self.params = (
            GraphGeneratorParams(channels, rng.child("phi"))
            if cfg.generator == "graph"
            else None
        )
        self.adjacency_param = None
        if cfg.adjacency == "learned" and self.params is not None:
            if spatial_size is None:
                raise ConfigError("learned adjacency needs the insertion point's spatial size")
            k = max(1, math.ceil(cfg.alpha * spatial_size[0] * spatial_size[1]))
            init = (1.0 + 0.01 * rng.child("adj").normal(size=(k, k))) / k
            self.adjacency_param = Tensor(init, requires_grad=True)

    def forward(self, x: Tensor, rng: RngStream, rho: float | None,
                mask: DropMask | None = None) -> Tensor:
        if not self.training:
            return x
        return dropgraph_forward(x, self.cfg, self.params, rho, rng,
                                 mask=mask, learned_adjacency=self.adjacency_param)


class Dropout(Module):
    """Per-scalar dropout, or whole-feature-vector dropout for kind
    ``spatial_dropout``, as an insertion-point module."""

    def __init__(self, cfg: RegularizerConfig):
        super().__init__()
        self.cfg = cfg
        self.spatial = cfg.kind == "spatial_dropout"

    def forward(self, x, rng, rho, mask=None):
        if not self.training:
            return x
        site = rng.child("spatial" if self.spatial else "dropout")
        return dropout(x, rho, site, self.cfg.rescale_dropout, spatial=self.spatial)


class PartialGraphReasoning(Module):
    """Single graph-convolution layer applied to a sampled subset of positions.

    The selected feature vectors are replaced by A V W (non-residual); the
    rest of the map passes through.  Used by the sampling-strategy study:
    ``cfg.pgr_strategy`` picks random Bernoulli(alpha) sampling or the top
    alpha-fraction of positions by vector norm, and ``cfg.pgr_active_in_eval``
    switches between the train-only and train-and-infer arms.  It reads no
    drop probability.
    """

    def __init__(self, channels: int, cfg: RegularizerConfig, rng: RngStream):
        super().__init__()
        self.cfg = cfg
        self.weight = kaiming(rng.child("pgr_w"), (channels, channels), channels)

    def _select_top(self, x: Tensor) -> np.ndarray:
        b, _, h, w = x.data.shape
        k = max(1, int(round(self.cfg.alpha * h * w)))
        mag = np.sqrt((x.data * x.data).sum(axis=1)).reshape(b, h * w)
        # Stable sort: descending magnitude, position index breaks ties.
        order = np.argsort(-mag, axis=1, kind="stable")[:, :k]
        selected = np.zeros((b, h * w), dtype=bool)
        selected[np.arange(b)[:, None], order] = True
        return np.argwhere(selected.reshape(b, h, w))

    def forward(self, x: Tensor, rng: RngStream, rho=None, mask=None) -> Tensor:
        if not self.training and not self.cfg.pgr_active_in_eval:
            return x
        if self.cfg.alpha == 0.0:
            return x
        if self.cfg.pgr_strategy == "random":
            graphs = sample_vertices(x, self.cfg.alpha, rng.child("pgr_vertices"))
        else:
            graphs = _gather_vertices(x, self._select_top(x))
        adj = build_adjacency(graphs, self.cfg.adjacency,
                              normalize=self.cfg.normalize_similarity)
        rows = matmul(matmul(adj, graphs.values), self.weight)
        return replace_spatial_vectors(x, *graphs.positions, rows, valid=graphs.valid)


def make_regularizer(cfg: RegularizerConfig, channels: int, rng: RngStream,
                     spatial_size=None):
    """The insertion-point module of ``cfg.kind``, or None for ``none``.

    Each is called as ``reg(x, rng, rho, mask=None)`` and returns its input
    when its ``training`` flag is off (PGR's train-and-infer arm aside).
    """
    if cfg.kind == "none":
        return None
    if cfg.kind in ("dropout", "spatial_dropout"):
        return Dropout(cfg)
    if cfg.kind == "dropblock":
        # The block mask alone: no vertices and no generator, so no adjacency is read.
        return DropGraph(channels, replace(cfg, alpha=0.0, generator="none"), rng)
    if cfg.kind == "dropgraph":
        return DropGraph(channels, cfg, rng, spatial_size=spatial_size)
    return PartialGraphReasoning(channels, cfg, rng)  # kind "pgr"
