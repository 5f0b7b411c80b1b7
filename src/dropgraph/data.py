"""Synthetic datasets for the desk-scale experiments.

Images: four pattern families (oriented gratings, Gaussian blobs, axis
checkers, concentric rings), one per class, with per-sample latents and
additive Gaussian noise, normalized to zero mean / unit variance over the
training split.  Small train splits overfit by design.

Graphs: a stochastic block model with community-informative noisy node
features, split Cora-style (a few labeled nodes per class, disjoint
val/test).

Every array a generator returns is read-only (``flags.writeable`` is
False): one dataset is shared by every run of a command, so a write into
it raises instead of changing the next run's data.  Specs are frozen, so a
spec keys its shared dataset.

Both dataset kinds are cached, write only, by ``save_arrays`` (``.npy``
records behind a JSON header, as checkpoints are): a dataset is a pure
function of its spec, which the writer supplies.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, ContractError
from .rng import RngStream

__all__ = [
    "SyntheticImageSpec",
    "ImageDataset",
    "SbmGraphSpec",
    "GraphInstance",
    "gen_images",
    "gen_sbm",
    "save_arrays",
    "load_arrays",
    "save_image_dataset",
    "save_graph_dataset",
]


PATTERN_FAMILIES = ("gratings", "blobs", "checkers", "rings")


@dataclass(frozen=True)
class SyntheticImageSpec:
    classes: int = 4
    image_size: int = 32
    train_count: int = 512
    val_count: int = 2048
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (2 <= self.classes <= len(PATTERN_FAMILIES)):
            raise ConfigError(
                f"classes must lie in [2, {len(PATTERN_FAMILIES)}], got {self.classes}"
            )
        if self.image_size < 8:
            raise ConfigError(f"image_size must be >= 8, got {self.image_size}")
        if self.train_count < self.classes or self.val_count < self.classes:
            raise ConfigError("train_count and val_count must cover every class")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ImageDataset:
    train_x: np.ndarray  # (n, 1, s, s) float64, normalized
    train_y: np.ndarray  # (n,) int64
    val_x: np.ndarray
    val_y: np.ndarray
    pixel_mean: float
    pixel_std: float


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _grid(size):
    """The ``(yy, xx)`` pixel coordinates on [-1, 1], shared by every image of one size."""
    ax = np.linspace(-1.0, 1.0, size)
    return _read_only(*np.meshgrid(ax, ax, indexing="ij"))


def _pattern(family: str, size: int, rng: RngStream) -> np.ndarray:
    yy, xx = _grid(size)
    if family == "gratings":
        theta = rng.uniform() * np.pi
        freq = rng.uniform(low=1.5, high=3.5)
        phase = rng.uniform() * 2 * np.pi
        return np.sin(2 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase)
    if family == "blobs":
        img = np.zeros((size, size))
        for _ in range(3):
            cy, cx = rng.uniform(size=2, low=-0.6, high=0.6)
            width = rng.uniform(low=0.15, high=0.3)
            img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2))
        return img - img.mean()
    if family == "checkers":
        freq = rng.uniform(low=1.0, high=2.5)
        p1 = rng.uniform() * 2 * np.pi
        p2 = rng.uniform() * 2 * np.pi
        return np.sign(np.sin(np.pi * freq * xx + p1) * np.sin(np.pi * freq * yy + p2))
    if family == "rings":
        cy, cx = rng.uniform(size=2, low=-0.3, high=0.3)
        freq = rng.uniform(low=1.5, high=3.0)
        phase = rng.uniform() * 2 * np.pi
        r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        return np.cos(2 * np.pi * freq * r + phase)
    raise ConfigError(f"unknown pattern family {family!r}")


def _make_split(spec: SyntheticImageSpec, rng: RngStream, count: int):
    xs = np.empty((count, 1, spec.image_size, spec.image_size))
    ys = np.empty(count, dtype=np.int64)
    for i in range(count):
        label = i % spec.classes
        sample_rng = rng.child(i)
        img = _pattern(PATTERN_FAMILIES[label], spec.image_size, sample_rng.child("latent"))
        if spec.noise_std > 0:
            img = img + sample_rng.child("noise").normal(size=img.shape, scale=spec.noise_std)
        xs[i, 0] = img
        ys[i] = label
    return xs, ys


def gen_images(spec: SyntheticImageSpec) -> ImageDataset:
    """Deterministic class-balanced image dataset for the given spec."""
    rng = RngStream(spec.seed, ("images",))
    train_x, train_y = _make_split(spec, rng.child("train"), spec.train_count)
    val_x, val_y = _make_split(spec, rng.child("val"), spec.val_count)
    mean = float(train_x.mean())
    std = float(train_x.std())
    if std == 0.0:
        std = 1.0
    train_x = (train_x - mean) / std
    val_x = (val_x - mean) / std
    _read_only(train_x, train_y, val_x, val_y)
    return ImageDataset(train_x=train_x, train_y=train_y, val_x=val_x, val_y=val_y,
                        pixel_mean=mean, pixel_std=std)


# -- stochastic block model ---------------------------------------------------------


@dataclass
class GraphInstance:
    """One node-classification problem on a fixed graph.

    Three arrays are derived here, once per graph, because they depend on
    no parameter:

    * ``propagated_features`` is ``normalized_adjacency @ node_features``,
      the first GCN layer's propagation over all n nodes (as SGC computes
      it), instead of once in every forward;
    * ``train_adjacency`` and ``val_adjacency`` are the row blocks
      ``normalized_adjacency[train_idx]`` and ``[val_idx]``.  The second GCN
      layer's propagation multiplies by one of them, so it computes the
      logits of just the rows the loss or the score reads.

    The instance is immutable: every array it holds is made read-only here,
    and the derived arrays are not refreshed if the arrays they came from
    are rebound later.
    """

    node_features: np.ndarray  # (n, f)
    normalized_adjacency: np.ndarray  # (n, n), symmetric degree-normalized A+I
    labels: np.ndarray  # (n,)
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    propagated_features: np.ndarray = field(init=False, repr=False)  # (n, f)
    train_adjacency: np.ndarray = field(init=False, repr=False)  # (len(train_idx), n)
    val_adjacency: np.ndarray = field(init=False, repr=False)  # (len(val_idx), n)

    def __post_init__(self):
        self.propagated_features = self.normalized_adjacency @ self.node_features
        self.train_adjacency = self.normalized_adjacency[self.train_idx]
        self.val_adjacency = self.normalized_adjacency[self.val_idx]
        _read_only(*(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True)
class SbmGraphSpec:
    nodes: int = 300
    communities: int = 3
    p_in: float = 0.08
    p_out: float = 0.01
    labeled_per_class: int = 20
    feature_noise: float = 2.5
    feature_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.communities < 2:
            raise ConfigError(f"communities must be >= 2, got {self.communities}")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ConfigError("p_in and p_out must satisfy 0 <= p_out < p_in <= 1, "
                              f"got p_in={self.p_in}, p_out={self.p_out}")
        if self.labeled_per_class < 1:
            raise ConfigError(f"labeled_per_class must be >= 1, got {self.labeled_per_class}")
        if self.feature_noise < 0:
            raise ConfigError(f"feature_noise must be >= 0, got {self.feature_noise}")
        if self.nodes < self.communities * (self.labeled_per_class + 2):
            raise ConfigError("not enough nodes for the requested labeled/val/test split")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def gen_sbm(spec: SbmGraphSpec) -> GraphInstance:
    """Stochastic block model graph with noisy community features."""
    rng = RngStream(spec.seed, ("sbm",))
    n, k = spec.nodes, spec.communities
    labels = np.arange(n, dtype=np.int64) % k
    upper = rng.child("edges").uniform(size=(n, n))
    same = labels[:, None] == labels[None, :]
    prob = np.where(same, spec.p_in, spec.p_out)
    adj = np.triu(upper < prob, k=1).astype(np.float64)
    adj = adj + adj.T
    # symmetric degree normalization of A + I
    a_hat = adj + np.eye(n)
    deg = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    a_hat = a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]

    means = rng.child("means").normal(size=(k, spec.feature_dim))
    feats = means[labels] + rng.child("feats").normal(
        size=(n, spec.feature_dim), scale=spec.feature_noise
    )

    train_idx = []
    rest = []
    for c in range(k):
        members = np.flatnonzero(labels == c)
        order = rng.child("split", c).permutation(len(members))
        members = members[order]
        train_idx.extend(members[: spec.labeled_per_class])
        rest.extend(members[spec.labeled_per_class :])
    rest = np.array(sorted(rest), dtype=np.int64)
    half = len(rest) // 2
    return GraphInstance(
        node_features=feats,
        normalized_adjacency=a_hat,
        labels=labels,
        train_idx=np.array(sorted(train_idx), dtype=np.int64),
        val_idx=rest[:half],
        test_idx=rest[half:],
    )


# -- named-array files -------------------------------------------------------------


def save_arrays(path, kind: str, arrays: dict, meta: dict | None = None):
    """Write named arrays as a run of ``.npy`` records (numpy's NEP 1 format).

    The first record is the JSON header ``{kind, meta, names}`` as a byte
    string; the arrays follow in ``names`` order, each keeping its dtype and
    shape.  ``np.save`` records are a pure function of their arrays, so equal
    inputs write equal bytes.
    """
    header = json.dumps({"kind": kind, "meta": meta or {}, "names": list(arrays)},
                        sort_keys=True)
    with open(path, "wb") as fh:
        for arr in (np.array(header.encode("utf-8")), *arrays.values()):
            np.save(fh, arr, allow_pickle=False)


def _read_record(fh, path, end: int) -> np.ndarray:
    """The ``.npy`` record at ``fh``'s position, read only if the file holds its bytes."""
    at, fmt = fh.tell(), np.lib.format
    try:
        version = fmt.read_magic(fh)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"unsupported .npy version {version}")
        read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, fortran_order, dtype = read_header(fh)
        count = math.prod(shape)
        if min(shape, default=0) < 0 or count * dtype.itemsize > end - fh.tell():
            raise ValueError(f"shape {shape} of {dtype} needs {count * dtype.itemsize} bytes, "
                             f"{end - fh.tell()} are left")
        arr = np.fromfile(fh, dtype=dtype, count=count)  # refuses object arrays
        return arr.reshape(shape, order="F" if fortran_order else "C")
    except ValueError as exc:
        raise ContractError(f"{path}: bad .npy record at byte {at}: {exc}") from None


def load_arrays(path, kind: str):
    """Read a :func:`save_arrays` file back as ``(meta, {name: array})``.

    A file of another kind, a header that is not a JSON dict with a ``meta``
    dict and a ``names`` list of distinct strings, non-``.npy`` bytes, a record
    that claims more bytes than the file has left (a cut file included), an
    object array, or bytes after the last array raise ``ContractError``
    naming the file.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        record = _read_record(fh, path, end)
        try:
            header = json.loads(record.item()) if record.dtype.kind == "S" else None
        except ValueError:  # not UTF-8 or not JSON
            header = None
        names = header.get("names") if isinstance(header, dict) else None
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names) and isinstance(header.get("meta"), dict)):
            raise ContractError(f"{path}: not a named-array file: bad JSON header")
        if header.get("kind") != kind:
            raise ContractError(f"{path}: holds {header.get('kind')!r} arrays, not {kind!r}")
        arrays = {name: _read_record(fh, path, end) for name in names}
        if fh.tell() != end:
            raise ContractError(f"{path}: {end - fh.tell()} bytes after the last array")
    return header.get("meta"), arrays


def save_image_dataset(ds: ImageDataset, spec: SyntheticImageSpec, path):
    """Write ``ds`` with the spec it was generated from, which the writer supplies."""
    arrays = {name: getattr(ds, name) for name in ("train_x", "train_y", "val_x", "val_y")}
    meta = {**asdict(spec), "pixel_mean": ds.pixel_mean, "pixel_std": ds.pixel_std}
    save_arrays(path, "image", arrays, meta)


def save_graph_dataset(g: GraphInstance, spec: SbmGraphSpec, path):
    names = ("node_features", "normalized_adjacency", "labels", "train_idx", "val_idx", "test_idx")
    save_arrays(path, "graph", {name: getattr(g, name) for name in names}, asdict(spec))
