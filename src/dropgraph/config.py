"""Experiment configuration: a flat, human-writable key = value format.

Keys use dotted section names (``reg.alpha = 0.2``); ``#`` starts a comment.
Each key is derived from an :class:`ExperimentConfig` field name: a
``data_``/``model_``/``reg_``/``train_`` prefix becomes ``data.`` etc., and
other names are keys as they stand.  The ``data.*`` and ``reg.*`` fields take
their types and defaults from the specs they build (``SyntheticImageSpec``,
``SbmGraphSpec``, ``RegularizerConfig``); ``model.*`` and ``train.*`` are
declared here.  Parsing is strict: unknown keys and malformed values raise
:class:`ConfigError` naming the offending key.  Range checks live in the
component specs (those three, ``TinyResNetConfig`` and ``TwoLayerGcnConfig``),
which ``ExperimentConfig`` builds in one place each; their errors are prefixed
by section, e.g. ``reg: alpha must lie in [0, 1], got 1.5``.
``config_to_text`` emits a canonical form, so parse -> serialize -> parse is
the identity.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import fields, make_dataclass, replace

from .backbones import TinyResNetConfig, TwoLayerGcnConfig
from .data import SbmGraphSpec, SyntheticImageSpec
from .errors import ConfigError
from .regularizers import MASK_KINDS, RegularizerConfig

__all__ = ["ExperimentConfig", "parse_config", "config_to_text"]

_DATA_SPECS = {"image": SyntheticImageSpec, "node_graph": SbmGraphSpec}  # task -> data spec
TASKS = tuple(_DATA_SPECS)
MIN_SEEDS = 3  # the median/min/max summary of a config needs at least three runs


@contextmanager
def _section(name: str):
    """Prefix a component spec's ConfigError with the config section it came from."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _settings(section: str, *specs):
    """``(f"{section}_{name}", type, default)`` for each init field of ``specs``;
    where two specs share a name (``seed``) the first one's field is used."""
    first = {}
    for spec in specs:
        for f in fields(spec):
            first.setdefault(f.name, f)
    return [(f"{section}_{f.name}", f.type, f.default) for f in first.values() if f.init]


class _ExperimentConfigMethods:
    """The methods of ``ExperimentConfig``, a dataclass built from field lists below."""

    def regularizer_config(self) -> RegularizerConfig:
        return self._spec("reg", RegularizerConfig)

    def data_spec(self):
        """The data spec of ``task``; an unknown task raises ``ConfigError``."""
        if self.task not in _DATA_SPECS:
            raise ConfigError(f"unknown task {self.task!r}")
        return self._spec("data", _DATA_SPECS[self.task])

    def _spec(self, section: str, cls):
        """``cls`` built with each field ``x`` from config field ``<section>_x``."""
        with _section(section):
            return cls(**{f.name: getattr(self, f"{section}_{f.name}") for f in fields(cls)})

    # The model specs stay hand-written: they take values from other sections
    # (classes, image_size and in_features from data.*) and regularize_groups
    # is parsed from 'last', 'all' or comma ints.
    def resnet_config(self) -> TinyResNetConfig:
        with _section("model"):
            return TinyResNetConfig(
                stem_channels=self.model_stem_channels,
                groups=self.model_groups,
                classes=self.data_classes,
                regularize_groups=self.regularized_group_indices(),
                regularize_skip=self.model_regularize_skip,
                image_size=self.data_image_size,
            )

    def gcn_config(self) -> TwoLayerGcnConfig:
        with _section("model"):
            return TwoLayerGcnConfig(in_features=self.data_feature_dim,
                                     hidden=self.model_hidden, classes=self.data_communities)

    def regularized_group_indices(self) -> tuple:
        n = len(self.model_groups)
        if self.model_regularize_groups == "last":
            return (n - 1,)
        if self.model_regularize_groups == "all":
            return tuple(range(n))
        try:
            return tuple(int(v) for v in self.model_regularize_groups.split(","))
        except ValueError:
            raise ConfigError("regularize_groups: expected 'last', 'all' or comma ints, "
                              f"got {self.model_regularize_groups!r}") from None

    def config_hash(self) -> str:
        """Hash of the experiment semantics (execution details excluded)."""
        skip = {"out_dir", "threads", "seeds"}
        text = "\n".join(f"{name} = {_format_value(name, getattr(self, name))}"
                         for name in _KEY_BY_FIELD if name not in skip)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


ExperimentConfig = make_dataclass("ExperimentConfig", [
    ("task", str, "image"),
    ("seeds", tuple, (1, 2, 3)),
    ("out_dir", str, "runs/out"),
    ("threads", int, 1),
    *_settings("data", SyntheticImageSpec, SbmGraphSpec),
    ("model_stem_channels", int, 16),
    ("model_groups", tuple, ((2, 16), (2, 32))),
    ("model_regularize_groups", str, "last"),
    ("model_regularize_skip", bool, True),
    ("model_hidden", int, 16),
    *_settings("reg", RegularizerConfig),
    ("train_epochs", int, 60),
    ("train_batch_size", int, 32),
    ("train_lr", float, 0.1),
    ("train_momentum", float, 0.9),
    ("train_weight_decay", float, 0.0005),
    ("train_lr_decay_points", tuple, (0.6, 0.85)),
    ("train_lr_decay_factor", float, 0.1),
    ("train_augment_flip", bool, True),
], bases=(_ExperimentConfigMethods,))
ExperimentConfig.__module__ = __name__  # so that a process pool can pickle it


# field name -> config key: a section prefix becomes ``section.``
_SECTIONS = ("data", "model", "reg", "train")


def _key_of(name: str) -> str:
    section, _, rest = name.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else name


_KEY_BY_FIELD = {f.name: _key_of(f.name) for f in fields(ExperimentConfig)}
_FIELD_BY_KEY = {k: f for f, k in _KEY_BY_FIELD.items()}


def _format_value(name, value):
    if name == "seeds":
        return ",".join(str(s) for s in value)
    if name == "model_groups":
        return ",".join(f"{b}x{c}" for b, c in value)
    if name == "train_lr_decay_points":
        return ",".join(repr(p) for p in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _entries(raw: str) -> list:
    """A comma list's entries: no entry may be blank, but the whole list may be empty."""
    entries = raw.split(",") if raw.strip() else []
    if any(not v.strip() for v in entries):
        raise ValueError(f"blank entry in the list {raw!r}")
    return entries


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError(f"must be a finite number, got {raw.strip()!r}")
    return value


def _group(raw: str) -> tuple:
    """One ``model.groups`` entry, ``<blocks>x<channels>``, as two ints."""
    try:
        blocks, channels = raw.lower().split("x")
        return int(blocks), int(channels)
    except ValueError:
        raise ValueError(f"entries must read <blocks>x<channels>, got {raw.strip()!r}") from None


def _parse_value(key, name, raw, kind):
    try:
        if name == "seeds":
            return tuple(int(v) for v in _entries(raw))
        if name == "model_groups":
            if not (groups := tuple(map(_group, _entries(raw)))):
                raise ValueError("needs at least one <blocks>x<channels> entry")
            return groups
        if name == "train_lr_decay_points":
            return tuple(_finite(v) for v in _entries(raw))
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind is int:
            return int(raw)
        if kind is float:
            return _finite(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def config_to_text(cfg: ExperimentConfig) -> str:
    return "\n".join(f"{key} = {_format_value(name, getattr(cfg, name))}"
                     for name, key in _KEY_BY_FIELD.items()) + "\n"


def check_seeds(seeds) -> None:
    """The seed rule of every multi-seed run: at least MIN_SEEDS distinct seeds, none negative."""
    if len(seeds) < MIN_SEEDS:
        raise ConfigError(f"seeds: at least {MIN_SEEDS} seeds are required, got {len(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds: a seed may appear once, got {_format_value('seeds', seeds)}")
    if min(seeds) < 0:
        raise ConfigError(f"seeds: a seed must be >= 0, got {_format_value('seeds', seeds)}")


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the rules no component spec owns, then build the specs of the task."""
    def fail(key, msg):
        raise ConfigError(f"{key}: {msg}")

    if cfg.task not in TASKS:
        fail("task", f"must be one of {TASKS}, got {cfg.task!r}")
    check_seeds(cfg.seeds)
    if cfg.threads < 1:
        fail("threads", f"must be >= 1, got {cfg.threads}")
    reg = cfg.regularizer_config()
    if cfg.reg_kind == "pgr" and cfg.task != "image":
        fail("reg.kind", "pgr is only available for the image task")
    # A learned adjacency is sized from the insertion point's map; pgr has no
    # parameter for it and the node-graph insertion point has no map size.
    if cfg.reg_adjacency == "learned" and (
            cfg.reg_kind == "pgr" or (cfg.reg_kind == "dropgraph" and cfg.task == "node_graph")):
        fail("reg.adjacency", f"learned is not available for reg.kind = {cfg.reg_kind} "
                              f"on the {cfg.task} task")
    if cfg.train_epochs < 1:
        fail("train.epochs", f"must be >= 1, got {cfg.train_epochs}")
    if cfg.train_batch_size < 1:
        fail("train.batch_size", f"must be >= 1, got {cfg.train_batch_size}")
    for key in ("train.lr", "train.weight_decay", "train.lr_decay_factor"):
        value = getattr(cfg, _FIELD_BY_KEY[key])
        if value < 0:
            fail(key, f"must be >= 0, got {value}")
    if not (0.0 <= cfg.train_momentum < 1.0):
        fail("train.momentum", f"must lie in [0, 1), got {cfg.train_momentum}")
    if any(not (0.0 < p <= 1.0) for p in cfg.train_lr_decay_points):
        fail("train.lr_decay_points", f"points must lie in (0, 1], got {cfg.train_lr_decay_points}")

    cfg.data_spec()
    if cfg.task == "image":
        resnet = cfg.resnet_config()
        with _section("reg"):
            resnet.check_block_size(reg)
    else:
        cfg.gcn_config()
        if cfg.reg_kind in MASK_KINDS and cfg.reg_block_size != 1:
            fail("reg.block_size", "node-graph regularizers use block_size = 1")
    return cfg


# Task-dependent defaults applied before explicit keys.
_TASK_DEFAULTS = {
    "node_graph": {
        "reg.block_size": "1",
        "train.epochs": "200",
        "train.lr": "0.5",
        "train.augment_flip": "false",
    },
}


def parse_config(text: str) -> ExperimentConfig:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        pairs.append((key.strip(), raw.strip(), lineno))

    explicit = {key for key, _, _ in pairs}
    # The last `task` line wins, as for every other key, defaults included.
    task = next((raw for key, raw, _ in reversed(pairs) if key == "task"), "image")
    defaults = _TASK_DEFAULTS.get(task, {})
    merged = [(k, v, 0) for k, v in defaults.items() if k not in explicit] + pairs

    cfg = ExperimentConfig()
    kinds = {f.name: type(getattr(cfg, f.name)) for f in fields(ExperimentConfig)}
    values = {}
    for key, raw, lineno in merged:
        name = _FIELD_BY_KEY.get(key)
        if name is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[name] = _parse_value(key, name, raw, kinds[name])
    return _validate(replace(cfg, **values))
