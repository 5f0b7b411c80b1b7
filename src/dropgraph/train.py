"""SGD training loop, seeded multi-run protocol, and run records.

Every run is a pure function of (config, seed): the seed roots one RNG tree
whose named paths drive init, shuffling, augmentation, and every regularizer
site, so records reproduce bit-exactly.  A non-finite loss marks the record
``diverged`` instead of raising.

A run's dataset is a pure function of its config's data spec.
``multi_seed`` generates each distinct spec's dataset once and passes that
one (read-only) object to every run of it, on the pool too;
``run_experiment`` called without a dataset generates its own.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from .backbones import TinyResNet, TwoLayerGcn
from .config import ExperimentConfig, check_seeds, config_to_text
from .data import GraphInstance, ImageDataset, SyntheticImageSpec, gen_images, gen_sbm
from .nn import cross_entropy
from .regularizers import schedule_rho
from .rng import RngStream
from .tensor import Tensor, no_grad

__all__ = [
    "SGD",
    "EpochStats",
    "RunRecord",
    "run_experiment",
    "multi_seed",
    "summarize_records",
    "write_run_records",
]

EVAL_BATCH = 32  # images per no-grad forward in evaluation


class SGD:
    """Momentum SGD with decoupled-from-nothing classic weight decay."""

    def __init__(self, params, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data = p.data - self.lr * v

    def zero_grad(self):
        """Clear the gradients of the parameters this optimizer updates."""
        for p in self.params:
            p.grad = None


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    rho_start: float
    rho_end: float
    lr: float


@dataclass
class RunRecord:
    config_hash: str
    seed: int
    status: str = "ok"  # ok | diverged
    epochs: list = field(default_factory=list)
    wall_time_s: float = 0.0
    final_train_acc: float = 0.0
    final_val_acc: float = 0.0
    generalization_gap: float = 0.0


def _lr_at(cfg: ExperimentConfig, epoch: int) -> float:
    lr = cfg.train_lr
    for point in cfg.train_lr_decay_points:
        if epoch >= point * cfg.train_epochs:
            lr *= cfg.train_lr_decay_factor
    return lr


def _end_run(record: RunRecord, start: float, final_train_acc: float | None = None) -> RunRecord:
    """Stamp ``wall_time_s``.  A finished run passes ``final_train_acc`` and gets its finals;
    without one the run diverged and keeps its finished epochs and 0.0 finals."""
    if final_train_acc is None:
        record.status = "diverged"
    else:
        record.final_train_acc = final_train_acc
        record.final_val_acc = record.epochs[-1].val_acc
        record.generalization_gap = record.final_train_acc - record.final_val_acc
    record.wall_time_s = time.perf_counter() - start
    return record


def _evaluate_image(model, xs, ys, rng):
    model.eval()
    total_loss = 0.0
    correct = 0
    with no_grad():
        for lo in range(0, xs.shape[0], EVAL_BATCH):
            xb = xs[lo : lo + EVAL_BATCH]
            yb = ys[lo : lo + EVAL_BATCH]
            logits = model(Tensor(xb), rng.child("batch", lo), None)
            total_loss += cross_entropy(logits, yb).item() * len(yb)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
    model.train()
    return total_loss / xs.shape[0], correct / xs.shape[0]


def _train_image(cfg: ExperimentConfig, seed: int, ds: ImageDataset) -> RunRecord:
    rng = RngStream(seed)
    reg_cfg = cfg.regularizer_config()
    model = TinyResNet(cfg.resnet_config(), rng.child("init"), reg_cfg)
    opt = SGD(model.parameters(), cfg.train_lr, cfg.train_momentum, cfg.train_weight_decay)
    record = RunRecord(config_hash=cfg.config_hash(), seed=seed)
    n_train = ds.train_x.shape[0]
    steps_per_epoch = math.ceil(n_train / cfg.train_batch_size)
    total_steps = cfg.train_epochs * steps_per_epoch
    start = time.perf_counter()
    global_step = 0
    for epoch in range(cfg.train_epochs):
        opt.lr = _lr_at(cfg, epoch)
        rho_start = schedule_rho(reg_cfg, global_step, total_steps)
        order = rng.child("shuffle", epoch).permutation(n_train)
        epoch_loss = 0.0
        epoch_correct = 0
        for b in range(steps_per_epoch):
            idx = order[b * cfg.train_batch_size : (b + 1) * cfg.train_batch_size]
            xb = ds.train_x[idx]
            yb = ds.train_y[idx]
            if cfg.train_augment_flip:
                flips = rng.child("flip", epoch, b).uniform(size=len(idx)) < 0.5
                if flips.any():
                    xb = xb.copy()
                    xb[flips] = xb[flips][:, :, :, ::-1]
            rho = schedule_rho(reg_cfg, global_step, total_steps)
            logits = model(Tensor(xb), rng.child("step", global_step), rho)
            loss = cross_entropy(logits, yb)
            if not np.isfinite(loss.item()):
                return _end_run(record, start)
            opt.zero_grad()
            loss.backward()
            opt.step()
            epoch_loss += loss.item() * len(yb)
            epoch_correct += int((logits.data.argmax(axis=1) == yb).sum())
            global_step += 1
        rho_end = schedule_rho(reg_cfg, global_step, total_steps)
        val_loss, val_acc = _evaluate_image(model, ds.val_x, ds.val_y,
                                            rng.child("eval", epoch))
        record.epochs.append(EpochStats(
            epoch=epoch, train_loss=epoch_loss / n_train,
            train_acc=epoch_correct / n_train, val_loss=val_loss, val_acc=val_acc,
            rho_start=rho_start, rho_end=rho_end, lr=opt.lr,
        ))
    _, final_train_acc = _evaluate_image(model, ds.train_x, ds.train_y,
                                         rng.child("final_train_eval"))
    return _end_run(record, start, final_train_acc)


def _evaluate_graph(model, g: GraphInstance, idx, rows, rng):
    """Loss and accuracy on the nodes ``idx``, whose adjacency row block is ``rows``."""
    model.eval()
    with no_grad():
        logits = model(g, rng, None, rows)
    model.train()
    labels = g.labels[idx]
    loss = cross_entropy(logits, labels).item()
    acc = float((logits.data.argmax(axis=1) == labels).mean())
    return loss, acc


def _train_graph(cfg: ExperimentConfig, seed: int, g: GraphInstance) -> RunRecord:
    rng = RngStream(seed)
    reg_cfg = cfg.regularizer_config()
    model = TwoLayerGcn(cfg.gcn_config(), rng.child("init"), reg_cfg)
    opt = SGD(model.parameters(), cfg.train_lr, cfg.train_momentum, cfg.train_weight_decay)
    record = RunRecord(config_hash=cfg.config_hash(), seed=seed)
    train_labels = g.labels[g.train_idx]
    start = time.perf_counter()
    for epoch in range(cfg.train_epochs):
        opt.lr = _lr_at(cfg, epoch)
        rho_start = schedule_rho(reg_cfg, epoch, cfg.train_epochs)
        logits = model(g, rng.child("step", epoch), rho_start, g.train_adjacency)
        loss = cross_entropy(logits, train_labels)
        if not np.isfinite(loss.item()):
            return _end_run(record, start)
        opt.zero_grad()
        loss.backward()
        opt.step()
        rho_end = schedule_rho(reg_cfg, epoch + 1, cfg.train_epochs)
        train_acc = float((logits.data.argmax(axis=1) == train_labels).mean())
        val_loss, val_acc = _evaluate_graph(model, g, g.val_idx, g.val_adjacency,
                                            rng.child("eval", epoch))
        record.epochs.append(EpochStats(
            epoch=epoch, train_loss=loss.item(), train_acc=train_acc,
            val_loss=val_loss, val_acc=val_acc,
            rho_start=rho_start, rho_end=rho_end, lr=opt.lr,
        ))
    _, final_train_acc = _evaluate_graph(model, g, g.train_idx, g.train_adjacency,
                                         rng.child("final_train_eval"))
    return _end_run(record, start, final_train_acc)


def _generate(spec):
    return gen_images(spec) if isinstance(spec, SyntheticImageSpec) else gen_sbm(spec)


def run_experiment(cfg: ExperimentConfig, seed: int, data=None) -> RunRecord:
    """Train one model for one seed and return its record.

    ``data`` is the dataset of ``cfg``'s data spec, as ``multi_seed`` passes
    it; without one the run generates it.
    """
    spec = cfg.data_spec()  # refuses an unknown task, with or without a dataset
    if data is None:
        data = _generate(spec)
    train = _train_image if cfg.task == "image" else _train_graph
    return train(cfg, seed, data)


def multi_seed(configs, seeds, threads: int = 1):
    """Run the (config x seed) grid; returns records grouped per config.

    ``seeds`` obey the config file's rule (at least three, none repeated).
    Each distinct data spec's dataset is generated once, before any run, and
    every run of that spec gets the same object; configs that differ only
    outside the data section (a sweep over ``reg.*``) share one dataset.
    Runs are independent; with threads > 1 they execute on a process pool
    of ``min(threads, runs)`` workers, and each task carries its dataset.
    Results are assembled in deterministic (config, seed) order either way.
    """
    check_seeds(seeds)
    datasets = {}
    tasks = []
    for cfg in configs:
        spec = cfg.data_spec()
        key = (type(spec), astuple(spec))
        if key not in datasets:
            datasets[key] = _generate(spec)
        tasks.extend((cfg, seed, datasets[key]) for seed in seeds)
    if threads > 1:
        with multiprocessing.Pool(processes=min(threads, len(tasks))) as pool:
            flat = pool.starmap(run_experiment, tasks)
    else:
        flat = [run_experiment(*t) for t in tasks]
    grouped = []
    per = len(seeds)
    for i in range(len(configs)):
        grouped.append(flat[i * per : (i + 1) * per])
    return grouped


def summarize_records(records):
    """Median/min/max of the headline metrics over one config's ok records;
    NaN when no run is ok."""
    oks = [r for r in records if r.status == "ok"]
    out = {}
    for metric in ("final_val_acc", "final_train_acc", "generalization_gap"):
        values = [getattr(r, metric) for r in oks] or [float("nan")]
        out[metric] = {"median": float(np.median(values)),
                       "min": float(min(values)), "max": float(max(values))}
    return out


# -- run record serialization ------------------------------------------------------------


def write_run_records(path, cfg: ExperimentConfig, records):
    """Line-delimited JSON: one config line, then one line of ``RunRecord`` fields per run."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "config", "hash": cfg.config_hash(),
                             "text": config_to_text(cfg)}, sort_keys=True) + "\n")
        for r in records:
            # vars, not asdict: asdict deep-copies every value, which made this write 3-5x slower.
            row = dict(vars(r), type="run", epochs=[vars(e) for e in r.epochs])
            row["hash"] = row.pop("config_hash")
            fh.write(json.dumps(row, sort_keys=True) + "\n")

