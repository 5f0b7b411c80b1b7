"""SGD training loop, seeded multi-run protocol, and run records.

Every run is a pure function of (config, seed): the seed roots one RNG tree
whose named paths drive init, shuffling, augmentation, and every regularizer
site, so records reproduce bit-exactly.  A non-finite loss marks the record
``diverged`` instead of raising.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

from .backbones import GraphInstance, TinyResNet, TwoLayerGcn
from .config import MIN_SEEDS, ExperimentConfig, config_to_text
from .data import gen_images, gen_sbm
from .errors import ConfigError
from .nn import cross_entropy
from .regularizers import SchedulerState, schedule_rho
from .rng import RngStream
from .tensor import Tensor, no_grad, take_rows

__all__ = [
    "SGD",
    "EpochStats",
    "RunRecord",
    "run_experiment",
    "multi_seed",
    "summarize_records",
    "write_run_records",
]


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
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data = p.data - self.lr * v

    def zero_grad(self):
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


def _build_image_model(cfg: ExperimentConfig, rng: RngStream) -> TinyResNet:
    return TinyResNet(cfg.resnet_config(), rng, reg_kind=cfg.reg_kind,
                      reg_cfg=cfg.regularizer_config(), pgr_strategy=cfg.reg_pgr_strategy,
                      pgr_active_in_eval=cfg.reg_pgr_active_in_eval)


def _evaluate_image(model, xs, ys, rng, batch: int = 256):
    model.eval()
    total_loss = 0.0
    correct = 0
    with no_grad():
        for lo in range(0, xs.shape[0], batch):
            xb = xs[lo : lo + batch]
            yb = ys[lo : lo + batch]
            logits = model(Tensor(xb), rng.child("batch", lo), None)
            total_loss += cross_entropy(logits, yb).item() * len(yb)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
    model.train()
    return total_loss / xs.shape[0], correct / xs.shape[0]


def _train_image(cfg: ExperimentConfig, seed: int) -> RunRecord:
    ds = gen_images(cfg.image_spec())
    rng = RngStream(seed)
    model = _build_image_model(cfg, rng.child("init"))
    opt = SGD(model.parameters(), cfg.train_lr, cfg.train_momentum, cfg.train_weight_decay)
    record = RunRecord(config_hash=cfg.config_hash(), seed=seed)
    n_train = ds.train_x.shape[0]
    steps_per_epoch = math.ceil(n_train / cfg.train_batch_size)
    sched = SchedulerState(0, cfg.train_epochs * steps_per_epoch,
                           cfg.reg_scheduler, cfg.reg_rho)
    start = time.perf_counter()
    global_step = 0
    for epoch in range(cfg.train_epochs):
        opt.lr = _lr_at(cfg, epoch)
        sched.step = global_step
        rho_start = schedule_rho(sched)
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
            sched.step = global_step
            logits = model(Tensor(xb), rng.child("step", global_step), sched)
            loss = cross_entropy(logits, yb)
            if not np.isfinite(loss.item()):
                record.status = "diverged"
                record.wall_time_s = time.perf_counter() - start
                return record
            model.zero_grad()
            loss.backward()
            opt.step()
            epoch_loss += loss.item() * len(yb)
            epoch_correct += int((logits.data.argmax(axis=1) == yb).sum())
            global_step += 1
        sched.step = global_step
        rho_end = schedule_rho(sched)
        val_loss, val_acc = _evaluate_image(model, ds.val_x, ds.val_y,
                                            rng.child("eval", epoch))
        record.epochs.append(EpochStats(
            epoch=epoch, train_loss=epoch_loss / n_train,
            train_acc=epoch_correct / n_train, val_loss=val_loss, val_acc=val_acc,
            rho_start=rho_start, rho_end=rho_end, lr=opt.lr,
        ))
    _, final_train_acc = _evaluate_image(model, ds.train_x, ds.train_y,
                                         rng.child("final_train_eval"))
    record.final_train_acc = final_train_acc
    record.final_val_acc = record.epochs[-1].val_acc
    record.generalization_gap = record.final_train_acc - record.final_val_acc
    record.wall_time_s = time.perf_counter() - start
    return record


def _evaluate_graph(model, g: GraphInstance, idx, rng):
    model.eval()
    with no_grad():
        logits = model(g, rng, None)
    model.train()
    loss = cross_entropy(Tensor(logits.data[idx]), g.labels[idx]).item()
    acc = float((logits.data[idx].argmax(axis=1) == g.labels[idx]).mean())
    return loss, acc


def _train_graph(cfg: ExperimentConfig, seed: int) -> RunRecord:
    g = gen_sbm(cfg.graph_spec())
    rng = RngStream(seed)
    model = TwoLayerGcn(cfg.gcn_config(), rng.child("init"), reg_kind=cfg.reg_kind,
                        reg_cfg=cfg.regularizer_config())
    opt = SGD(model.parameters(), cfg.train_lr, cfg.train_momentum, cfg.train_weight_decay)
    record = RunRecord(config_hash=cfg.config_hash(), seed=seed)
    sched = SchedulerState(0, cfg.train_epochs, cfg.reg_scheduler, cfg.reg_rho)
    start = time.perf_counter()
    for epoch in range(cfg.train_epochs):
        opt.lr = _lr_at(cfg, epoch)
        sched.step = epoch
        rho_start = schedule_rho(sched)
        logits = model(g, rng.child("step", epoch), sched)
        loss = cross_entropy(take_rows(logits, g.train_idx), g.labels[g.train_idx])
        if not np.isfinite(loss.item()):
            record.status = "diverged"
            record.wall_time_s = time.perf_counter() - start
            return record
        model.zero_grad()
        loss.backward()
        opt.step()
        sched.step = epoch + 1
        rho_end = schedule_rho(sched)
        train_acc = float((logits.data[g.train_idx].argmax(axis=1)
                           == g.labels[g.train_idx]).mean())
        val_loss, val_acc = _evaluate_graph(model, g, g.val_idx, rng.child("eval", epoch))
        record.epochs.append(EpochStats(
            epoch=epoch, train_loss=loss.item(), train_acc=train_acc,
            val_loss=val_loss, val_acc=val_acc,
            rho_start=rho_start, rho_end=rho_end, lr=opt.lr,
        ))
    _, final_train_acc = _evaluate_graph(model, g, g.train_idx, rng.child("final_train_eval"))
    record.final_train_acc = final_train_acc
    record.final_val_acc = record.epochs[-1].val_acc
    record.generalization_gap = record.final_train_acc - record.final_val_acc
    record.wall_time_s = time.perf_counter() - start
    return record


def run_experiment(cfg: ExperimentConfig, seed: int) -> RunRecord:
    """Train one model for one seed and return its record."""
    if cfg.task == "image":
        return _train_image(cfg, seed)
    if cfg.task == "node_graph":
        return _train_graph(cfg, seed)
    raise ConfigError(f"unknown task {cfg.task!r}")


def _pool_worker(args):
    cfg, seed = args
    return run_experiment(cfg, seed)


def multi_seed(configs, seeds, threads: int = 1):
    """Run the (config x seed) grid; returns records grouped per config.

    Runs are independent; with threads > 1 they execute on a process pool.
    Results are assembled in deterministic (config, seed) order either way.
    """
    if len(seeds) < MIN_SEEDS:
        raise ConfigError(f"multi_seed needs at least {MIN_SEEDS} seeds, got {len(seeds)}")
    tasks = [(cfg, seed) for cfg in configs for seed in seeds]
    if threads > 1:
        with multiprocessing.Pool(processes=threads) as pool:
            flat = pool.map(_pool_worker, tasks)
    else:
        flat = [_pool_worker(t) for t in tasks]
    grouped = []
    per = len(seeds)
    for i in range(len(configs)):
        grouped.append(flat[i * per : (i + 1) * per])
    return grouped


def summarize_records(records):
    """Median/min/max of the headline metrics over one config's records."""
    out = {"runs": len(records),
           "diverged": sum(1 for r in records if r.status != "ok")}
    oks = [r for r in records if r.status == "ok"]
    for metric in ("final_val_acc", "final_train_acc", "generalization_gap"):
        values = [getattr(r, metric) for r in oks]
        if values:
            out[metric] = {
                "median": float(np.median(values)),
                "min": float(min(values)),
                "max": float(max(values)),
            }
        else:
            out[metric] = {"median": float("nan"), "min": float("nan"), "max": float("nan")}
    return out


# -- run record serialization ------------------------------------------------------------


def write_run_records(path, cfg: ExperimentConfig, records):
    """Line-delimited JSON: one config line, then one line per run."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "config", "hash": cfg.config_hash(),
                             "text": config_to_text(cfg)}, sort_keys=True) + "\n")
        for r in records:
            fh.write(json.dumps({
                "type": "run", "hash": r.config_hash, "seed": r.seed,
                "status": r.status,
                "final_train_acc": r.final_train_acc,
                "final_val_acc": r.final_val_acc,
                "generalization_gap": r.generalization_gap,
                "epochs": [vars(e) for e in r.epochs],
                "wall_time_s": r.wall_time_s,
            }, sort_keys=True) + "\n")

