"""A run is a pure function of (config, seed), on one process or several."""

import dataclasses
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from dropgraph import cli, train
from dropgraph.backbones import TinyResNet
from dropgraph.config import config_to_text, parse_config
from dropgraph.data import GraphInstance, ImageDataset
from dropgraph.errors import ConfigError
from dropgraph.nn import cross_entropy
from dropgraph.rng import RngStream
from dropgraph.tensor import Tensor
from dropgraph.train import SGD, multi_seed, run_experiment, write_run_records

_IMAGE = parse_config("task = image\ndata.image_size = 16\ndata.train_count = 32\n"
                      "data.val_count = 16\ntrain.epochs = 2\ntrain.batch_size = 16\n"
                      "reg.kind = dropgraph\nreg.rho = 0.3\n")
_GRAPH = parse_config("task = node_graph\ntrain.epochs = 2\nreg.kind = dropgraph\n")


def _without_wall_time(record):
    fields = dataclasses.asdict(record)
    del fields["wall_time_s"]
    return fields


@pytest.mark.parametrize("cfg", [_IMAGE, _GRAPH], ids=["image", "node_graph"])
def test_run_experiment_is_deterministic(cfg):
    first, second = run_experiment(cfg, 7), run_experiment(cfg, 7)
    assert first.status == "ok" and len(first.epochs) == 2
    assert _without_wall_time(first) == _without_wall_time(second)


def test_multi_seed_process_pool_matches_serial():
    seeds = (1, 2, 3)
    serial = multi_seed([_IMAGE, _GRAPH], seeds, threads=1)
    pooled = multi_seed([_IMAGE, _GRAPH], seeds, threads=2)
    assert [[_without_wall_time(r) for r in group] for group in pooled] == \
        [[_without_wall_time(r) for r in group] for group in serial]
    assert [[r.seed for r in group] for group in pooled] == [list(seeds)] * 2


def test_multi_seed_starts_at_most_one_worker_per_run(monkeypatch):
    started = []

    class InlinePool:
        """Records the worker count it was asked for and runs the tasks here."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*t) for t in tasks]

    monkeypatch.setattr(train.multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(train, "run_experiment", lambda cfg, seed, data: (cfg.task, seed))
    assert multi_seed([_GRAPH], (1, 2, 3), threads=8) == [
        [("node_graph", 1), ("node_graph", 2), ("node_graph", 3)]]
    assert multi_seed([_IMAGE, _GRAPH], (1, 2, 3), threads=4)[0][2] == ("image", 3)
    assert started == [3, 4]


def _count_generations(monkeypatch):
    """Specs passed to ``train.gen_images`` / ``train.gen_sbm``; a call in another process fails."""
    calls, pid = [], os.getpid()
    for name in ("gen_images", "gen_sbm"):
        def counted(spec, _generate=getattr(train, name)):
            assert os.getpid() == pid, "a pool worker generated its own dataset"
            calls.append(spec)
            return _generate(spec)
        monkeypatch.setattr(train, name, counted)
    return calls


@pytest.mark.parametrize("configs, datasets", [
    ([_GRAPH], 1),
    ([_GRAPH, dataclasses.replace(_GRAPH, reg_kind="none")], 1),
    ([_GRAPH, dataclasses.replace(_GRAPH, data_seed=1)], 2),
    ([_IMAGE, _GRAPH, dataclasses.replace(_IMAGE, reg_kind="dropout")], 2),
], ids=["seeds", "reg_kind", "data_seed", "both_tasks"])
def test_multi_seed_generates_each_distinct_dataset_once(monkeypatch, configs, datasets):
    calls = _count_generations(monkeypatch)
    seen = []
    monkeypatch.setattr(train, "run_experiment", lambda cfg, seed, data: seen.append(data) or seed)
    assert multi_seed(configs, (1, 2, 3)) == [[1, 2, 3]] * len(configs)
    assert len(calls) == len({id(data) for data in seen}) == datasets
    for i, cfg in enumerate(configs):
        group = seen[3 * i : 3 * i + 3]
        assert all(data is group[0] for data in group)
        assert isinstance(group[0], ImageDataset if cfg.task == "image" else GraphInstance)


def test_runs_on_a_shared_dataset_match_runs_that_generate_their_own(monkeypatch):
    calls = _count_generations(monkeypatch)
    pooled = multi_seed([_GRAPH], (1, 2, 3), threads=2)[0]
    assert len(calls) == 1
    alone = [run_experiment(_GRAPH, seed) for seed in (1, 2, 3)]
    assert len(calls) == 4
    assert [_without_wall_time(r) for r in pooled] == [_without_wall_time(r) for r in alone]


@pytest.mark.parametrize("text", [
    "task = image\ndata.image_size = 8\ndata.train_count = 8\ndata.val_count = 4\n"
    "train.epochs = 1\ntrain.batch_size = 8\n",
    "task = node_graph\ntrain.epochs = 1\n",
], ids=["image", "node_graph"])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "kind", "--values",
                                               "none,dropout"]], ids=["run", "sweep"])
def test_a_command_runs_the_train_side_generator_once(monkeypatch, tmp_path, text, command):
    calls = _count_generations(monkeypatch)
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    rc = cli.main([command[0], str(path), *command[1:], "--out-dir", str(tmp_path / "out")])
    assert (rc, len(calls)) == (0, 1)


_RUN_KEYS = {"type", "hash", "seed", "status", "epochs", "wall_time_s",
             "final_train_acc", "final_val_acc", "generalization_gap"}
_EPOCH_KEYS = {"epoch", "train_loss", "train_acc", "val_loss", "val_acc",
               "rho_start", "rho_end", "lr"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run overflows on purpose
def test_run_lines_keep_every_field_of_ok_and_diverged_runs(tmp_path):
    ok = run_experiment(_GRAPH, 4)
    # The first step at lr 1e200 finishes one epoch; the second step's loss is not finite.
    diverged = run_experiment(dataclasses.replace(_GRAPH, train_lr=1e200), 5)
    assert (ok.status, len(ok.epochs)) == ("ok", 2)
    assert (diverged.status, len(diverged.epochs)) == ("diverged", 1)
    path = tmp_path / "runs.jsonl"
    write_run_records(path, _GRAPH, [ok, diverged])
    config, *runs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert config == {"type": "config", "hash": _GRAPH.config_hash(),
                      "text": config_to_text(_GRAPH)}
    for line, record in zip(runs, (ok, diverged), strict=True):
        assert set(line) == _RUN_KEYS
        assert all(set(epoch) == _EPOCH_KEYS for epoch in line["epochs"])
        assert (line["type"], line["hash"]) == ("run", record.config_hash)
        # assert_equal counts NaN equal to NaN: the diverged epoch's val_loss is NaN.
        np.testing.assert_equal(line["epochs"], [dataclasses.asdict(e) for e in record.epochs])
        for key in ("seed", "status", "wall_time_s", "final_train_acc", "final_val_acc",
                    "generalization_gap"):
            assert line[key] == getattr(record, key), key
    assert runs[1]["wall_time_s"] > 0.0
    assert [runs[1][key] for key in ("final_train_acc", "final_val_acc",
                                     "generalization_gap")] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("seeds, message", [
    ((4, 4, 5), "seeds: a seed may appear once, got 4,4,5"),
    ((4, 5), "seeds: at least 3 seeds are required, got 2"),
    ((1, 2, -3), "seeds: a seed must be >= 0, got 1,2,-3"),
], ids=["repeated", "two", "negative"])
def test_multi_seed_rejects_the_seeds_a_config_rejects(seeds, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        multi_seed([_GRAPH], seeds)


def test_training_peak_is_bounded_by_one_tape():
    """Consecutive steps hold one tape at a time, not the last step's too.

    Like ``_train_image``, the loop keeps ``logits`` and ``loss`` bound
    while the next forward runs, so the peak stays near one forward tape
    only because ``backward()`` releases the tape it walked.
    """
    cfg = parse_config("task = image\ndata.image_size = 16\nreg.kind = dropgraph\n")
    model = TinyResNet(cfg.resnet_config(), RngStream(5).child("init"), cfg.regularizer_config())
    opt = SGD(model.parameters(), cfg.train_lr, cfg.train_momentum, cfg.train_weight_decay)
    data = np.random.default_rng(5)
    x = data.normal(size=(8, 1, 16, 16))
    y = data.integers(0, cfg.data_classes, size=8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for step in range(3):
            logits = model(Tensor(x), RngStream(5).child("step", step), 0.3)
            loss = cross_entropy(logits, y)
            if step == 0:
                tape = tracemalloc.get_traced_memory()[0] - base
            model.zero_grad()
            loss.backward()
            opt.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * tape, f"peak {peak / tape:.2f}x the first forward tape"
