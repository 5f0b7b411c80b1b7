"""A run is a pure function of (config, seed), on one process or several."""

import dataclasses

import pytest

from dropgraph import train
from dropgraph.config import parse_config
from dropgraph.train import multi_seed, run_experiment

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

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(train.multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(train, "run_experiment", lambda cfg, seed: (cfg.task, seed))
    assert multi_seed([_GRAPH], (1, 2, 3), threads=8) == [
        [("node_graph", 1), ("node_graph", 2), ("node_graph", 3)]]
    assert multi_seed([_IMAGE, _GRAPH], (1, 2, 3), threads=4)[0][2] == ("image", 3)
    assert started == [3, 4]
