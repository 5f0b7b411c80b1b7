"""Each workload end to end on a tiny config, untraced and traced."""

from dataclasses import replace

import pytest

import run
from workloads import WORKLOADS

TINY = {
    "image-train": {"data.train_count": 32, "data.val_count": 8, "train.epochs": 1},
    "image-eval": {"data.train_count": 32, "data.val_count": 8, "train.epochs": 1},
    "node-graph": {"train.epochs": 20},
}


def tiny(name):
    w = WORKLOADS[name]
    return replace(w, config={**w.config, **TINY[name]})


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_untraced(name, out_dir):
    report = run.run_benchmark(tiny(name), 1, 0, False)
    assert report["correct"], report["problems"]
    assert report["attempted"] == 3 and report["failed"] == 0
    assert set(report["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in report["metrics"].values())
    assert report["env"]["blas_threads_pinned"] == run.BLAS_THREADS
    assert (out_dir / f"{name}-seed1-trace0.json").is_file()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_traced(name, out_dir):
    report = run.run_benchmark(tiny(name), 1, 0, True)
    assert report["correct"], report["problems"]
    m = report["metrics"]
    assert set(m) == set(run.PER_LAYER)
    regularizer = [k for k in m if k.startswith("regularizers.")]
    conv = [k for k in m if k.startswith("conv.") or k.startswith("nn.")]
    if name == "image-eval":
        assert all(m[k] == 0 for k in regularizer)
    else:
        assert all(m[k] > 0 for k in regularizer)
    if name == "node-graph":
        assert all(m[k] == 0 for k in conv)
    else:
        assert all(m[k] > 0 for k in conv)
    assert m["tensor.tape_nodes_per_step"] > 0 and m["trace.overhead_ratio"] > 0
    assert (out_dir / f"{name}-seed1-spans.jsonl").stat().st_size > 0


def test_traced_and_untraced_records_are_identical(out_dir):
    plain = run.run_benchmark(tiny("node-graph"), 2, 0, False)
    traced = run.run_benchmark(tiny("node-graph"), 2, 0, True)
    assert plain["digest"] == traced["digest"] is not None


def test_missing_program_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    rc = run.main(["--workload", "node-graph", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert capsys.readouterr().out == ""
