"""The documented exit codes of ``dropgraph``: 0 success, 1 verification
failure, 2 configuration/parse error, 3 training divergence."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dropgraph import cli
from dropgraph.config import parse_config
from dropgraph.data import gen_images, gen_sbm, load_arrays
from dropgraph.verify import CheckResult

_GRAPH = "task = node_graph\nreg.kind = dropgraph\ntrain.epochs = 2\n"


def _write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_exits_0_and_writes_its_records(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["run", _write(tmp_path, _GRAPH), "--out-dir", str(out), "--seeds", "4,5,6"])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config.txt", "dataset.dgd", "runs.jsonl", "summary.csv"]
    assert "seeds = 4,5,6\n" in (out / "config.txt").read_text()


def test_sweep_exits_0_and_labels_parsed_values(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["sweep", _write(tmp_path, _GRAPH), "--out-dir", str(out),
                   "--axis", "alpha", "--values", "0.1, 0.30"])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "dataset.dgd", "runs_alpha_0.1.jsonl", "runs_alpha_0.3.jsonl", "sweep.csv"]


def test_sweep_over_kind_writes_one_records_file_per_kind(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["sweep", _write(tmp_path, _GRAPH), "--out-dir", str(out),
                   "--axis", "kind", "--values", "none,dropout,dropgraph"])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "dataset.dgd", "runs_kind_dropgraph.jsonl", "runs_kind_dropout.jsonl",
        "runs_kind_none.jsonl", "sweep.csv"]
    for kind in ("none", "dropout", "dropgraph"):
        config, *runs = map(json.loads, (out / f"runs_kind_{kind}.jsonl").read_text().splitlines())
        assert f"reg.kind = {kind}\n" in config["text"] and len(runs) == 3
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("kind,seed,") and len(rows) == 10


def test_sweep_labels_a_boolean_axis_as_the_config_spells_it(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["sweep", _write(tmp_path, _GRAPH + "reg.kind = dropout\n"), "--out-dir",
                   str(out), "--axis", "rescale_dropout", "--values", "yes,0"])
    assert rc == 0
    assert sorted(p.name for p in out.glob("runs_*")) == [
        "runs_rescale_dropout_false.jsonl", "runs_rescale_dropout_true.jsonl"]
    rows = (out / "sweep.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["true"] * 3 + ["false"] * 3


def test_verify_exits_1_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_checks", lambda names: [
        CheckResult("ok_check", True, "", 0.0), CheckResult("bad_check", False, "off", 0.0)])
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "1/2 checks passed" in out
    assert out.splitlines()[0] == f"backend numpy  dtype float64  numpy {np.__version__}"


@pytest.mark.parametrize("text, extra, message", [
    (None, [], "file not found"),
    ("reg.nope = 1\n", [], "unknown key 'reg.nope'"),
    (_GRAPH, ["--seeds", "a"], "seeds: "),
    (_GRAPH, ["--seeds", "1,,2"], "seeds: "),
    (_GRAPH, ["--seeds", "1,2"], "seeds: "),
    (_GRAPH, ["--seeds", "4,4,5"], "seeds: a seed may appear once, got 4,4,5"),
    (_GRAPH, ["--threads", "0"], "threads: must be >= 1, got 0"),
    (_GRAPH, ["--axis", "alpha", "--values", ","], "--values"),
    (_GRAPH, ["--axis", "alpha", "--values", "0.1,1.5"], "reg: alpha"),
    (_GRAPH, ["--axis", "alpha", "--values", "0.1,0.2,0.10"],
     "--values: ['0.1', '0.2', '0.10'] parse to repeated values [0.1, 0.2, 0.1]"),
    (_GRAPH, ["--axis", "scheduler", "--values", "f9"], "reg: scheduler must be one of"),
    (_GRAPH, ["--seeds", "4,5,6#7"], "seeds: '#' and line breaks"),
    (_GRAPH, ["--threads", "1\nthreads = 2"], "threads: '#' and line breaks"),
    (_GRAPH, ["--axis", "alpha", "--values", "0.1,0.2#"], "--values: '#' and line breaks"),
    (_GRAPH, ["--axis", "alpha", "--values", "0.1\nreg.rho = 0.3"], "--values: '#'"),
    ("reg.kind = pgr\nreg.adjacency = learned\n", [], "reg.adjacency: learned"),
    (_GRAPH + "reg.adjacency = learned\n", [], "reg.adjacency: learned"),
    (_GRAPH, ["--axis", "adjacency", "--values", "eq6,learned"], "reg.adjacency: learned"),
    (_GRAPH + "model.hidden = 0\n", [], "model: hidden width must be a positive multiple of 4"),
    (_GRAPH + "data.feature_dim = 0\n", [], "data: feature_dim must be >= 1, got 0"),
    (_GRAPH + "data.feature_noise = -1\n", [], "data: feature_noise must be >= 0, got -1.0"),
    (_GRAPH, ["--seeds=-1,2,3"], "seeds: a seed must be >= 0, got -1,2,3"),
    (_GRAPH, ["--axis", "alpha", "--values", "0.1,0.2", "--seeds", "1,2,-3"],
     "seeds: a seed must be >= 0, got 1,2,-3"),
    (_GRAPH + "data.seed = -4\n", [], "data: seed must be >= 0, got -4"),
    (b"task = node_graph\xff\n", [], "config: not UTF-8 text (byte 17): "),
    (_GRAPH + "model.groups = 2x16,,2x32\n", [], "model.groups: blank entry in the list"),
    (_GRAPH + "model.groups = 2x16,abc\n", [],
     "model.groups: entries must read <blocks>x<channels>, got 'abc'"),
    (_GRAPH + "model.groups = 2x16,2x3x4\n", [],
     "model.groups: entries must read <blocks>x<channels>, got '2x3x4'"),
    (_GRAPH + "model.groups =\n", [], "model.groups: needs at least one <blocks>x<channels> entry"),
], ids=["missing_file", "bad_key", "seeds_not_int", "seeds_empty_entry", "two_seeds",
        "repeated_seed",        "threads_0", "values_empty", "value_out_of_range", "values_same_parsed_value",
        "value_unknown", "seeds_comment", "threads_newline", "values_comment", "values_newline",
        "pgr_learned", "node_graph_dropgraph_learned", "sweep_node_graph_learned",
        "zero_width_gcn", "zero_width_features", "negative_feature_noise",
        "negative_seed", "sweep_negative_seed", "negative_data_seed", "not_utf8",
        "groups_blank_entry", "groups_entry_without_x", "groups_entry_with_two_x",
        "groups_empty"])
def test_config_errors_exit_2_before_any_output(tmp_path, capsys, text, extra, message):
    config = _write(tmp_path, text) if text is not None else str(tmp_path / "missing.cfg")
    out = tmp_path / "out"
    command = "sweep" if "--axis" in extra else "run"
    rc = cli.main([command, config, "--out-dir", str(out), *extra])
    printed, err = capsys.readouterr()
    assert rc == 2
    assert printed == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("name", ["#1", "a\nb", "a\rb"])
def test_out_dir_with_comment_or_line_break_exits_2(tmp_path, capsys, name):
    # Parsed as a config line, 'runs/#1' would silently become 'runs/'.
    rc = cli.main(["run", _write(tmp_path, _GRAPH), "--out-dir", str(tmp_path / "runs" / name)])
    assert rc == 2
    assert "error: out_dir: '#' and line breaks" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_output_dir_that_is_a_file_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    rc = cli.main(["run", _write(tmp_path, _GRAPH), "--out-dir", str(afile)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error: out_dir: "), err
    assert afile.read_text(encoding="utf-8") == "keep"
    # An output file that is a directory: one error line naming it, exit 2.
    for command, output in ((["run"], "config.txt"), (["run"], "dataset.dgd"),
                            (["sweep", "--axis", "kind", "--values", "none,dropout"],
                             "sweep.csv")):
        out = tmp_path / f"out_{output}"
        (out / output).mkdir(parents=True)
        rc = cli.main([command[0], _write(tmp_path, _GRAPH), "--out-dir", str(out), *command[1:]])
        err = capsys.readouterr().err
        assert rc == 2, output
        assert err == f"error: out_dir: Is a directory: {out / output}\n", err


def test_config_with_a_byte_order_mark_parses_as_without_one(tmp_path, capsys):
    out = tmp_path / "out"
    seen = []
    for mark in (b"", b"\xef\xbb\xbf"):
        config = _write(tmp_path, mark + _GRAPH.encode())
        assert cli.main(["run", config, "--out-dir", str(out)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        seen.append((header, (out / "config.txt").read_text(encoding="utf-8")))
    assert seen[0] == seen[1]
    assert "| config=" in seen[0][0]


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error: config: "), err
    assert not (tmp_path / "out").exists()


def test_bad_axis_is_rejected_by_the_argument_parser(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", _write(tmp_path, _GRAPH), "--axis", "beta", "--values", "1"])
    assert info.value.code == 2


def test_node_graph_dropblock_ignores_the_adjacency(tmp_path):
    # DropBlock has no graph, so a learned adjacency needs no map size.
    text = "task = node_graph\nreg.kind = dropblock\nreg.adjacency = learned\ntrain.epochs = 2\n"
    assert cli.main(["run", _write(tmp_path, text), "--out-dir", str(tmp_path / "out")]) == 0


def _assert_diverges(tmp_path, text):
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, text), "--out-dir", str(out)]) == 3
    assert '"status": "diverged"' in (out / "runs.jsonl").read_text()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run overflows on purpose
def test_divergence_exits_3(tmp_path):
    _assert_diverges(tmp_path, "task = node_graph\ntrain.epochs = 5\ntrain.lr = 1e200\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run overflows on purpose
def test_image_divergence_exits_3(tmp_path):
    # One step per epoch: the first blows the weights up, the second's loss is not finite.
    _assert_diverges(tmp_path, "task = image\ndata.train_count = 32\ndata.val_count = 8\n"
                               "train.epochs = 2\ntrain.lr = 1e200\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the runs overflow on purpose
def test_sweep_divergence_exits_3_with_the_same_error_line_as_run(tmp_path, capsys):
    out = tmp_path / "out"
    text = "task = node_graph\ntrain.epochs = 5\ntrain.lr = 1e200\n"
    assert cli.main(["sweep", _write(tmp_path, text), "--axis", "kind",
                     "--values", "none,dropout", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == "error: at least one run diverged\n"
    for kind in ("none", "dropout"):
        assert '"status": "diverged"' in (out / f"runs_kind_{kind}.jsonl").read_text()
    assert ",diverged," in (out / "sweep.csv").read_text()


# Allocates and frees four (32, 16, 32, 32) arrays 20 times after the pin and
# prints the minor page faults per array.
_FAULTS = """
import resource
import numpy as np
from dropgraph import cli
cli._keep_freed_memory()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    arrays = [np.ones((32, 16, 32, 32)) for _ in range(4)]
    del arrays
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 80)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the pin sets glibc malloc thresholds")
def test_freed_arrays_stay_mapped_for_the_next_allocation():
    """Without the pin glibc unmaps the freed top of the heap, so every array
    is faulted back in: about half its pages per array on a 2-core Xeon."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _FAULTS], env=env, check=True,
                          capture_output=True, text=True)
    pages = 32 * 16 * 32 * 32 * 8 // os.sysconf("SC_PAGE_SIZE")
    assert float(done.stdout) < 0.1 * pages


@pytest.mark.parametrize("text", [
    "task = image\ndata.image_size = 8\ndata.train_count = 8\ndata.val_count = 4\n"
    "train.batch_size = 8\ntrain.epochs = 1\n",
    _GRAPH,
], ids=["image", "node_graph"])
def test_run_writes_the_dataset_it_generates(tmp_path, text):
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, text), "--out-dir", str(out)]) == 0
    cfg = parse_config(text)
    if cfg.task == "image":
        kind, source = "image", gen_images(cfg.data_spec())
    else:
        kind, source = "graph", gen_sbm(cfg.data_spec())
    _, arrays = load_arrays(out / "dataset.dgd", kind)
    assert len(arrays) == (4 if kind == "image" else 6)
    for name, arr in arrays.items():
        npt.assert_array_equal(arr, getattr(source, name), err_msg=name)
