"""The records-contract diff, on two short configs run twice in-process."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "records_contract.py"
_spec = importlib.util.spec_from_file_location("records_contract", _TOOL)
rc = sys.modules.setdefault("records_contract", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(rc)

_CONFIGS = {name: rc.CONFIGS[name] for name in ("image-dropgraph-eq6-constant", "graph-dropgraph")}


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    rc.run_configs(root / "a", _CONFIGS)
    rc.run_configs(root / "b", _CONFIGS)
    return root / "a", root / "b"


def test_repeated_runs_keep_the_contract(two_runs):
    a, b = two_runs
    for name in _CONFIGS:
        for fname in rc.COMPARED:
            assert (a / name / fname).exists(), (name, fname)
    # wall_time_s differs between the two runs and is the one field left out.
    assert (a / "graph-dropgraph" / "runs.jsonl").read_text() != (
        b / "graph-dropgraph" / "runs.jsonl").read_text()
    assert rc.diff_outputs(a, b, _CONFIGS) == []
    assert "--- exit 0" in (a / "graph-dropgraph" / "console.txt").read_text()


def test_changed_number_is_reported_with_its_relative_deviation(two_runs, tmp_path):
    a, b = two_runs
    changed = tmp_path / "changed"
    for name in _CONFIGS:
        (changed / name).mkdir(parents=True)
        for fname in rc.COMPARED:
            (changed / name / fname).write_bytes((b / name / fname).read_bytes())
    summary = changed / "graph-dropgraph" / "summary.csv"
    lines = summary.read_text().splitlines()
    cells = lines[1].split(",")
    old = float(cells[5])
    cells[5] = repr(old * (1 + 1e-9))
    lines[1] = ",".join(cells)
    summary.write_text("\n".join(lines) + "\n")
    (changed / "image-dropgraph-eq6-constant" / "config.txt").unlink()

    diffs = sorted(rc.diff_outputs(a, changed, _CONFIGS), key=lambda d: d.config)
    assert [(d.config, d.file) for d in diffs] == [
        ("graph-dropgraph", "summary.csv"), ("image-dropgraph-eq6-constant", "config.txt")]
    assert diffs[0].deviation == pytest.approx(1e-9, rel=1e-3)
    assert math.isinf(diffs[1].deviation)


def test_max_relative_deviation_reads_only_free_standing_numbers():
    assert rc.max_relative_deviation("acc 0.5, loss 2.0", "acc 0.5, loss 2.5") == 0.2
    assert rc.max_relative_deviation("hash b549c9 f5", "hash b549c8 f5") == math.inf
    assert rc.max_relative_deviation("x = 0", "x = 0") == 0.0
    assert rc.max_relative_deviation("loss NaN", "loss 1.0") != 0.0


def test_a_sweep_compares_each_value_s_records_and_its_csv(tmp_path):
    sweep = {"graph-sweep-kind": rc.CONFIGS["graph-sweep-kind"]}
    assert rc.compared_files(sweep["graph-sweep-kind"]) == (
        "runs_kind_none.jsonl", "runs_kind_dropgraph.jsonl", "sweep.csv", "console.txt")
    rc.run_configs(tmp_path / "a", sweep)
    rc.run_configs(tmp_path / "b", sweep)
    for fname in rc.compared_files(sweep["graph-sweep-kind"]):
        assert (tmp_path / "a" / "graph-sweep-kind" / fname).exists(), fname
    assert rc.diff_outputs(tmp_path / "a", tmp_path / "b", sweep) == []
    runs = tmp_path / "b" / "graph-sweep-kind" / "runs_kind_dropgraph.jsonl"
    runs.write_text(runs.read_text().replace('"status": "ok"', '"status": "diverged"', 1))
    assert [(d.file, d.deviation) for d in rc.diff_outputs(tmp_path / "a", tmp_path / "b", sweep)] \
        == [("runs_kind_dropgraph.jsonl", float("inf"))]


def test_console_normalization_blanks_paths_warning_lines_and_check_seconds():
    src = "/tmp/tree/src"
    console = ("gradient_soundness       PASS     0.66s  110 instances, worst 5.35e-08\n"
               "mask_rate_calibration    FAIL    12.50s  (16,16,s=3,rho=0.05): 0.0501\n"
               "7/7 checks passed\n"
               f"{src}/dropgraph/nn.py:141: RuntimeWarning: overflow\n")
    assert rc.normalize_console(console, src) == (
        "gradient_soundness       PASS  <seconds>  110 instances, worst 5.35e-08\n"
        "mask_rate_calibration    FAIL  <seconds>  (16,16,s=3,rho=0.05): 0.0501\n"
        "7/7 checks passed\n"
        "<src>/dropgraph/nn.py:<line>: RuntimeWarning: overflow\n")
    # A check that took longer reads the same; its detail line still counts.
    slower = console.replace("0.66s", "1.02s")
    assert rc.normalize_console(slower, src) == rc.normalize_console(console, src)
    worse = console.replace("5.35e-08", "5.36e-08")
    assert rc.normalize_console(worse, src) != rc.normalize_console(console, src)


def test_the_contract_holds_47_entries_with_block_size_one_and_a_600_node_graph():
    assert len(rc.CONFIGS) == 47
    big = rc.CONFIGS["graph-dropgraph-600-nodes"]
    assert "data.nodes = 600" in big and "data.labeled_per_class = 30" in big
    assert "reg.block_size = 1" in rc.CONFIGS["image-dropgraph-block-one"]
    assert "task = image" in rc.CONFIGS["image-dropgraph-block-one"]
    # pgr's top selection on a last batch of one item: a flat set written back without valid.
    top = rc.CONFIGS["image-pgr-top-one-item-batch"]
    assert "data.train_count = 17" in top and "reg.pgr_strategy = top" in top


def test_verify_entry_compares_its_console_only():
    assert isinstance(rc.CONFIGS["verify"], rc.Verify)
    assert rc.compared_files(rc.CONFIGS["verify"]) == ("console.txt",)
