"""The documented exit codes of ``dropgraph``: 0 success, 1 verification
failure, 2 configuration/parse error, 3 training divergence."""

import pytest

from dropgraph import cli
from dropgraph.verify import CheckResult

_GRAPH = "task = node_graph\nreg.kind = dropgraph\ntrain.epochs = 2\n"


def _write(tmp_path, text):
    path = tmp_path / "exp.cfg"
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


def test_verify_exits_1_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_checks", lambda names: [
        CheckResult("ok_check", True, "", 0.0), CheckResult("bad_check", False, "off", 0.0)])
    assert cli.main(["verify"]) == 1
    assert "1/2 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("text, extra, message", [
    (None, [], "file not found"),
    ("reg.nope = 1\n", [], "unknown key 'reg.nope'"),
    (_GRAPH, ["--seeds", "a"], "seeds: "),
    (_GRAPH, ["--seeds", "1,,2"], "seeds: "),
    (_GRAPH, ["--seeds", "1,2"], "seeds: "),
    (_GRAPH, ["--threads", "0"], "threads: must be >= 1, got 0"),
    (_GRAPH, ["--axis", "alpha", "--values", ","], "--values"),
    (_GRAPH, ["--axis", "alpha", "--values", "0.1,1.5"], "reg: alpha"),
    (_GRAPH, ["--axis", "scheduler", "--values", "f9"], "reg: scheduler_kind"),
], ids=["missing_file", "bad_key", "seeds_not_int", "seeds_empty_entry", "two_seeds",
        "threads_0", "values_empty", "value_out_of_range", "value_unknown"])
def test_config_errors_exit_2_before_any_output(tmp_path, capsys, text, extra, message):
    config = _write(tmp_path, text) if text is not None else str(tmp_path / "missing.cfg")
    out = tmp_path / "out"
    command = "sweep" if "--axis" in extra else "run"
    rc = cli.main([command, config, "--out-dir", str(out), *extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err
    assert not out.exists()


def test_bad_axis_is_rejected_by_the_argument_parser(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", _write(tmp_path, _GRAPH), "--axis", "beta", "--values", "1"])
    assert info.value.code == 2


def test_divergence_exits_3(tmp_path):
    text = "task = node_graph\ntrain.epochs = 5\ntrain.lr = 1e200\n"
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, text), "--out-dir", str(out)]) == 3
    assert '"status": "diverged"' in (out / "runs.jsonl").read_text()
