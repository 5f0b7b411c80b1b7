"""The paired-benchmark claim rule and the BENCH file, on synthetic numbers."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bp = sys.modules.setdefault("bench_pairs", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(bp)

# Ten parent runs of a lower-is-better metric: median 1.0, Q3 - Q1 = 0.02.
PARENT = [0.99, 1.00, 1.01, 0.98, 1.02, 0.99, 1.01, 1.00, 0.985, 1.015]


def test_nine_wins_of_ten_and_a_gap_beyond_the_parent_iqr_hold():
    change = [p - 0.1 for p in PARENT]
    change[3] = PARENT[3] + 0.01  # one loss
    v = bp.verdict(PARENT, change, "lower")
    assert (v.wins, v.ties, v.losses, v.holds) == (9, 0, 1, True)


def test_eight_wins_of_ten_do_not_hold():
    change = [p - 0.1 for p in PARENT]
    change[3] = change[4] = 1.5
    v = bp.verdict(PARENT, change, "lower")
    assert (v.wins, v.losses, v.holds) == (8, 2, False)


def test_ties_count_for_neither_side():
    change = [p - 0.1 for p in PARENT]
    change[0] = PARENT[0]
    assert bp.verdict(PARENT, change, "lower") == bp.Verdict(9, 1, 0, True)
    change[1] = PARENT[1]
    assert bp.verdict(PARENT, change, "lower") == bp.Verdict(8, 2, 0, False)


def test_every_pair_won_by_less_than_the_parent_iqr_does_not_hold():
    q1, _, q3 = bp.quartiles(PARENT)
    change = [p - 0.5 * (q3 - q1) for p in PARENT]
    v = bp.verdict(PARENT, change, "lower")
    assert v.wins == 10 and not v.holds


def test_higher_is_better_turns_the_direction():
    change = [p + 0.1 for p in PARENT]
    assert bp.verdict(PARENT, change, "higher").holds
    assert bp.verdict(PARENT, change, "lower") == bp.Verdict(0, 0, 10, False)


def test_verdict_needs_one_change_value_per_parent_value():
    with pytest.raises(ValueError):
        bp.verdict(PARENT, PARENT[:-1], "lower")


def test_worse_by_is_signed_by_the_better_direction():
    assert bp.worse_by(2.0, 2.5, "lower") == 0.25
    assert bp.worse_by(2.0, 2.5, "higher") == -0.25
    assert bp.worse_by(0.0, 0.0, "higher") == 0.0


def test_seed_range_and_quartiles_of_one_run():
    assert bp.seed_range("11-14") == [11, 12, 13, 14]
    assert bp.seed_range("7") == [7]
    with pytest.raises(ValueError):
        bp.seed_range("5-4")
    assert bp.quartiles([3.0]) == (3.0, 3.0, 3.0)


_END_TO_END = json.loads((_TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def _synthetic_side(seed: int, scale: float):
    """A run that reports every end-to-end metric, each spread over the seeds."""
    metrics = {spec["name"]: scale * (1.0 + 0.01 * ((seed * 7 + i) % 5))
               for i, spec in enumerate(_END_TO_END)}
    env = {"numpy": "2.4.6", "seed": seed, "train_seeds": [3 * seed, 3 * seed + 1]}
    return bp.Side(f"digest{seed % 2}", 3 + seed % 2, metrics, env)


def _bench_files(tmp_path):
    parent = {s: _synthetic_side(s, 1.0) for s in range(21, 31)}
    change = {s: _synthetic_side(s, 0.8) for s in range(21, 31)}
    docs = (bp.bench_record("aaaaaaa", "node-graph", 40.0, parent, _END_TO_END),
            bp.bench_record("bbbbbbb-dirty", "node-graph", 40.0, change, _END_TO_END,
                            ("aaaaaaa", parent)))
    return [bp.write_bench_record(tmp_path, doc) for doc in docs]


def test_bench_files_hold_every_declared_metric_with_ordered_quartiles(tmp_path):
    paths = _bench_files(tmp_path)
    assert [p.name for p in paths] == ["BENCH_aaaaaaa_node-graph.json",
                                       "BENCH_bbbbbbb-dirty_node-graph.json"]
    parent, change = (json.loads(p.read_text()) for p in paths)
    names = sorted(spec["name"] for spec in _END_TO_END)
    for doc in (parent, change):
        assert sorted(doc["metrics"]) == names
        assert all(m["q1"] <= m["median"] <= m["q3"] for m in doc["metrics"].values())
        assert doc["seeds"] == list(range(21, 31)) and doc["env"] == {"numpy": "2.4.6"}
        assert doc["runs"]["22"]["invocations"] == 3 and doc["runs"]["22"]["digest"] == "digest0"
        assert sorted(doc["runs"]["22"]["metrics"]) == names
    assert "claims" not in parent and change["parent"] == "aaaaaaa"
    assert sorted(change["claims"]) == names and change["digests_differ"] == []
    lower = change["claims"]["step_ms_p50"]
    assert (lower["wins"], lower["holds"], lower["within_bound"]) == (10, True, True)
    higher = change["claims"]["eval_samples_per_s"]
    assert (higher["losses"], higher["holds"], higher["within_bound"]) == (10, False, True)


def test_equal_runs_give_equal_bench_bytes(tmp_path):
    first = [p.read_bytes() for p in _bench_files(tmp_path / "a")]
    assert first == [p.read_bytes() for p in _bench_files(tmp_path / "b")]

