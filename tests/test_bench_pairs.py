"""The paired-benchmark claim rule, on synthetic numbers."""

import importlib.util
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
