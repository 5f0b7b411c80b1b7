"""Paired benchmark runs of a parent revision and this checkout.

    python tools/bench_pairs.py <parent-rev> --workload W --seeds A-B --seconds S

The parent revision is exported with ``git archive`` into a temporary
directory (``records_contract.export_tree``).  For each seed in the
inclusive range ``A-B`` the tool runs ``bench/run.py --workload W --seed n
--seconds S --trace 0`` once in each tree, one after the other, the parent
first on even seeds and this checkout first on odd ones, so that a drift of
the machine's speed falls on both sides alike.  It then prints, for each
end-to-end metric that ``BENCHMARK.json`` declares:

* each side's median and quartiles over the seeds;
* wins, ties and losses of this checkout over the pairs, in the metric's
  ``better`` direction;
* whether the claim rule holds: at least nine tenths of the pairs won (ties
  count for neither), and a median gap in the better direction larger than
  the parent's interquartile range;
* how much worse this checkout's median is than the parent's, against the
  metric's bound.

A seed whose ``# records digest`` line differs between the two trees is
flagged: the two programs computed different records.  Exit status: 0 when
every run succeeded and every digest agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from records_contract import REPO, export_tree  # noqa: E402

WIN_SHARE = 0.9  # share of all pairs the change must win for a claim


@dataclass(frozen=True)
class Side:
    """One benchmark run's records digest, invocation count and end-to-end metric values."""

    digest: str
    invocations: int
    metrics: dict


@dataclass(frozen=True)
class Verdict:
    wins: int
    ties: int
    losses: int
    holds: bool


def seed_range(text: str) -> list[int]:
    """``"A-B"`` as the inclusive list of seeds A..B; ``"A"`` as [A]."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles`` cuts them; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str) -> Verdict:
    """Pairwise wins, ties and losses of ``change`` over ``parent``, and the claim rule.

    ``parent[i]`` and ``change[i]`` come from the same seed.  The claim holds
    when ``change`` wins at least ``WIN_SHARE`` of all pairs and its median
    beats the parent's by more than the parent's Q3 - Q1.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one change value per parent value, and at least one pair")
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    q1, p_med, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - p_med)
    holds = wins >= WIN_SHARE * len(gains) and gap > q3 - q1
    return Verdict(wins, len(gains) - wins - losses, losses, holds)


def worse_by(parent_median: float, change_median: float, better: str) -> float:
    """How much worse the change's median is, as a fraction of the parent's (<= 0: not worse)."""
    if parent_median == 0:
        return 0.0 if change_median == parent_median else float("inf")
    worse = (change_median - parent_median) / abs(parent_median)
    return worse if better == "lower" else -worse


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> Side:
    """One untraced ``bench/run.py`` run in ``tree``: its digest and metric values."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree} failed on seed {seed}:\n{done.stderr}")
    # "# records digest <digest>  samples {...}", the samples holding the invocation count.
    head = next(ln for ln in lines if ln.startswith("# records digest"))
    digest, samples = head.split()[3], json.loads(head.split("samples ", 1)[1])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"bench/run.py in {tree} reports incorrect records on seed {seed}:\n"
                           f"{done.stdout}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return Side(digest, samples["invocations"], metrics)


def report(pairs: dict, end_to_end: list) -> list[str]:
    """The table of medians, quartiles, verdicts and bounds over ``pairs`` (seed -> sides)."""
    rows = [f"{'metric':20s} {'better':6s} {'parent Q1 / median / Q3':>32s} "
            f"{'change Q1 / median / Q3':>32s} {'gap':>7s} {'W/T/L':>8s} {'rule':>5s} "
            f"{'worse':>7s} {'bound':>6s}"]
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        seeds = [s for s, (p, c) in pairs.items() if name in p.metrics and name in c.metrics]
        if not seeds:
            continue
        parent = [pairs[s][0].metrics[name] for s in seeds]
        change = [pairs[s][1].metrics[name] for s in seeds]
        pq, cq = quartiles(parent), quartiles(change)
        v = verdict(parent, change, better)
        gap = (cq[1] / pq[1] - 1.0) if pq[1] else 0.0
        worse = worse_by(pq[1], cq[1], better)
        within = "ok" if worse <= spec["bound"] else "OVER"
        rows.append(f"{name:20s} {better:6s} {pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g} "
                    f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} {gap:+7.1%} "
                    f"{v.wins:>2d}/{v.ties}/{v.losses:<2d} {'holds' if v.holds else 'no':>5s} "
                    f"{max(0.0, worse):7.1%} {spec['bound']:5.0%} {within}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", help="git revision to compare this checkout against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 11-20")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    end_to_end = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    pairs, mismatched = {}, []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent_tree"
        export_tree(args.parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": REPO}
        for seed in seed_range(args.seeds):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            sides = {name: run_bench(trees[name], args.workload, seed, args.seconds)
                     for name in order}
            pairs[seed] = (sides["parent"], sides["change"])
            same = sides["parent"].digest == sides["change"].digest
            if not same:
                mismatched.append(seed)
            print(f"# seed {seed}: {order[0]} first, digest "
                  f"{'same' if same else 'DIFFERS'} ({sides['parent'].digest} / "
                  f"{sides['change'].digest})", flush=True)
    print(f"# {args.workload}: {len(pairs)} pairs, parent {args.parent_rev}, "
          f"--seconds {args.seconds:g}")
    for row in report(pairs, end_to_end):
        print(row)
    counts = {side: statistics.median(p[i].invocations for p in pairs.values())
              for i, side in enumerate(("parent", "change"))}
    print(f"# invocations per run (median): parent {counts['parent']:g}, "
          f"change {counts['change']:g}")
    if mismatched:
        print(f"# RECORDS DIFFER on seeds {mismatched}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
