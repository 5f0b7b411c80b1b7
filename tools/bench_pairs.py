"""Paired benchmark runs of a parent revision and this checkout.

    python tools/bench_pairs.py <parent-rev> --workload W --seeds A-B --seconds S [--emit DIR]

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

With ``--emit DIR`` the tool also writes one ``BENCH_<rev>_<workload>.json``
per side into ``DIR`` (``bench_record``).  ``<rev>`` is the parent's short
hash, and for this checkout the short hash of HEAD, with ``-dirty`` appended
when the working tree differs from it.  A file holds the revision, the
workload, the seeds and ``--seconds``, the ``# env`` block of the first run
(without its per-run ``seed`` and ``train_seeds``), and per seed each
end-to-end metric, the invocation count and the records digest; per metric,
the median and quartiles over the seeds.  This checkout's file also names
the parent and holds, per metric, the verdict and bound check printed in the
table, and the seeds whose digests differ.  The files hold no time stamp:
the same runs give the same bytes.
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
    """One benchmark run's records digest, invocation count, end-to-end metric values
    and ``# env`` block."""

    digest: str
    invocations: int
    metrics: dict
    env: dict


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
    env = json.loads(next(ln for ln in lines if ln.startswith("# env "))[len("# env "):])
    # "# records digest <digest>  samples {...}", the samples holding the invocation count.
    head = next(ln for ln in lines if ln.startswith("# records digest"))
    digest, samples = head.split()[3], json.loads(head.split("samples ", 1)[1])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"bench/run.py in {tree} reports incorrect records on seed {seed}:\n"
                           f"{done.stdout}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return Side(digest, samples["invocations"], metrics, env)


def compare(pairs: dict, end_to_end: list) -> dict:
    """Per end-to-end metric that both sides of some pair report: each side's quartiles,
    the median gap, the verdict and how much worse the change's median is."""
    out = {}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        seeds = [s for s, (p, c) in pairs.items() if name in p.metrics and name in c.metrics]
        if not seeds:
            continue
        parent = [pairs[s][0].metrics[name] for s in seeds]
        change = [pairs[s][1].metrics[name] for s in seeds]
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {"parent": pq, "change": cq, "verdict": verdict(parent, change, better),
                     "gap": (cq[1] / pq[1] - 1.0) if pq[1] else 0.0,
                     "worse": worse_by(pq[1], cq[1], better)}
    return out


def report(pairs: dict, end_to_end: list) -> list[str]:
    """The table of medians, quartiles, verdicts and bounds over ``pairs`` (seed -> sides)."""
    rows = [f"{'metric':20s} {'better':6s} {'parent Q1 / median / Q3':>32s} "
            f"{'change Q1 / median / Q3':>32s} {'gap':>7s} {'W/T/L':>8s} {'rule':>5s} "
            f"{'worse':>7s} {'bound':>6s}"]
    compared = compare(pairs, end_to_end)
    for spec in end_to_end:
        if spec["name"] not in compared:
            continue
        c = compared[spec["name"]]
        pq, cq, v = c["parent"], c["change"], c["verdict"]
        within = "ok" if c["worse"] <= spec["bound"] else "OVER"
        rows.append(f"{spec['name']:20s} {spec['better']:6s} {pq[0]:10.4g} {pq[1]:10.4g} "
                    f"{pq[2]:10.4g} {cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} "
                    f"{c['gap']:+7.1%} {v.wins:>2d}/{v.ties}/{v.losses:<2d} "
                    f"{'holds' if v.holds else 'no':>5s} {max(0.0, c['worse']):7.1%} "
                    f"{spec['bound']:5.0%} {within}")
    return rows


PER_RUN_ENV = ("seed", "train_seeds")  # ``# env`` keys that differ between a side's runs


def bench_record(revision: str, workload: str, seconds: float, runs: dict, end_to_end: list,
                 parent: tuple | None = None) -> dict:
    """The ``BENCH_<revision>_<workload>.json`` document of one side.

    ``runs`` maps seed -> ``Side``.  The change side passes ``parent`` as
    ``(parent revision, the parent's runs)`` and gets the claim verdicts.
    """
    seeds = sorted(runs)
    env = {k: v for k, v in runs[seeds[0]].env.items() if k not in PER_RUN_ENV}
    metrics = {}
    for spec in end_to_end:
        values = [runs[s].metrics[spec["name"]] for s in seeds if spec["name"] in runs[s].metrics]
        if values:
            metrics[spec["name"]] = dict(zip(("q1", "median", "q3"), quartiles(values)))
    doc = {"revision": revision, "workload": workload, "seeds": seeds, "seconds": seconds,
           "env": env, "metrics": metrics,
           "runs": {str(s): {"digest": runs[s].digest, "invocations": runs[s].invocations,
                             "metrics": runs[s].metrics} for s in seeds}}
    if parent is not None:
        parent_rev, parent_runs = parent
        pairs = {s: (parent_runs[s], runs[s]) for s in seeds}
        bounds = {spec["name"]: spec["bound"] for spec in end_to_end}
        doc["parent"] = parent_rev
        doc["digests_differ"] = [s for s in seeds if parent_runs[s].digest != runs[s].digest]
        doc["claims"] = {
            name: {"wins": c["verdict"].wins, "ties": c["verdict"].ties,
                   "losses": c["verdict"].losses, "holds": c["verdict"].holds,
                   "gap": c["gap"], "worse": c["worse"], "bound": bounds[name],
                   "within_bound": c["worse"] <= bounds[name]}
            for name, c in compare(pairs, end_to_end).items()}
    return doc


def write_bench_record(out_dir: Path, doc: dict) -> Path:
    """Write ``doc`` as ``BENCH_<revision>_<workload>.json`` in ``out_dir``; same doc, same bytes."""
    path = out_dir / f"BENCH_{doc['revision']}_{doc['workload']}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def revision_names(parent_rev: str) -> tuple[str, str]:
    """Short hashes naming the parent and this checkout (``-dirty`` with local changes)."""
    head = _git("rev-parse", "--short=7", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return _git("rev-parse", "--short=7", parent_rev), head + ("-dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", help="git revision to compare this checkout against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 11-20")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--emit", type=Path, metavar="DIR",
                        help="write each side's BENCH_<rev>_<workload>.json into DIR")
    args = parser.parse_args(argv)
    end_to_end = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent_name, change_name = revision_names(args.parent_rev)
    if args.emit is not None and parent_name == change_name:
        parser.error(f"this checkout is {parent_name} itself; both files would share a name")
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
    if args.emit is not None:
        sides = {name: {s: p[i] for s, p in pairs.items()}
                 for i, name in enumerate(("parent", "change"))}
        for doc in (bench_record(parent_name, args.workload, args.seconds, sides["parent"],
                                 end_to_end),
                    bench_record(change_name, args.workload, args.seconds, sides["change"],
                                 end_to_end, (parent_name, sides["parent"]))):
            print(f"# wrote {write_bench_record(args.emit, doc)}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
