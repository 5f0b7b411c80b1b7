"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/steady.py --workload image-eval --seeds 1-10 --seconds 40

Runs ``bench/run.py`` once per seed, one after another, and prints for each
metric its median and the quartile spread (Q3 - Q1) / median, the figure
the benchmark's bounds in BENCHMARK.json are checked against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    values = {}
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          **{k: round(v["value"], 6) for k, v in result["metrics"].items()}}),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, xs in values.items():
        spread = quartile_spread(xs) if len(xs) >= 2 and median(xs) else float("nan")
        print(f"{name:36s} median {median(xs):12.6g}  spread {spread:7.2%}  n={len(xs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
