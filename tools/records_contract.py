"""Records contract: run one fixed list of short configs in two source trees
and diff what each run leaves behind.

    python tools/records_contract.py <parent-rev>

The parent revision is exported with ``git archive`` into a temporary
directory (no worktree is registered, so nothing is left in ``.git`` if the
tool is interrupted).  The parent's ``src`` and this checkout's ``src`` then
each run every config of ``CONFIGS`` through ``dropgraph.cli.main(["run",
...])``, or ``["sweep", ...]`` for a ``Sweep`` and ``["verify"]`` for
a ``Verify``, in a fresh interpreter with BLAS pinned to one thread.  Per
config the tool compares

* ``runs.jsonl`` without ``wall_time_s`` (a sweep: each
  ``runs_<axis>_<value>.jsonl``),
* ``summary.csv`` and ``config.txt`` (a sweep: ``sweep.csv``),
* the console output (stdout, stderr and the exit code); numpy's warnings
  on a diverging run name the file and line they come from, and the tool
  writes these as ``<src>/dropgraph/nn.py:<line>``, since where a tree sits
  and where its lines fall are not the program's output; ``verify`` prints
  each check's seconds, which the tool writes as ``<seconds>``,

and prints one line per differing file with the largest relative deviation
between its numbers (``inf`` when the files differ in anything but numbers).
The summary line ends with the line count of ``src/dropgraph/*.py`` in the
parent and in this checkout, as ``wc -l`` counts them.
The dataset cache is not compared: it is a pure function of ``data.seed``.
Exit status: 0 when every file is byte-identical, 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_IMAGE = ("task = image\ndata.image_size = 16\ndata.train_count = 16\n"
          "data.val_count = 8\ntrain.batch_size = 8\ntrain.epochs = 2\n")
_GRAPH = "task = node_graph\ntrain.epochs = 20\n"


@dataclass(frozen=True)
class Sweep:
    """A config run as ``dropgraph sweep --axis <axis> --values <values>``."""

    text: str
    axis: str
    values: tuple


@dataclass(frozen=True)
class Verify:
    """``dropgraph verify``, whose console output is its one compared file."""


# 51 entries: 50 configs and ``dropgraph verify``.  The configs cover every
# reg.kind, generator, adjacency mode and ramp, both pgr strategies and arms,
# pgr with a normalized similarity, and both tasks, with every generator on
# the node-graph task's one-item (flat) vertex layout; an odd image size,
# whose stride-2 maps round up; image configs whose last batch holds one item
# (the flat layout with a shared skip mask, and pgr writing back a flat set's
# rows, from a random and from a top selection); alpha = 1, where every item
# of a padded vertex set fills n_max; three groups, whose two strided convs
# run on an even 18x18 and an odd 9x9 map; a diverging run of each task,
# which keeps the epochs it finished, and a diverging sweep; a run on a
# process pool of two workers; a sweep over reg.kind, whose configs share one
# dataset; dropgraph at an alpha so small that some items draw no vertex and
# get a forced one, on both tasks; pgr at alpha = 0, which returns its input
# and leaves its weight without a gradient for SGD to skip; dropgraph at
# block size 1 on multi-item batches, where the mask is its seed draw; a
# 600-node graph, whose adjacency products BLAS computes with other kernels
# than at the default 300 nodes; dropgraph off the skip path and training
# without flips, so that every boolean field takes both values
# (``tests/test_records_contract.py`` checks this and that every enumerated
# reg.* value appears); and noise-free images, which draw no pixel noise.
# Each config runs the default three seeds.  The verify entry holds the release
# gate's checks and their detail lines (worst errors, calibrated rates) to the
# parent's.
CONFIGS = {
    "image-none": _IMAGE,
    "image-dropout-rescale": _IMAGE + "reg.kind = dropout\nreg.rescale_dropout = true\n",
    "image-spatial-dropout": _IMAGE + "reg.kind = spatial_dropout\n",
    "image-dropblock": _IMAGE + "reg.kind = dropblock\n",
    "image-dropblock-learned": _IMAGE + "reg.kind = dropblock\nreg.adjacency = learned\n",
    "image-pgr-random": _IMAGE + "reg.kind = pgr\n",
    "image-pgr-random-eval": _IMAGE + "reg.kind = pgr\nreg.pgr_active_in_eval = true\n",
    "image-pgr-top-eval": _IMAGE + ("reg.kind = pgr\nreg.pgr_strategy = top\n"
                                    "reg.pgr_active_in_eval = true\n"),
    "image-pgr-similarity-normalize": _IMAGE + (
        "reg.kind = pgr\nreg.adjacency = similarity\nreg.normalize_similarity = true\n"),
    "image-dropgraph-eq6-constant": _IMAGE + "reg.kind = dropgraph\nreg.scheduler = constant\n",
    "image-dropgraph-learned": _IMAGE + "reg.kind = dropgraph\nreg.adjacency = learned\n",
    "image-dropgraph-similarity-normalize": _IMAGE + (
        "reg.kind = dropgraph\nreg.adjacency = similarity\nreg.normalize_similarity = true\n"),
    "image-dropgraph-identity": _IMAGE + "reg.kind = dropgraph\nreg.adjacency = identity\n",
    "image-dropgraph-uniform": _IMAGE + "reg.kind = dropgraph\nreg.adjacency = uniform\n",
    "image-dropgraph-zero": _IMAGE + "reg.kind = dropgraph\nreg.adjacency = zero\n",
    "image-dropgraph-random-noise": _IMAGE + "reg.kind = dropgraph\nreg.generator = random_noise\n",
    "image-dropgraph-avg-pool-all": _IMAGE + ("reg.kind = dropgraph\nreg.generator = avg_pool\n"
                                              "model.regularize_groups = all\n"),
    "image-dropgraph-no-generator": _IMAGE + "reg.kind = dropgraph\nreg.generator = none\n",
    "image-dropgraph-f2": _IMAGE + "reg.kind = dropgraph\nreg.scheduler = f2\n",
    "image-spatial-dropout-f3": _IMAGE + "reg.kind = spatial_dropout\nreg.scheduler = f3\n",
    "image-dropblock-f4": _IMAGE + "reg.kind = dropblock\nreg.scheduler = f4\n",
    "image-dropgraph-odd-size": _IMAGE + "data.image_size = 15\nreg.kind = dropgraph\n",
    "image-dropgraph-one-item-batch": _IMAGE + "data.train_count = 17\nreg.kind = dropgraph\n",
    "image-dropgraph-alpha-one": _IMAGE + "reg.kind = dropgraph\nreg.alpha = 1.0\n",
    "image-dropgraph-three-groups": _IMAGE + ("data.image_size = 18\nmodel.groups = 1x8,1x8,1x8\n"
                                              "reg.kind = dropgraph\n"),
    "image-pgr-one-item-batch": _IMAGE + "data.train_count = 17\nreg.kind = pgr\n",
    "image-pgr-top-one-item-batch": _IMAGE + ("data.train_count = 17\nreg.kind = pgr\n"
                                              "reg.pgr_strategy = top\n"),
    "image-diverges": _IMAGE + "train.batch_size = 16\ntrain.epochs = 3\ntrain.lr = 1e200\n",
    "image-dropgraph-two-threads": _IMAGE + "reg.kind = dropgraph\nthreads = 2\n",
    "image-dropgraph-sparse": _IMAGE + "reg.kind = dropgraph\nreg.alpha = 0.02\n",
    "image-pgr-alpha-zero": _IMAGE + "reg.kind = pgr\nreg.alpha = 0.0\n",
    "image-dropgraph-block-one": _IMAGE + "reg.kind = dropgraph\nreg.block_size = 1\n",
    "image-dropgraph-no-skip": _IMAGE + "reg.kind = dropgraph\nmodel.regularize_skip = false\n",
    "image-no-flip": _IMAGE + "train.augment_flip = false\n",
    "image-noise-free": _IMAGE + "data.noise_std = 0.0\n",
    "graph-none": _GRAPH,
    "graph-dropout": _GRAPH + "reg.kind = dropout\n",
    "graph-spatial-dropout": _GRAPH + "reg.kind = spatial_dropout\n",
    "graph-dropblock": _GRAPH + "reg.kind = dropblock\nreg.block_size = 1\n",
    "graph-dropgraph": _GRAPH + "reg.kind = dropgraph\n",
    "graph-dropgraph-uniform-f5": _GRAPH + (
        "reg.kind = dropgraph\nreg.adjacency = uniform\nreg.scheduler = f5\n"),
    "graph-dropgraph-similarity": _GRAPH + "reg.kind = dropgraph\nreg.adjacency = similarity\n",
    "graph-dropgraph-random-noise": _GRAPH + "reg.kind = dropgraph\nreg.generator = random_noise\n",
    "graph-dropgraph-avg-pool": _GRAPH + "reg.kind = dropgraph\nreg.generator = avg_pool\n",
    "graph-dropgraph-no-generator": _GRAPH + "reg.kind = dropgraph\nreg.generator = none\n",
    "graph-dropgraph-sparse": _GRAPH + "reg.kind = dropgraph\nreg.alpha = 0.002\n",
    "graph-diverges": _GRAPH + "train.lr = 1e200\n",
    "graph-dropgraph-600-nodes": _GRAPH + ("reg.kind = dropgraph\ndata.nodes = 600\n"
                                           "data.labeled_per_class = 30\n"),
    "graph-sweep-kind": Sweep(_GRAPH, "kind", ("none", "dropgraph")),
    "graph-sweep-diverges": Sweep(_GRAPH + "train.lr = 1e200\n", "kind", ("none", "dropout")),
    "verify": Verify(),
}

COMPARED = ("runs.jsonl", "summary.csv", "config.txt", "console.txt")


def compared_files(config) -> tuple:
    """The files a config's command writes that the contract compares."""
    if isinstance(config, Verify):
        return ("console.txt",)
    if isinstance(config, Sweep):
        runs = tuple(f"runs_{config.axis}_{value}.jsonl" for value in config.values)
        return (*runs, "sweep.csv", "console.txt")
    return COMPARED


# The source location a warning is printed with, once its tree's path is ``<src>``.
_WARNING_LINE = re.compile(r"(<src>/\S+\.py):\d+:")
# A verify check's status and its seconds column, which timing alone sets.
_CHECK_SECONDS = re.compile(r"\b(PASS|FAIL) +\d+\.\d+s(?!\S)")


def normalize_console(console: str, src: str) -> str:
    """``console`` without what varies between trees and runs but not programs.

    The tree's path ``src`` becomes ``<src>``, a warning's line number
    ``<line>`` and a verify check's seconds ``<seconds>``.
    """
    console = _WARNING_LINE.sub(r"\1:<line>:", console.replace(src, "<src>"))
    return _CHECK_SECONDS.sub(r"\1  <seconds>", console)


@contextlib.contextmanager
def _cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_configs(out_root: Path, configs: dict = CONFIGS):
    """Run each config through ``cli.main`` of the importable ``dropgraph``.

    Config ``name`` writes into ``out_root/name``.  Out-dirs are given
    relative to ``out_root``, so ``config.txt`` and the console output do
    not depend on where ``out_root`` is.
    """
    from dropgraph import cli

    src = str(Path(cli.__file__).parent.parent)
    out_root.mkdir(parents=True, exist_ok=True)
    with _cwd(out_root):
        for name, config in configs.items():
            if isinstance(config, Verify):
                command = ["verify"]
            else:
                if isinstance(config, Sweep):
                    text, command = config.text, ["sweep", f"{name}.cfg", "--axis",
                                                  config.axis, "--values", ",".join(config.values)]
                else:
                    text, command = config, ["run", f"{name}.cfg"]
                Path(f"{name}.cfg").write_text(text, encoding="utf-8")
                command += ["--out-dir", name]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(command)
            Path(name).mkdir(exist_ok=True)
            console = f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {rc}\n"
            (Path(name) / "console.txt").write_text(normalize_console(console, src),
                                                    encoding="utf-8")


def _normalized(path: Path) -> str:
    """A compared file's text; a ``.jsonl`` file loses its ``wall_time_s`` fields."""
    if not path.exists():
        return "<missing>"
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".jsonl":
        return text
    rows = []
    for line in text.splitlines():
        row = json.loads(line)
        row.pop("wall_time_s", None)
        rows.append(json.dumps(row, sort_keys=True))
    return "\n".join(rows) + "\n"


# A number standing alone, not the digits inside a hash or a name like f5.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"
                     r"|nan|inf(?:inity)?)(?![\w.])", re.IGNORECASE)


def max_relative_deviation(a: str, b: str) -> float:
    """Largest |x - y| / max(|x|, |y|) over the numbers of two texts.

    The texts must agree everywhere except in their numbers; otherwise the
    deviation is ``inf``, as it is when a number differs and one side is
    not finite.  Equal texts give 0.
    """
    if _NUMBER.split(a) != _NUMBER.split(b):
        return float("inf")
    worst = 0.0
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if x == y:
            continue
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            return float("inf")
        if x != y:  # not 0 against -0.0
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


@dataclass
class Difference:
    config: str
    file: str
    deviation: float


def diff_outputs(a_root: Path, b_root: Path, configs: dict = CONFIGS) -> list:
    """Every compared file of every config that differs between two output roots."""
    diffs = []
    for name, config in configs.items():
        for fname in compared_files(config):
            a = _normalized(a_root / name / fname)
            b = _normalized(b_root / name / fname)
            if a != b:
                diffs.append(Difference(name, fname, max_relative_deviation(a, b)))
    return diffs


def _run_tree(src: Path, out_root: Path):
    """Run ``CONFIGS`` with ``src`` first on the path, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("import sys, pathlib, dropgraph\n"
            "src = pathlib.Path(sys.argv[2]).resolve()\n"
            "if pathlib.Path(dropgraph.__file__).resolve().parent.parent != src:\n"
            "    sys.exit(f'imported {dropgraph.__file__}, not the tree at {src}')\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import records_contract\n"
            "records_contract.run_configs(pathlib.Path(sys.argv[1]))\n")
    subprocess.run([sys.executable, "-c", code, str(out_root), str(src)], env=env, check=True)


def source_lines(tree: Path) -> int:
    """Lines of the program's modules, ``src/dropgraph/*.py``, under ``tree``."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "dropgraph").glob("*.py"))


def export_tree(rev: str, dest: Path):
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The archive is the repo's own tree; the extraction filter is used
        # where this Python has it (3.10.12+, 3.11.4+, 3.12+).
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="records_contract_") as tmp:
        root = Path(tmp)
        parent_tree = root / "parent_tree"
        export_tree(args.parent_rev, parent_tree)
        _run_tree(parent_tree / "src", root / "parent")
        _run_tree(REPO / "src", root / "head")
        diffs = diff_outputs(root / "parent", root / "head")
        lines = (source_lines(parent_tree), source_lines(REPO))
    for d in diffs:
        print(f"DIFF {d.config}/{d.file}: max relative deviation {d.deviation:.3g}")
    worst = max((d.deviation for d in diffs), default=0.0)
    print(f"{len(CONFIGS)} entries, {len(diffs)} differing files, "
          f"max relative deviation {worst:.3g}, src/dropgraph {lines[0]:,} -> {lines[1]:,} lines")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
