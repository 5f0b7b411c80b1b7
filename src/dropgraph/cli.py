"""Command-line front end.

Subcommands:

* ``run <config>`` - execute the configured experiment over its seeds,
  write per-run records (JSONL), a summary CSV, and the dataset cache.
* ``sweep <config> --axis <name> --values <list>`` - run the cross product
  of one regularizer axis against the shared seeds; emit a tidy long-format
  CSV for plotting.  ``--axis x`` sweeps ``reg.x`` for every ``reg.*`` key:
  ``kind`` compares the regularizers, and the adjacency axis is
  ``adjacency``.  Each value writes its own ``runs_<axis>_<value>.jsonl``, so
  two values that parse to the same value (``0.1,0.10``) are a config error.
* ``verify`` - run the invariant suite and print a pass/fail table, after
  one line naming the conv backend, the tensor dtype and the numpy version.

``--seeds``, ``--out-dir``, ``--threads`` and each sweep value are applied as
``key = value`` lines appended to the config file's text, so they pass the
same parser and checks as the file itself; a bad override is a config error,
and so is a ``#`` or a line break in one (it would end the value early).

``run`` and ``sweep`` each generate the dataset twice: for the dataset
cache, and in ``train.multi_seed``, which shares its copy among every run.
The cache's generation stays until the cache goes (ROADMAP item 9): the
benchmark's probes require both generators to run, and a process-wide memo
would let later commands in one process skip generation.

``main`` first fixes two glibc malloc thresholds (``_keep_freed_memory``).
glibc returns a free heap top above its trim threshold to the kernel, and it
raises its mmap threshold to the largest mapped block freed so far, so how
much of a training step's freed arrays stays mapped depends on the largest
array the run happened to free.  What is unmapped at the end of one step is
faulted back in, page by page, by the next.  With the mmap threshold at
32 MB and the trim threshold at 1 GB, freed arrays stay mapped for reuse.

Exit codes: 0 success, 1 verification failure, 2 configuration/parse error
(an unreadable or undecodable config file, a negative seed or an output
directory that cannot be made included), 3 training divergence.  A config
error prints one ``error: <key or section>: <message>`` line.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import _conv
from .config import _FIELD_BY_KEY, ExperimentConfig, _format_value, config_to_text, parse_config
from .data import gen_images, gen_sbm, save_graph_dataset, save_image_dataset
from .errors import ConfigError, DropGraphError
from .tensor import Tensor
from .train import multi_seed, summarize_records, write_run_records
from .verify import CHECK_NAMES, run_checks

# Sweep axis ``x`` is config key ``reg.x``.
SWEEP_AXES = tuple(key.removeprefix("reg.") for key in _FIELD_BY_KEY if key.startswith("reg."))


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_memory():
    """Keep freed arrays below 32 MB mapped for reuse; a no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


@contextmanager
def _usage_errors(key: str):
    """An OSError reading the config file or making the output directory: exit 2."""
    try:
        yield
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {exc.filename}") from None
    except OSError as exc:
        raise ConfigError(f"{key}: {exc.strerror}: {exc.filename}") from None


def _check_override(key: str, value: str) -> str:
    """A command-line value that stays one config value: no comment, no line break."""
    if "#" in value or "".join(value.splitlines()) != value:
        raise ConfigError(f"{key}: '#' and line breaks are not allowed in a "
                          f"command-line value, got {value!r}")
    return value


def _config_text(args) -> str:
    """The config file's text with the command-line overrides appended."""
    with _usage_errors("config"):
        try:
            lines = [Path(args.config).read_text(encoding="utf-8")]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config: not UTF-8 text (byte {exc.start}): "
                              f"{args.config}") from None
    for key, value in (("seeds", args.seeds), ("out_dir", args.out_dir),
                       ("threads", args.threads)):
        if value is not None:
            lines.append(f"{key} = {_check_override(key, value)}")
    return "\n".join(lines)


def _start(cfg: ExperimentConfig, command: str) -> Path:
    """Make the output directory, print the header line and write the dataset cache."""
    out_dir = Path(cfg.out_dir)
    with _usage_errors("out_dir"):
        out_dir.mkdir(parents=True, exist_ok=True)
    print(f"# dropgraph {command} | task={cfg.task} | config={cfg.config_hash()} "
          f"| seeds={','.join(str(s) for s in cfg.seeds)} | data.seed={cfg.data_seed}")
    _write_dataset_cache(cfg, out_dir)
    return out_dir


def _write_dataset_cache(cfg: ExperimentConfig, out_dir: Path):
    spec = cfg.data_spec()
    if cfg.task == "image":
        save_image_dataset(gen_images(spec), out_dir / "dataset.dgd")
    else:
        save_graph_dataset(gen_sbm(spec), spec, out_dir / "dataset.dgd")


_SUMMARY_COLUMNS = ("row_type,label,config_hash,seed,status,"
                    "final_train_acc,final_val_acc,generalization_gap")


def _summary_rows(label: str, records, summary):
    rows = []
    for r in records:
        rows.append(f"run,{label},{r.config_hash},{r.seed},{r.status},"
                    f"{r.final_train_acc!r},{r.final_val_acc!r},{r.generalization_gap!r}")
    chash = records[0].config_hash if records else "-"
    for stat in ("median", "min", "max"):
        rows.append(
            f"{stat},{label},{chash},-,-,"
            f"{summary['final_train_acc'][stat]!r},"
            f"{summary['final_val_acc'][stat]!r},"
            f"{summary['generalization_gap'][stat]!r}"
        )
    return rows


def cmd_run(args) -> int:
    cfg = parse_config(_config_text(args))
    out_dir = _start(cfg, "run")
    (out_dir / "config.txt").write_text(config_to_text(cfg), encoding="utf-8")
    records = multi_seed([cfg], cfg.seeds, threads=cfg.threads)[0]
    write_run_records(out_dir / "runs.jsonl", cfg, records)
    summary = summarize_records(records)
    lines = [_SUMMARY_COLUMNS] + _summary_rows("run", records, summary)
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    med = summary["final_val_acc"]["median"]
    gap = summary["generalization_gap"]["median"]
    print(f"median val_acc={med:.4f} gap={gap:.4f} over {len(records)} runs "
          f"-> {out_dir / 'summary.csv'}")
    if any(r.status != "ok" for r in records):
        print("error: at least one run diverged", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args) -> int:
    text = _config_text(args)
    cfg = parse_config(text)
    key = f"reg.{args.axis}"
    raw_values = [v.strip() for v in _check_override("--values", args.values).split(",")
                  if v.strip()]
    if not raw_values:
        raise ConfigError("--values: no value given")
    sweep_cfgs = [parse_config(f"{text}\n{key} = {v}") for v in raw_values]
    name = _FIELD_BY_KEY[key]
    values = [getattr(c, name) for c in sweep_cfgs]
    if len(set(values)) < len(values):
        raise ConfigError(f"--values: {raw_values} parse to repeated values {values}")
    labels = [_format_value(name, v) for v in values]  # as config.txt spells them
    out_dir = _start(cfg, f"sweep --axis {args.axis}")
    groups = multi_seed(sweep_cfgs, cfg.seeds, threads=cfg.threads)
    long_rows = [f"{args.axis},seed,status,final_train_acc,final_val_acc,generalization_gap"]
    diverged = False
    for value, sub_cfg, records in zip(labels, sweep_cfgs, groups):
        write_run_records(out_dir / f"runs_{args.axis}_{value}.jsonl", sub_cfg, records)
        for r in records:
            diverged |= r.status != "ok"
            long_rows.append(f"{value},{r.seed},{r.status},{r.final_train_acc!r},"
                             f"{r.final_val_acc!r},{r.generalization_gap!r}")
        med = summarize_records(records)["final_val_acc"]["median"]
        print(f"{args.axis}={value}: median val_acc={med:.4f}")
    (out_dir / "sweep.csv").write_text("\n".join(long_rows) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'sweep.csv'} ({len(long_rows) - 1} rows)")
    return 3 if diverged else 0


def cmd_verify(args) -> int:
    names = args.check or None
    print(f"backend {_conv.BACKEND}  dtype {Tensor(0.0).data.dtype}  numpy {np.__version__}")
    results = run_checks(names)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dropgraph",
        description="Graph-reasoning feature-map regularization experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--seeds", help="comma list overriding the config's seeds")
        p.add_argument("--out-dir", help="output directory override")
        p.add_argument("--threads", help="worker processes for independent runs")

    p_run = sub.add_parser("run", help="run one experiment over its seeds")
    p_run.add_argument("config")
    add_shared(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one regularizer axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma list of axis values")
    add_shared(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--check", action="append", choices=CHECK_NAMES,
                          help="run only the named check (repeatable)")
    p_verify.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    _keep_freed_memory()
    try:
        return args.fn(args)
    except DropGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
