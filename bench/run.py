"""Benchmark of `dropgraph run`, driven in-process through ``cli.main``.

    python3 bench/run.py --workload image-train --seed 1 --seconds 40 --trace 0

Run from anywhere; it works in the checkout that holds this file, imports
the program from its ``src/`` and writes only under ``.bench_out/``.  One
run repeats the workload's ``dropgraph run`` invocation for about
``--seconds`` seconds (at least once) and prints one line per metric, then
one JSON object as the last line.  ``--trace 0`` reports the end-to-end
metrics from untraced invocations; ``--trace 1`` alternates untraced and
traced invocations and reports the per-layer metrics, the trace overhead,
and writes the spans to ``.bench_out/<workload>-seed<n>-spans.jsonl``.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one thread keeps runs comparable on a
# shared machine and is <= nproc everywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from probes import BenchError, Patches, PhaseClock, Tracer, span_totals  # noqa: E402
from stats import median, percentile, records_digest, samples_beyond  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")  # relative to ROOT, so records do not depend on the checkout path
PROGRAM_MODULES = ("cli", "train", "backbones", "nn", "_conv", "tensor", "regularizers", "data")
IMPORT_SAMPLES = 3
STEP_PERCENTILES = (50, 90)

END_TO_END = {  # name -> unit
    "run_wall_s": "s", "setup_s": "s", "train_steps_per_s": "1/s",
    "step_ms_p50": "ms", "step_ms_p90": "ms", "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MB", "val_acc": "fraction", "ok_rate": "fraction",
}
PER_LAYER = {
    "conv.forward_s": "s", "conv.dx_s": "s", "conv.dw_s": "s",
    "conv.forward_gflops": "GFLOP/s", "conv.dx_gflops": "GFLOP/s", "conv.dw_gflops": "GFLOP/s",
    "conv.cols_mb_per_step": "MB", "conv.cols_mb_peak": "MB",
    "nn.conv2d_self_s": "s", "nn.batchnorm_train_s": "s",
    "tensor.backward_s": "s", "tensor.backward_self_s": "s",
    "tensor.tape_nodes_per_step": "count", "tensor.matmul_nodes_per_step": "count",
    "regularizers.forward_s": "s", "regularizers.mask_s": "s", "regularizers.vertices_s": "s",
    "regularizers.adjacency_s": "s", "regularizers.generator_s": "s",
    "regularizers.pool_expand_s": "s", "regularizers.graphs_per_step": "count",
    "regularizers.vertices_per_graph": "count", "regularizers.drop_fraction_ratio": "ratio",
    "backbones.train_forward_s": "s", "backbones.eval_forward_s": "s",
    "train.eval_s": "s", "train.sgd_step_s": "s",
    "data.gen_s": "s", "cli.dataset_cache_s": "s", "cli.dataset_cache_mb": "MB",
    "proc.sys_s": "s", "proc.minflt_per_step": "count", "proc.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}


# -- the program ---------------------------------------------------------------------


def load_program():
    """Import the program from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    package = src / "dropgraph"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"program source not found: {package}/__init__.py")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    dg = importlib.import_module("dropgraph")
    if Path(dg.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported dropgraph from {dg.__file__}, not from {package}")
    for name in PROGRAM_MODULES:
        importlib.import_module(f"dropgraph.{name}")
    return dg


def import_seconds() -> float:
    """Median wall time of importing the program in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import dropgraph.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=False)
        if done.returncode != 0:
            raise BenchError(f"importing the program failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return median(samples)


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_revision() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(dg, workload, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "conv_backend": dg._conv.BACKEND,
        "git_revision": git_revision(),
        "workload": workload.name,
        "seed": seed,
        "train_seeds": list(workload.seeds(seed)),
    }


# -- one invocation ----------------------------------------------------------------------


def invoke(dg, workload, seeds, config_path: Path, out_dir: Path, probe) -> dict:
    """Run `dropgraph run` once under ``probe`` and collect what it left behind."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    patches = Patches()
    probe.install(dg, patches)
    argv = ["run", str(config_path), "--out-dir", str(out_dir),
            "--seeds", ",".join(str(s) for s in seeds)]
    printed = io.StringIO()
    error = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            rc = dg.cli.main(argv)
    except Exception:  # a crash of the program is a failed run, not a benchmark error
        rc, error = None, traceback.format_exc()
    finally:
        end = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_SELF)
        patches.restore()
    inv = {"rc": rc, "error": error, "start": start, "end": end, "wall_s": end - start,
           "sys_s": after.ru_stime - before.ru_stime,
           "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
           "minflt": after.ru_minflt - before.ru_minflt, "stdout": printed.getvalue()}
    inv.update(check_records(out_dir / "runs.jsonl", len(seeds)))
    completed = rc == 0 and error is None
    if not completed:
        inv["problems"].append(error or f"dropgraph run exited with code {rc}")
    # A nonzero exit fails every seed of the invocation.
    inv["failed"] = sum(r["status"] != "ok" for r in inv["runs"]) if completed else len(seeds)
    cache = out_dir / "dataset.dgd"
    inv["cache_mb"] = cache.stat().st_size / 1e6 if cache.is_file() else 0.0
    inv["ok"] = not inv["problems"]
    if inv["ok"]:
        patches.check_usage(workload.unused)
    return inv


def check_records(path: Path, expected_runs: int) -> dict:
    """Correctness gate on runs.jsonl: every run ok, every epoch loss finite."""
    if not path.is_file():
        return {"problems": ["no runs.jsonl"], "runs": [], "digest": None}
    lines = path.read_text(encoding="utf-8").splitlines()
    runs = [obj for obj in map(json.loads, lines) if obj["type"] == "run"]
    problems = []
    if len(runs) != expected_runs:
        problems.append(f"{len(runs)} run records, expected {expected_runs}")
    for r in runs:
        if r["status"] != "ok":
            problems.append(f"seed {r['seed']}: status {r['status']}")
        for e in r["epochs"]:
            if not (math.isfinite(e["train_loss"]) and math.isfinite(e["val_loss"])):
                problems.append(f"seed {r['seed']} epoch {e['epoch']}: non-finite loss")
    return {"problems": problems, "runs": runs, "digest": records_digest(lines)}


# -- a benchmark run -------------------------------------------------------------------


def run_benchmark(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload's invocation for about ``seconds``; return the report."""
    dg = load_program()
    env = environment(dg, workload, seed)
    base = OUT / workload.name
    base.mkdir(parents=True, exist_ok=True)
    config_path = base / "input.cfg"
    config_path.write_text(workload.config_text(seed), encoding="utf-8")
    setup_import_s = import_seconds()

    # Untraced and traced invocations alternate in a trace run, untraced first.
    invocations, tracers = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(invocations) % 2 == 1
        probe = Tracer() if traced else PhaseClock()
        inv = invoke(dg, workload, workload.seeds(seed), config_path, base / "run", probe)
        inv["traced"] = traced
        if traced:
            tracers.append(probe)
            if inv["ok"]:
                inv["layers"] = layer_values(probe, inv["cache_mb"])
        else:
            inv["phases"] = probe.phases(inv["start"], inv["end"])
        invocations.append(inv)
        if not inv["ok"]:
            break
        if trace and not tracers:
            continue
        next_traced = trace and len(invocations) % 2 == 1
        same_kind = [i["wall_s"] for i in invocations if i["traced"] == next_traced]
        if time.perf_counter() - start + median(same_kind) > seconds:
            break

    attempted = len(workload.seeds(seed)) * len(invocations)
    failed = sum(i["failed"] for i in invocations)
    problems = [p for i in invocations for p in i["problems"]]
    digests = sorted({i["digest"] for i in invocations})
    if len(digests) > 1:
        problems.append(f"invocations disagree on the records: digests {digests}")
    report = {"env": env, "config": workload.config_text(seed),
              "import_s": setup_import_s, "digest": digests[0] if len(digests) == 1 else None,
              "problems": problems, "correct": not problems, "attempted": attempted,
              "failed": failed}
    plain = [i for i in invocations if not i["traced"] and i["ok"]]
    if trace:
        traced_ok = [i for i in invocations if i["traced"] and i["ok"]]
        report["metrics"], report["samples"] = per_layer_metrics(plain, traced_ok)
        write_spans(OUT / f"{workload.name}-seed{seed}-spans.jsonl", tracers)
    else:
        report["metrics"], report["samples"] = end_to_end_metrics(
            plain, setup_import_s, attempted, failed)
    for i in invocations:
        i.pop("runs")
    report["invocations"] = invocations
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8")
    return report


def end_to_end_metrics(plain, import_s: float, attempted: int, failed: int):
    values = {"ok_rate": 1.0 - failed / attempted}
    samples = {"invocations": len(plain)}
    if not plain:
        return values, samples
    phases = [i["phases"] for i in plain]
    steps = [s for p in phases for s in p["steps_s"]]
    values["run_wall_s"] = median([p["wall_s"] for p in phases])
    values["setup_s"] = import_s + median([p["setup_s"] for p in phases])
    values["train_steps_per_s"] = median([len(p["steps_s"]) / sum(p["steps_s"]) for p in phases])
    for q in STEP_PERCENTILES:
        values[f"step_ms_p{q}"] = 1e3 * percentile(steps, q)
        samples[f"step_ms_p{q}"] = {"steps": len(steps), "beyond": samples_beyond(len(steps), q)}
    values["eval_samples_per_s"] = median([p["eval_samples"] / p["eval_s"] for p in phases])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values["val_acc"] = median([r["final_val_acc"] for r in plain[0]["runs"]])
    samples["eval_samples"] = plain[0]["phases"]["eval_samples"]
    return values, samples


def layer_values(tracer: Tracer, cache_mb: float) -> dict:
    """Per-layer metrics of one traced invocation."""
    totals = span_totals(tracer.spans)
    c = tracer.counters

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = totals.get("train.sgd_step", {}).get("calls", 0)
    v = {}
    for kind in ("forward", "dx", "dw"):
        v[f"conv.{kind}_s"] = total(f"conv.{kind}")
        v[f"conv.{kind}_gflops"] = ratio(c[f"conv.{kind}_flops"], total(f"conv.{kind}")) / 1e9
    v["conv.cols_mb_per_step"] = ratio(c["conv.train_cols_bytes"], steps) / 1e6
    v["conv.cols_mb_peak"] = c["conv.cols_bytes_peak"] / 1e6
    v["nn.conv2d_self_s"] = totals.get("nn.conv2d", {}).get("self_s", 0.0)
    v["nn.batchnorm_train_s"] = total("nn.batchnorm_train")
    v["tensor.backward_s"] = total("tensor.backward")
    v["tensor.backward_self_s"] = totals.get("tensor.backward", {}).get("self_s", 0.0)
    v["tensor.tape_nodes_per_step"] = ratio(c["tensor.tape_nodes"], c["tensor.backward_calls"])
    v["tensor.matmul_nodes_per_step"] = ratio(c["tensor.matmul_nodes"], c["tensor.backward_calls"])
    for part in ("forward", "mask", "vertices", "adjacency", "generator", "pool_expand"):
        v[f"regularizers.{part}_s"] = total(f"regularizers.{part}")
    v["regularizers.graphs_per_step"] = ratio(c["regularizers.graphs"], steps)
    v["regularizers.vertices_per_graph"] = ratio(c["regularizers.vertices"], c["regularizers.graphs"])
    v["regularizers.drop_fraction_ratio"] = ratio(c["regularizers.dropped_sum"],
                                                  c["regularizers.rho_sum"])
    v["backbones.train_forward_s"] = total("backbones.train_forward")
    v["backbones.eval_forward_s"] = total("backbones.eval_forward")
    v["train.eval_s"] = total("train.eval")
    v["train.sgd_step_s"] = total("train.sgd_step")
    v["data.gen_s"] = total("data.gen")
    v["cli.dataset_cache_s"] = total("cli.dataset_cache")
    v["cli.dataset_cache_mb"] = cache_mb
    v["steps"] = steps
    return v


def per_layer_metrics(plain, traced):
    """Layer metrics: spans from the traced invocations, process counters from the rest."""
    if not traced or not plain:
        return {}, {"invocations": 0}
    per_inv = [i["layers"] for i in traced]
    values = {name: median([v[name] for v in per_inv]) for name in per_inv[0] if name != "steps"}
    steps = per_inv[0]["steps"]
    values["proc.sys_s"] = median([i["sys_s"] for i in plain])
    values["proc.minflt_per_step"] = median([i["minflt"] / steps for i in plain]) if steps else 0.0
    values["proc.cpu_per_wall"] = median([i["cpu_s"] / i["wall_s"] for i in plain])
    values["trace.overhead_ratio"] = (median([i["wall_s"] for i in traced])
                                      / median([i["wall_s"] for i in plain]))
    return values, {"traced_invocations": len(traced), "untraced_invocations": len(plain),
                    "steps_per_invocation": steps}


def write_spans(path: Path, tracers):
    with open(path, "w", encoding="utf-8") as fh:
        for k, tracer in enumerate(tracers):
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"invocation": k, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# -- command line ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.chdir(ROOT)
    try:
        report = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print(f"# records digest {report['digest']}  samples {json.dumps(report['samples'])}")
    for problem in report["problems"]:
        print(f"# FAILED: {problem.splitlines()[-1] if problem else problem}")
    for name, unit in units.items():
        if name in report["metrics"]:
            print(f"{name:36s} {report['metrics'][name]:14.6g} {unit}")
    metrics = {name: {"value": report["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in report["metrics"]}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
