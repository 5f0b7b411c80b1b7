"""Probes that time `dropgraph run` from outside the program.

Two recorders, both installed by patching module attributes of the
imported program and restored afterwards:

* ``PhaseClock`` (untraced runs) stamps only the trainer's phase
  boundaries: dataset generation, eval entry and exit, and the end of every
  ``SGD.step``.  Step, eval and set-up time are intervals between stamps.
* ``Tracer`` (traced runs) wraps the public functions of each module and
  records spans ``(name, start, end, parent)`` in memory, plus counters
  taken at the same boundaries (FLOPs, im2col bytes, tape size, graph and
  mask statistics).

Every patched name must exist, and a workload declares which names it must
leave unused; a name that is missing, unused where it should run, or run
where it should stay unused fails the benchmark instead of reporting zero.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

from stats import conv_dw_counts, conv_dx_counts, conv_forward_counts


class BenchError(RuntimeError):
    """The benchmark cannot measure this program as specified."""


# -- patching ----------------------------------------------------------------------


class Patches:
    """Replaces attributes on modules and classes; ``restore`` undoes all of them."""

    def __init__(self):
        self._saved = []
        self.calls = Counter()  # site -> calls while patched

    def wrap(self, owner, attr: str, make_wrapper):
        """Replace ``owner.attr`` by ``make_wrapper(original)``, counting calls."""
        site = _site(owner, attr)
        if attr not in vars(owner):
            raise BenchError(f"cannot patch {site}: the program has no such name")
        original = vars(owner)[attr]
        inner = make_wrapper(original)
        calls = self.calls

        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls[site] += 1
            return inner(*args, **kwargs)

        calls[site] += 0
        self._saved.append((owner, attr, original))
        setattr(owner, attr, counted)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def check_usage(self, unused: frozenset):
        """Fail unless exactly the patched sites outside ``unused`` were called."""
        problems = []
        for site, n in sorted(self.calls.items()):
            if site in unused and n:
                problems.append(f"{site} ran {n} times but this workload must not reach it")
            elif site not in unused and not n:
                problems.append(f"{site} was never called")
        if problems:
            raise BenchError("; ".join(problems))


def _site(owner, attr: str) -> str:
    """Dotted name of a patch site relative to the package, e.g. ``train.SGD.step``."""
    if isinstance(owner, type):
        prefix = f"{owner.__module__}.{owner.__qualname__}"
    else:
        prefix = owner.__name__
    return f"{prefix}.{attr}".removeprefix("dropgraph.")


def _args(fn, *names):
    """Getter for the named arguments of ``fn`` from a call's (args, kwargs)."""
    sig = inspect.signature(fn)
    missing = [n for n in names if n not in sig.parameters]
    if missing:
        raise BenchError(f"{fn.__qualname__} has no parameter {missing}")

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments[n] for n in names)

    return get


# -- untraced: phase boundaries ------------------------------------------------------


class PhaseClock:
    """Timestamps at dataset generation, eval and ``SGD.step`` boundaries."""

    def __init__(self):
        self.events = []  # (kind, time, samples)

    def install(self, dg, patches: Patches):
        clock, events = time.perf_counter, self.events

        def after(kind):
            def make(fn):
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    events.append((kind, clock(), 0))
                    return out
                return wrapper
            return make

        def evaluate(samples_arg):
            def make(fn):
                get = _args(fn, samples_arg)

                def wrapper(*args, **kwargs):
                    n = len(get(args, kwargs)[0])
                    events.append(("eval_start", clock(), n))
                    out = fn(*args, **kwargs)
                    events.append(("eval_end", clock(), n))
                    return out
                return wrapper
            return make

        patches.wrap(dg.train, "gen_images", after("gen_end"))
        patches.wrap(dg.train, "gen_sbm", after("gen_end"))
        patches.wrap(dg.train, "_evaluate_image", evaluate("xs"))
        patches.wrap(dg.train, "_evaluate_graph", evaluate("idx"))
        patches.wrap(dg.train.SGD, "step", after("step_end"))

    def phases(self, start: float, end: float) -> dict:
        """Split the interval [start, end] into steps, evals and the rest.

        A step lasts from the previous boundary (step end, eval exit or
        dataset generation) to the end of its ``SGD.step``; everything that
        is neither a step nor an eval is set-up.
        """
        steps, eval_s, eval_samples = [], 0.0, 0
        prev, eval_open = start, None
        for kind, t, n in self.events:
            if kind == "step_end":
                steps.append(t - prev)
            elif kind == "eval_start":
                eval_open = t
            elif kind == "eval_end":
                eval_s += t - eval_open
                eval_samples += n
            prev = t
        wall = end - start
        return {"wall_s": wall, "steps_s": steps, "eval_s": eval_s,
                "eval_samples": eval_samples,
                "setup_s": wall - sum(steps) - eval_s}


# -- traced: spans and counters ----------------------------------------------------


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counters."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.open_names = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        self.open_names[name] += 1
        return self._stack[-1]

    def close(self, index: int):
        if not self._stack or self._stack[-1] != index:
            raise BenchError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.open_names[span[0]] -= 1

    def span(self, name, observe=None):
        """Wrapper factory: time calls as span ``name``; then ``observe`` the call.

        ``name`` may be a function of the call's positional arguments.
        ``observe(tracer, args, kwargs, result)`` runs after the span closes,
        so the counters it updates cost no span time.
        """
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                index = tracer.open(name(args) if callable(name) else name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                if observe is not None:
                    observe(tracer, args, kwargs, out)
                return out
            return wrapper
        return make

    def install(self, dg, patches: Patches):
        """Wrap the layer entry points of the program package ``dg``."""
        span = self.span
        patches.wrap(dg.cli, "_write_dataset_cache", span("cli.dataset_cache"))
        for owner in (dg.cli, dg.train):
            patches.wrap(owner, "gen_images", span("data.gen"))
            patches.wrap(owner, "gen_sbm", span("data.gen"))
        patches.wrap(dg.train, "_evaluate_image", span("train.eval"))
        patches.wrap(dg.train, "_evaluate_graph", span("train.eval"))
        patches.wrap(dg.train.SGD, "step", span("train.sgd_step"))

        def forward_name(args):
            return "backbones.train_forward" if args[0].training else "backbones.eval_forward"

        patches.wrap(dg.backbones.TinyResNet, "forward", span(forward_name))
        patches.wrap(dg.backbones.TwoLayerGcn, "forward", span(forward_name))
        patches.wrap(dg.nn, "conv2d", span("nn.conv2d"))
        patches.wrap(dg.nn, "batchnorm_train", span("nn.batchnorm_train"))

        def conv_span(kind, names, counts):
            def make(fn):
                get = _args(fn, *names)

                def observe(tracer, args, kwargs, out):
                    flops, cols = counts(*get(args, kwargs))
                    tracer.counters[f"conv.{kind}_flops"] += flops
                    if not tracer.open_names["train.eval"]:
                        tracer.counters["conv.train_cols_bytes"] += cols
                    tracer.counters["conv.cols_bytes_peak"] = max(
                        tracer.counters["conv.cols_bytes_peak"], cols)
                return span(f"conv.{kind}", observe)(fn)
            return make

        patches.wrap(dg._conv, "conv_forward", conv_span(
            "forward", ("xp", "weights", "oh", "ow"),
            lambda xp, w, oh, ow: conv_forward_counts(xp.shape, w.shape, oh, ow)))
        patches.wrap(dg._conv, "conv_dx_full", conv_span(
            "dx", ("gp", "weights"), lambda gp, w: conv_dx_counts(gp.shape, w.shape)))
        patches.wrap(dg._conv, "conv_dw", conv_span(
            "dw", ("xp", "g", "k"), lambda xp, g, k: conv_dw_counts(xp.shape, g.shape, k)))

        def backward(fn):
            timed = span("tensor.backward")(fn)

            def wrapper(loss, *args, **kwargs):
                nodes, matmuls = tape_size(loss)
                self.counters["tensor.tape_nodes"] += nodes
                self.counters["tensor.matmul_nodes"] += matmuls
                self.counters["tensor.backward_calls"] += 1
                return timed(loss, *args, **kwargs)
            return wrapper

        patches.wrap(dg.tensor.Tensor, "backward", backward)

        def mask(fn):
            get = _args(fn, "rho")

            def observe(tracer, args, kwargs, out):
                tracer.counters["regularizers.dropped_sum"] += out.dropped_fraction
                tracer.counters["regularizers.rho_sum"] += get(args, kwargs)[0]
            return span("regularizers.mask", observe)(fn)

        def adjacency(fn):
            get = _args(fn, "v")

            def observe(tracer, args, kwargs, out):
                tracer.counters["regularizers.graphs"] += 1
                tracer.counters["regularizers.vertices"] += get(args, kwargs)[0].count
            return span("regularizers.adjacency", observe)(fn)

        reg = dg.regularizers
        patches.wrap(reg, "dropgraph_forward", span("regularizers.forward"))
        for owner in (reg, dg.backbones):
            patches.wrap(owner, "sample_block_mask", mask)
        patches.wrap(reg, "sample_vertices", span("regularizers.vertices"))
        patches.wrap(reg, "build_adjacency", adjacency)
        patches.wrap(reg, "generate_graph_distortions", span("regularizers.generator"))
        patches.wrap(reg, "pool_expand_apply", span("regularizers.pool_expand"))


def tape_size(root) -> tuple[int, int]:
    """(nodes, matmul nodes) reachable from ``root`` through tape parents."""
    seen = {id(root)}
    stack = [root]
    matmuls = 0
    while stack:
        node = stack.pop()
        matmuls += node._op == "matmul"
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), matmuls


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def span_totals(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} over a list of closed spans."""
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return dict(totals)
