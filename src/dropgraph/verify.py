"""Release-gate invariant suite.

Each check is self-contained, seeded, and returns pass/fail with a detail
string; the CLI ``verify`` command prints one line per check with its
runtime.  The checks mirror the structural guarantees the regularizer is
built on: gradient soundness against central differences, the exact
inference-skip identity, degeneration to pure block masking under a zero
adjacency, the adjacency matrix's algebraic properties, Monte-Carlo mask
rate calibration, and the scheduler contract.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .backbones import (
    TinyResNet,
    TinyResNetConfig,
    TwoLayerGcn,
    TwoLayerGcnConfig,
    apply_checkpoint,
    save_checkpoint,
)
from .data import SbmGraphSpec, gen_sbm
from .gradcheck import grad_check, relu_margin
from .nn import batchnorm_train, conv2d, cross_entropy, global_avg_pool
from .regularizers import (
    GraphGeneratorParams,
    RegularizerConfig,
    VertexSet,
    build_adjacency,
    dropgraph_forward,
    graph_reasoning,
    sample_block_mask,
    schedule_rho,
)
from .rng import RngStream
from .tensor import Tensor, matmul, no_grad, relu, softmax_rows

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _vertices_from(values) -> VertexSet:
    n = values.shape[0]
    idx = np.column_stack([np.zeros(n, dtype=np.intp),
                           np.arange(n, dtype=np.intp),
                           np.zeros(n, dtype=np.intp)])
    return VertexSet(indices=idx, values=Tensor(values))


# -- criterion 1: gradient soundness ---------------------------------------------


def check_gradient_soundness():
    rng = np.random.default_rng(101)
    worst = 0.0
    instances = 0

    def run(f, x):
        nonlocal worst, instances
        err = grad_check(f, x)
        worst = max(worst, err)
        instances += 1
        return err

    def away(shape, margin=0.05):
        x = rng.normal(size=shape)
        return x + np.sign(x) * margin

    # primitives at 100 random points each, inputs away from relu kinks
    prims = [
        lambda t: (t * t).sum(),
        lambda t: (t / 1.7 + t * 0.3).sum(),
        lambda t: relu(t).sum(),
        lambda t: ((t * t).reshape(2, 3).mean(axis=1) ** 2).sum(),
        lambda t: ((t * t + 1.0) ** 0.5).sum(),
        lambda t: (softmax_rows(t.reshape(2, 3)) ** 2).sum(),
    ]
    for f in prims:
        for _ in range(100):
            x = Tensor(away((6,), 0.02), requires_grad=True)
            if grad_check(f, x) > 1e-5:
                return False, f"primitive gradient error above 1e-5 after {instances} instances"

    # layers: ~10 instances each
    for _ in range(10):
        k = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        run(lambda t: (conv2d(t, k, b, 2, 1) ** 2).sum(), x)
        run(lambda t: (conv2d(x, t, b, 1, 1) ** 2).sum(), k)
        g = Tensor(rng.normal(size=3) + 1.5, requires_grad=True)
        be = Tensor(rng.normal(size=3), requires_grad=True)
        run(lambda t: (batchnorm_train(t, g, be)[0] ** 2).sum(), x)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        xl = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        run(lambda t: (matmul(t, w) ** 2).mean(), xl)
        labels = rng.integers(0, 4, size=3)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        run(lambda t: cross_entropy(t, labels), logits)
        run(lambda t: (global_avg_pool(t) ** 2).sum(), x)
        vals = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        aw = Tensor(rng.normal(size=(4, 4)) / 4)
        ww = Tensor(rng.normal(size=(4, 4)))
        run(lambda t: (graph_reasoning(t, aw, ww) ** 2).sum(), vals)

    if worst > 1e-5:
        return False, f"layer gradient error {worst:.2e} above 1e-5"

    # full train-mode regularizer forward under pinned RNG, x and params
    cfg = RegularizerConfig(alpha=0.5, rho=0.4, block_size=3,
                            scheduler="constant")
    checked = 0
    attempt = 0
    while checked < 10 and attempt < 60:
        attempt += 1
        params = GraphGeneratorParams(4, RngStream(500 + attempt, ("p",)))
        x = Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)

        def f(t, a=attempt):
            return (dropgraph_forward(t, cfg, params, cfg.rho,
                                      RngStream(900 + a, ("fw",))) ** 2).sum()

        out, margin = relu_margin(f, x)
        if margin < 1e-3:
            continue
        # An instance whose parameter gradients are all zero checks nothing.
        out.backward()
        if not all(p.grad is not None and np.any(p.grad) for p in params.parameters()):
            continue
        err = run(f, x)
        for p in params.parameters():
            # grad_check perturbs p.data in place, which the next f(x) reads.
            err = max(err, run(lambda _: f(x), p))
        checked += 1
        if err > 1e-5:
            return False, f"full-regularizer gradient error {err:.2e} above 1e-5"
    if checked < 10:
        return False, "could not find enough kink-free regularizer instances"
    return True, f"{instances} layer/full instances + 600 primitive points, worst {worst:.2e}"


# -- criterion 2: inference-skip identity -----------------------------------------


def check_inference_skip_identity():
    rng = np.random.default_rng(202)
    kinds = [
        RegularizerConfig(kind="dropgraph"),
        RegularizerConfig(kind="dropgraph", adjacency="uniform"),
        RegularizerConfig(kind="dropgraph", adjacency="learned"),
        RegularizerConfig(kind="dropgraph", generator="avg_pool"),
        RegularizerConfig(kind="dropblock"),
        RegularizerConfig(kind="dropout"),
        RegularizerConfig(kind="spatial_dropout"),
        RegularizerConfig(kind="pgr"),  # train-only arm
    ]
    cnn_cfg = TinyResNetConfig(image_size=16)
    with tempfile.TemporaryDirectory(prefix="dropgraph_verify_") as tmp_dir:
        for i, reg_cfg in enumerate(kinds):
            reg = TinyResNet(cnn_cfg, RngStream(7, ("init",)), reg_cfg)
            # a few training steps so parameters and BN stats move
            for step in range(3):
                x = Tensor(rng.normal(size=(4, 1, 16, 16)))
                out = reg(x, RngStream(11, ("step", step, i)), schedule_rho(reg_cfg, 10, 100))
                loss = cross_entropy(out, rng.integers(0, 4, size=4))
                loss.backward()
                for p in reg.parameters():
                    if p.grad is not None:
                        p.data = p.data - 0.05 * p.grad
                        p.grad = None
            bare = TinyResNet(cnn_cfg, RngStream(7, ("init",)))
            path = os.path.join(tmp_dir, f"state_{i}.ckpt")
            save_checkpoint(reg, path)
            # The bare model loads its own names; the regularizer's extra
            # parameters in the checkpoint are left unread.
            apply_checkpoint(bare, path)
            reg.eval()
            bare.eval()
            for _ in range(5):
                x = Tensor(rng.normal(size=(2, 1, 16, 16)))
                with no_grad():
                    a = reg(x)
                    b = bare(x)
                if not np.array_equal(a.data, b.data):
                    return False, f"cnn eval outputs differ for kind={reg_cfg.kind}"
    # graph backbone
    g = gen_sbm(SbmGraphSpec(nodes=120, labeled_per_class=10, seed=3))
    for kind in ("dropgraph", "dropout"):
        reg_cfg = RegularizerConfig(kind=kind, block_size=1, alpha=0.15)
        gm = TwoLayerGcn(TwoLayerGcnConfig(in_features=16), RngStream(9, ("g",)), reg_cfg)
        bare = TwoLayerGcn(TwoLayerGcnConfig(in_features=16), RngStream(9, ("g",)))
        gm.eval()
        bare.eval()
        with no_grad():
            if not np.array_equal(gm(g).data, bare(g).data):
                return False, f"gcn eval outputs differ for kind={kind}"
    return True, f"{len(kinds)} cnn variants + 2 gcn variants bit-identical in eval"


# -- criterion 3: dropblock degeneration ---------------------------------------------


def check_dropblock_degeneration():
    rng = np.random.default_rng(303)
    params = GraphGeneratorParams(8, RngStream(31, ("p",)))
    cfg_zero = RegularizerConfig(adjacency="zero")
    cfg_none = RegularizerConfig(generator="none")
    for i in range(1000):
        x = Tensor(rng.normal(size=(1, 8, 8, 8)))
        a = dropgraph_forward(x, cfg_zero, params, 0.18, RngStream(i, ("deg",)))
        b = dropgraph_forward(x, cfg_none, None, 0.18, RngStream(i, ("deg",)))
        if not np.array_equal(a.data, b.data):
            return False, f"outputs diverge at case {i}"
    return True, "1000 random inputs bit-identical"


# -- criterion 4: adjacency properties --------------------------------------------------


def check_adjacency_properties():
    rng = np.random.default_rng(404)
    cases = 10_000
    for i in range(cases):
        n = int(rng.integers(2, 10))
        c = int(rng.integers(1, 8))
        e = build_adjacency(_vertices_from(rng.normal(size=(n, c)) * 2), "eq6").data
        if not np.allclose(e.sum(axis=1), 1.0, atol=1e-10):
            return False, f"row sums off at case {i}"
        if (e < 0).any() or (e > 1).any():
            return False, f"entries outside [0,1] at case {i}"
    for i in range(cases):
        if build_adjacency(_vertices_from(rng.normal(size=(1, 4))), "eq6").data.item() != 0.0:
            return False, "single vertex adjacency not zero"
        n = int(rng.integers(2, 8))
        vals = rng.normal(size=(n, 5))
        vals /= np.linalg.norm(vals, axis=1, keepdims=True)
        e = build_adjacency(_vertices_from(vals), "eq6").data
        if (np.diag(e) > e.min(axis=1) + 1e-12).any():
            return False, f"diagonal not minimal at case {i}"
    return True, f"{2 * cases} property cases"


# -- criterion 5: mask rate calibration ---------------------------------------------------


def check_mask_rate_calibration():
    rng = RngStream(55, ("mask_mc",))
    grid = [(16, 16, 3), (32, 32, 3), (16, 16, 5)]
    rhos = [0.05, 0.1, 0.2]
    details = []
    for h, w, s in grid:
        for rho in rhos:
            m = sample_block_mask(h, w, s, rho, rng.child(h, w, s, int(rho * 100)),
                                  batch=10_000)
            rel = abs(m.dropped_fraction - rho) / rho
            details.append(f"({h},{w},s={s},rho={rho}): {m.dropped_fraction:.4f}")
            if rel > 0.10:
                return False, f"drop rate off by {rel:.1%} at (h={h},w={w},s={s},rho={rho})"
    return True, "; ".join(details)


# -- criterion 6: scheduler contract ------------------------------------------------------


def check_scheduler_contract():
    total = 1000
    def ramp(kind):
        cfg = RegularizerConfig(rho=0.1, scheduler=kind)
        return np.array([schedule_rho(cfg, t, total) for t in range(total + 1)])

    for kind in ("f1", "f2", "f3", "f4", "f5"):
        vals = ramp(kind)
        if vals[0] != 0.0:
            return False, f"{kind}(0) != 0"
        if abs(vals[-1] - 0.1) > 1e-15:
            return False, f"{kind}(T) != rho"
        if (np.diff(vals) < -1e-15).any():
            return False, f"{kind} not nondecreasing"
    if (ramp("f2") > ramp("f1") + 1e-15).any():
        return False, "f2 exceeds f1 somewhere"
    return True, "5 ramps on a 1000-point grid; f2 <= f1 pointwise"


# -- determinism spot check -----------------------------------------------------------------


def check_determinism_replay():
    cfg = RegularizerConfig(alpha=0.3, rho=0.2, scheduler="constant")
    params = GraphGeneratorParams(8, RngStream(77, ("p",)))
    x = Tensor(np.random.default_rng(5).normal(size=(3, 8, 10, 10)))
    a = dropgraph_forward(x, cfg, params, cfg.rho, RngStream(123, ("r",)))
    b = dropgraph_forward(x, cfg, params, cfg.rho, RngStream(123, ("r",)))
    if not np.array_equal(a.data, b.data):
        return False, "replay with identical seed/path differs"
    c = dropgraph_forward(x, cfg, params, cfg.rho, RngStream(124, ("r",)))
    if np.array_equal(a.data, c.data):
        return False, "different seed produced identical output"
    return True, "replay bit-identical; different seed differs"


CHECKS = [
    ("gradient_soundness", check_gradient_soundness),
    ("inference_skip_identity", check_inference_skip_identity),
    ("dropblock_degeneration", check_dropblock_degeneration),
    ("adjacency_properties", check_adjacency_properties),
    ("mask_rate_calibration", check_mask_rate_calibration),
    ("scheduler_contract", check_scheduler_contract),
    ("determinism_replay", check_determinism_replay),
]
CHECK_NAMES = [name for name, _ in CHECKS]


def run_checks(names=None):
    selected = CHECKS if not names else [(n, f) for n, f in CHECKS if n in set(names)]
    results = []
    for name, fn in selected:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
