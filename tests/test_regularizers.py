import numpy as np
import numpy.testing as npt
import pytest

from dropgraph import regularizers
from dropgraph.errors import ConfigError, ContractError
from dropgraph.gradcheck import grad_check, relu_margin
from dropgraph.regularizers import (
    ADJACENCY_MODES,
    MASK_KINDS,
    DropGraph,
    Dropout,
    GraphGeneratorParams,
    PartialGraphReasoning,
    RegularizerConfig,
    VertexSet,
    build_adjacency,
    dropgraph_forward,
    dropout,
    generate_alt_distortions,
    generate_graph_distortions,
    graph_reasoning,
    make_regularizer,
    pool_expand_apply,
    _block_seed_rate,
    sample_block_mask,
    sample_vertices,
    schedule_rho,
)
from dropgraph.rng import RngStream
from dropgraph.tensor import Tensor

RNG = np.random.default_rng(20240303)


def make_vertices(values_array):
    values = Tensor(np.asarray(values_array, dtype=np.float64))
    n = values.data.shape[0]
    indices = np.column_stack([np.zeros(n, dtype=np.intp),
                               np.arange(n, dtype=np.intp),
                               np.zeros(n, dtype=np.intp)])
    return VertexSet(indices=indices, values=values)


def make_pgr(channels, alpha, rng, **kwargs):
    return PartialGraphReasoning(channels, RegularizerConfig(kind="pgr", alpha=alpha, **kwargs),
                                 rng)


# -- dropout baselines -------------------------------------------------------------


def test_dropout_rho_zero_is_identity():
    x = Tensor(RNG.normal(size=(50,)))
    out = dropout(x, 0.0, RngStream(1, ("d",)))
    npt.assert_array_equal(out.data, x.data)


def test_dropout_eval_is_identity():
    # Out of training the module returns its input; evaluation passes no rho.
    x = Tensor(RNG.normal(size=(50,)))
    for kind in ("dropout", "spatial_dropout"):
        mod = Dropout(RegularizerConfig(kind=kind, rho=0.7))
        mod.eval()
        assert mod(x, RngStream(1, ("d",)), None) is x


def test_dropout_monte_carlo_rate():
    x = Tensor(np.ones(1_000_000))
    out = dropout(x, 0.3, RngStream(2, ("mc",)))
    zeroed = float((out.data == 0).mean())
    assert abs(zeroed - 0.3) <= 0.002


def test_dropout_expectation_unscaled():
    # E[dropout(x)] = (1-rho)*x for the literal gating variant
    draws = np.stack([
        dropout(Tensor(np.ones(200)), 0.3, RngStream(3, ("e", i))).data
        for i in range(500)
    ])
    npt.assert_allclose(draws.mean(axis=0), 0.7 * np.ones(200), atol=0.07)


def test_dropout_rescaled_preserves_expectation():
    draws = np.stack([
        dropout(Tensor(np.ones(200)), 0.3, RngStream(4, ("r", i)), rescale=True).data
        for i in range(500)
    ])
    npt.assert_allclose(draws.mean(axis=0), np.ones(200), atol=0.1)


def test_dropout_rho_out_of_range():
    with pytest.raises(ContractError):
        dropout(Tensor(np.ones(3)), 1.0, RngStream(0))


def test_spatial_dropout_drops_whole_vectors():
    x = Tensor(RNG.normal(size=(4, 8, 10, 10)) + 5.0)
    out = dropout(x, 0.5, RngStream(5, ("s",)), spatial=True)
    per_position_zero = (out.data == 0).all(axis=1)
    per_position_kept = (out.data != 0).all(axis=1)
    assert (per_position_zero | per_position_kept).all()


def test_spatial_dropout_rate():
    x = Tensor(np.ones((10, 4, 100, 100)))
    out = dropout(x, 0.3, RngStream(6, ("s2",)), spatial=True)
    rate = float((out.data[:, 0] == 0).mean())
    assert abs(rate - 0.3) <= 0.005


# -- block masks -----------------------------------------------------------------


def test_block_mask_rho_zero():
    m = sample_block_mask(16, 16, 3, 0.0, RngStream(7, ("m",)), batch=4)
    npt.assert_array_equal(m.gate, np.ones((4, 16, 16)))
    assert m.dropped_fraction == 0.0


def test_block_mask_s1_is_bernoulli():
    m = sample_block_mask(100, 100, 1, 0.2, RngStream(8, ("m1",)), batch=20)
    assert abs((1 - m.gate).mean() - 0.2) < 0.01
    assert set(np.unique(m.gate)) <= {0.0, 1.0}


def test_block_mask_monte_carlo_rate():
    m = sample_block_mask(16, 16, 3, 0.1, RngStream(9, ("mc",)), batch=2000)
    assert abs(m.dropped_fraction - 0.1) / 0.1 <= 0.1


@pytest.mark.parametrize("h, w, s, rho", [
    (16, 16, 5, 0.2), (16, 16, 3, 0.2), (16, 16, 3, 0.4), (32, 32, 3, 0.05),
    (12, 20, 4, 0.1), (8, 8, 8, 0.3), (5, 5, 2, 0.0), (9, 7, 2, 0.95)])
def test_block_seed_rate_gives_the_exact_expected_drop(h, w, s, rho):
    covering = np.zeros((h, w))
    for y in range(h - s + 1):
        for x in range(w - s + 1):
            covering[y : y + s, x : x + s] += 1
    gamma = _block_seed_rate(h, w, s, rho)
    expected = np.mean(1.0 - (1.0 - gamma) ** covering)
    assert abs(expected - rho) <= 1e-9


def test_block_mask_s1_keeps_the_dropblock_rate():
    # gamma = rho*h*w / (s^2 vh vw) at s = 1, bit for bit, so node-graph runs
    # (block size 1) draw the same masks as before the exact calibration.
    h, w, rho = 7, 1, 0.3
    m = sample_block_mask(h, w, 1, rho, RngStream(11, ("s1",)), batch=40)
    u = RngStream(11, ("s1",)).uniform(size=(40, h, w))
    dropped = u < rho * h * w / (h * w)
    npt.assert_array_equal(m.gate, 1.0 - dropped)
    assert type(m.dropped_fraction) is float and m.dropped_fraction == dropped.mean()


def test_block_mask_blocks_are_full_squares_inside():
    s = 3
    m = sample_block_mask(12, 12, s, 0.15, RngStream(10, ("sq",)), batch=50)
    dropped = m.gate == 0
    # every dropped cell must be covered by some fully-dropped s x s window
    win = np.lib.stride_tricks.sliding_window_view(dropped, (s, s), axis=(1, 2))
    full = win.all(axis=(3, 4))  # (batch, h-s+1, w-s+1)
    rebuilt = np.zeros_like(dropped)
    vh, vw = full.shape[1], full.shape[2]
    for dy in range(s):
        for dx in range(s):
            rebuilt[:, dy : dy + vh, dx : dx + vw] |= full
    npt.assert_array_equal(dropped, rebuilt)


def test_block_mask_size_error():
    with pytest.raises(ContractError):
        sample_block_mask(4, 4, 5, 0.1, RngStream(0))


# -- vertex sampling ------------------------------------------------------------------


def test_sample_vertices_alpha_one_takes_all():
    x = Tensor(RNG.normal(size=(3, 4, 5, 6)))
    v = sample_vertices(x, 1.0, RngStream(11, ("v",)))
    assert v.count == 3 * 5 * 6
    npt.assert_array_equal(np.bincount(v.indices[:, 0]), [30, 30, 30])


def test_sample_vertices_alpha_zero_empty():
    # An empty set has the layout of its batch: padded for two items, flat for one.
    for batch, shape in ((2, (2, 0, 4)), (1, (0, 4))):
        x = Tensor(RNG.normal(size=(batch, 4, 5, 5)))
        v = sample_vertices(x, 0.0, RngStream(12, ("v0",)))
        assert v.count == 0
        assert v.values.data.shape == shape
        npt.assert_array_equal(v.sizes, np.zeros(shape[:-2] + (1, 1)))


def test_sample_vertices_expected_count():
    counts = []
    for i in range(200):
        x = Tensor(np.zeros((8, 4, 16, 16)))
        v = sample_vertices(x, 0.2, RngStream(13, ("n", i)))
        counts.append(v.count / 8)
    assert abs(np.mean(counts) - 51.2) / 51.2 <= 0.05


def test_sample_vertices_values_match_positions():
    # A batch of two comes padded: item i's vertices fill rows :sizes[i] of
    # values[i] in indices order, and the pad rows are zero.
    x = Tensor(RNG.normal(size=(2, 3, 6, 6)))
    v = sample_vertices(x, 0.3, RngStream(14, ("vm",)))
    npt.assert_array_equal(v.sizes[:, 0, 0], np.bincount(v.indices[:, 0], minlength=2))
    assert v.values.data.shape == (2, v.sizes.max(), 3)
    for bi in range(2):
        own = v.indices[v.indices[:, 0] == bi]
        npt.assert_array_equal(v.values.data[bi, : len(own)], x.data[bi, :, own[:, 1], own[:, 2]])
        npt.assert_array_equal(v.values.data[bi, len(own) :], 0.0)
    # uniqueness
    assert len({tuple(t) for t in v.indices}) == v.count


def test_sample_vertices_one_item_is_one_flat_graph():
    x = Tensor(RNG.normal(size=(1, 3, 6, 6)))
    v = sample_vertices(x, 0.3, RngStream(14, ("vm1",)))
    assert v.valid is None and v.sizes.tolist() == [[v.count]]
    for row, (b, y, xx) in zip(v.values.data, v.indices, strict=True):
        npt.assert_array_equal(row, x.data[b, :, y, xx])


def test_sample_vertices_forces_one_when_empty():
    x = Tensor(RNG.normal(size=(6, 4, 4, 4)))
    v = sample_vertices(x, 1e-9, RngStream(15, ("f",)))
    npt.assert_array_equal(np.bincount(v.indices[:, 0], minlength=6), np.ones(6))


def test_sample_vertices_forced_draws_replay_the_per_item_loop():
    # Only the empty items draw from ("force", item), exactly as a loop over
    # every item would, so the sampled sets do not depend on how the empty
    # items are found.
    b, h, w, alpha = 12, 3, 3, 0.06
    v = sample_vertices(Tensor(np.zeros((b, 2, h, w))), alpha, RngStream(16, ("vf",)))
    rng = RngStream(16, ("vf",))
    selected = rng.child("select").uniform(size=(b, h, w)) < alpha
    empty = [bi for bi in range(b) if not selected[bi].any()]
    assert 0 < len(empty) < b
    for bi in empty:
        flat = int(rng.child("force", bi).integers(0, h * w))
        selected[bi, flat // w, flat % w] = True
    npt.assert_array_equal(v.indices, np.argwhere(selected))


def test_sample_vertices_alpha_range():
    with pytest.raises(ContractError):
        sample_vertices(Tensor(np.zeros((1, 1, 2, 2))), 1.5, RngStream(0))


# -- adjacency -------------------------------------------------------------------------


def test_adjacency_single_vertex_is_zero():
    a = build_adjacency(make_vertices([[3.0, 1.0]]), "eq6")
    npt.assert_array_equal(a.data, [[0.0]])


def test_adjacency_two_identical_vertices():
    a = build_adjacency(make_vertices([[1.0, 2.0], [1.0, 2.0]]), "eq6")
    npt.assert_allclose(a.data, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_adjacency_frozen_three_vertex_case():
    # vectors (1,0),(0,1),(1,1); values from 30-digit exp-normalize
    a = build_adjacency(make_vertices([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), "eq6")
    want = [
        [0.2888406008742409017, 0.4223187982515181966, 0.2888406008742409017],
        [0.4223187982515181966, 0.2888406008742409017, 0.2888406008742409017],
        [0.39402922119145727746, 0.39402922119145727746, 0.21194155761708544507],
    ]
    npt.assert_allclose(a.data, want, rtol=1e-13)


def test_adjacency_row_sums_and_bounds():
    for _ in range(300):
        n = int(RNG.integers(2, 10))
        c = int(RNG.integers(1, 8))
        a = build_adjacency(make_vertices(RNG.normal(size=(n, c)) * 3), "eq6")
        e = a.data
        npt.assert_allclose(e.sum(axis=1), np.ones(n), atol=1e-10)
        assert (e >= 0).all() and (e <= 1).all()


def test_adjacency_diagonal_minimal_for_normalized_vectors():
    for _ in range(200):
        n = int(RNG.integers(2, 8))
        vals = RNG.normal(size=(n, 5))
        vals /= np.linalg.norm(vals, axis=1, keepdims=True)
        e = build_adjacency(make_vertices(vals), "eq6").data
        for i in range(n):
            assert e[i, i] <= e[i].min() + 1e-12


def test_adjacency_other_modes():
    v = make_vertices(RNG.normal(size=(4, 3)))
    npt.assert_array_equal(build_adjacency(v, "identity").data, np.eye(4))
    npt.assert_array_equal(build_adjacency(v, "uniform").data, np.full((4, 4), 0.25))
    npt.assert_array_equal(build_adjacency(v, "zero").data, np.zeros((4, 4)))
    sim = build_adjacency(v, "similarity").data
    npt.assert_allclose(sim.sum(axis=1), np.ones(4), atol=1e-12)


def test_adjacency_learned_crop_and_tile():
    param = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
    small = build_adjacency(make_vertices(RNG.normal(size=(3, 2))), "learned", learned_param=param)
    npt.assert_array_equal(small.data, param.data[:3, :3])
    big = build_adjacency(make_vertices(RNG.normal(size=(7, 2))), "learned", learned_param=param)
    assert big.data.shape == (7, 7)
    npt.assert_array_equal(big.data[:4, :4], param.data)
    npt.assert_array_equal(big.data[4:7, 4:7], param.data[:3, :3])
    big.sum().backward()
    assert param.grad is not None


def test_adjacency_empty_set_rejected():
    empty = VertexSet(indices=np.zeros((0, 3), dtype=np.intp), values=Tensor(np.zeros((0, 2))))
    with pytest.raises(ContractError):
        build_adjacency(empty, "eq6")


def test_adjacency_refuses_learned_without_a_parameter_and_an_unknown_mode():
    v = make_vertices(RNG.normal(size=(3, 2)))
    with pytest.raises(ConfigError, match="needs a parameter matrix"):
        build_adjacency(v, "learned")
    with pytest.raises(ConfigError, match="unknown adjacency mode 'ring'"):
        build_adjacency(v, "ring")


# -- graph reasoning and generators ---------------------------------------------------


def test_graph_reasoning_zero_adjacency():
    x = Tensor(RNG.normal(size=(3, 4)))
    out = graph_reasoning(x, Tensor(np.zeros((3, 3))), Tensor(RNG.normal(size=(4, 4))))
    npt.assert_array_equal(out.data, x.data)


def test_graph_reasoning_zero_weights():
    x = Tensor(RNG.normal(size=(3, 4)))
    out = graph_reasoning(x, Tensor(RNG.normal(size=(3, 3))), Tensor(np.zeros((4, 4))))
    npt.assert_array_equal(out.data, x.data)


def test_graph_reasoning_matches_matmul_oracle():
    x = RNG.normal(size=(2, 2))
    a = RNG.normal(size=(2, 2))
    w = RNG.normal(size=(2, 2))
    out = graph_reasoning(Tensor(x), Tensor(a), Tensor(w)).data
    npt.assert_allclose(out, x + a @ x @ w, rtol=1e-12)


def test_generator_zero_adjacency_gives_zero():
    params = GraphGeneratorParams(8, RngStream(16, ("p",)))
    v = make_vertices(RNG.normal(size=(5, 8)))
    a = Tensor(np.zeros((5, 5)))
    out = generate_graph_distortions(v, a, params)
    npt.assert_array_equal(out.data, np.zeros((5, 8)))


def test_generator_zero_params_give_zero():
    params = GraphGeneratorParams(8, RngStream(17, ("p",)))
    for p in params.parameters():
        p.data = np.zeros_like(p.data)
    v = make_vertices(RNG.normal(size=(4, 8)))
    a = build_adjacency(v, "eq6")
    npt.assert_array_equal(generate_graph_distortions(v, a, params).data, np.zeros((4, 8)))


def test_generator_matches_three_stage_oracle():
    params = GraphGeneratorParams(4, RngStream(18, ("p",)))
    vals = RNG.normal(size=(2, 4))
    v = make_vertices(vals)
    a = build_adjacency(v, "eq6")
    an = a.data
    h1 = np.maximum(an @ vals @ params.w_in.data, 0)
    h2 = np.maximum(h1 + an @ h1 @ params.w_mid.data, 0)
    want = an @ h2 @ params.w_out.data
    got = generate_graph_distortions(v, a, params).data
    npt.assert_allclose(got, want, rtol=1e-12)


def test_generator_channels_divisible_by_four():
    with pytest.raises(ConfigError):
        GraphGeneratorParams(6, RngStream(0))


def test_alt_avg_pool_identical_rows():
    v = make_vertices([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    out = generate_alt_distortions(v, "avg_pool", RngStream(0))
    npt.assert_allclose(out.data, [[1.0, 2.0]] * 3, atol=1e-15)


def test_alt_avg_pool_mean():
    v = make_vertices([[0.0, 2.0], [2.0, 0.0]])
    out = generate_alt_distortions(v, "avg_pool", RngStream(0))
    npt.assert_allclose(out.data, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_alt_generators_refuse_an_empty_set_and_an_unknown_kind():
    empty = VertexSet(indices=np.zeros((0, 3), dtype=np.intp), values=Tensor(np.zeros((0, 2))))
    with pytest.raises(ContractError, match="at least one vertex"):
        generate_alt_distortions(empty, "avg_pool", RngStream(0))
    with pytest.raises(ConfigError, match="unknown alternative generator 'median'"):
        generate_alt_distortions(make_vertices([[1.0, 2.0]]), "median", RngStream(0))


def test_alt_random_noise_std_matches():
    vals = RNG.normal(size=(100_000, 3)) * np.array([0.5, 2.0, 1.3])
    v = make_vertices(vals)
    out = generate_alt_distortions(v, "random_noise", RngStream(19, ("n",)))
    want = vals.std(axis=0)
    got = out.data.std(axis=0)
    npt.assert_allclose(got, want, rtol=0.05)


# -- pool, expand, apply ------------------------------------------------------------


def test_pool_expand_all_ones_mask_is_identity():
    from dropgraph.regularizers import DropMask

    x = Tensor(RNG.normal(size=(2, 4, 6, 6)))
    v = sample_vertices(x, 0.5, RngStream(20, ("v",)))
    d = Tensor(RNG.normal(size=v.values.data.shape))
    m = DropMask(gate=np.ones((2, 6, 6)), dropped_fraction=0.0)
    out = pool_expand_apply(x, m, d, v, RngStream(20, ("u",)))
    npt.assert_array_equal(out.data, x.data)


def test_pool_expand_zero_distortions_zero_dropped():
    from dropgraph.regularizers import DropMask

    x = Tensor(RNG.normal(size=(2, 4, 6, 6)) + 3.0)
    v = sample_vertices(x, 0.5, RngStream(21, ("v",)))
    d = Tensor(np.zeros(v.values.data.shape))
    gate = np.ones((2, 6, 6))
    gate[0, 2, 3] = 0.0
    gate[1, 0, 0] = 0.0
    m = DropMask(gate=gate, dropped_fraction=float(1 - gate.mean()))
    out = pool_expand_apply(x, m, d, v, RngStream(21, ("u",)))
    npt.assert_array_equal(out.data[0, :, 2, 3], np.zeros(4))
    npt.assert_array_equal(out.data[1, :, 0, 0], np.zeros(4))
    kept = out.data[0, :, 1, 1]
    npt.assert_array_equal(kept, x.data[0, :, 1, 1])


def test_pool_expand_single_position_replay():
    from dropgraph.regularizers import DropMask

    x = Tensor(RNG.normal(size=(1, 3, 4, 4)))
    v = make_vertices(RNG.normal(size=(2, 3)))
    d = Tensor(np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]))
    gate = np.ones((1, 4, 4))
    gate[0, 1, 2] = 0.0
    m = DropMask(gate=gate, dropped_fraction=1 / 16)
    out = pool_expand_apply(x, m, d, v, RngStream(22, ("u",)))
    # replay the multiplier stream independently
    u = RngStream(22, ("u",)).uniform(size=(1, 1, 4, 4))
    pooled = d.data.mean(axis=0)
    npt.assert_allclose(out.data[0, :, 1, 2], pooled * u[0, 0, 1, 2], rtol=1e-12)


# -- scheduler -------------------------------------------------------------------------


def ramp(kind, rho=0.1):
    return RegularizerConfig(scheduler=kind, rho=rho)


@pytest.mark.parametrize("kind", ["f1", "f2", "f3", "f4", "f5"])
def test_scheduler_endpoints(kind):
    assert schedule_rho(ramp(kind), 0, 100) == 0.0
    assert abs(schedule_rho(ramp(kind), 100, 100) - 0.1) <= 1e-15


def test_scheduler_linear_midpoint():
    assert abs(schedule_rho(ramp("f1"), 50, 100) - 0.05) <= 1e-15


def test_scheduler_constant():
    assert schedule_rho(ramp("constant", 0.07), 0, 100) == 0.07


def test_scheduler_monotone_and_bounded():
    grid = np.arange(0, 1001)
    for kind in ["f1", "f2", "f3", "f4", "f5", "constant"]:
        vals = [schedule_rho(ramp(kind), int(t), 1000) for t in grid]
        diffs = np.diff(vals)
        assert (diffs >= -1e-15).all(), kind
        assert min(vals) >= 0.0 and max(vals) <= 0.1 + 1e-15


def test_scheduler_f2_is_weakest():
    for t in range(0, 1001, 7):
        f2 = schedule_rho(ramp("f2"), t, 1000)
        for kind in ["f1", "f3", "f4", "f5"]:
            assert f2 <= schedule_rho(ramp(kind), t, 1000) + 1e-15


def test_scheduler_step_bounds():
    for step in (-1, 101):
        with pytest.raises(ContractError, match=f"step {step} outside"):
            schedule_rho(ramp("f1"), step, 100)
    for total in (0, -5):
        with pytest.raises(ContractError, match="total_steps must be positive"):
            schedule_rho(ramp("f1"), 0, total)


# -- full regularizer forward -----------------------------------------------------------


def pinned_forward(x, cfg, params, seed, step=50, mask=None, learned=None):
    return dropgraph_forward(x, cfg, params, schedule_rho(cfg, step, 100),
                             RngStream(seed, ("fw",)), mask=mask, learned_adjacency=learned)


def test_dropgraph_eval_is_input(monkeypatch):
    # Out of training the module returns its input and runs no graph computation.
    def no_forward(*args, **kwargs):
        raise AssertionError("dropgraph_forward ran in eval")

    monkeypatch.setattr(regularizers, "dropgraph_forward", no_forward)
    mod = DropGraph(8, RegularizerConfig(), RngStream(0))
    mod.eval()
    x = Tensor(RNG.normal(size=(2, 8, 8, 8)))
    assert mod(x, RngStream(0), None) is x


def test_dropgraph_rho_zero_identity():
    cfg = RegularizerConfig()
    params = GraphGeneratorParams(8, RngStream(23, ("p",)))
    x = Tensor(RNG.normal(size=(2, 8, 8, 8)))
    out = pinned_forward(x, cfg, params, seed=1, step=0)
    npt.assert_array_equal(out.data, x.data)


def test_dropgraph_zero_adjacency_equals_masking_only():
    params = GraphGeneratorParams(8, RngStream(24, ("p",)))
    cfg_zero = RegularizerConfig(adjacency="zero")
    cfg_none = RegularizerConfig(generator="none")
    for i in range(50):
        x = Tensor(RNG.normal(size=(2, 8, 8, 8)))
        a = pinned_forward(x, cfg_zero, params, seed=100 + i)
        b = pinned_forward(x, cfg_none, None, seed=100 + i)
        npt.assert_array_equal(a.data, b.data)


def test_dropgraph_alpha_zero_is_pure_masking():
    cfg = RegularizerConfig(alpha=0.0, generator="graph")
    params = GraphGeneratorParams(8, RngStream(25, ("p",)))
    x = Tensor(RNG.normal(size=(2, 8, 8, 8)))
    out = pinned_forward(x, cfg, params, seed=7)
    mask_only = pinned_forward(x, RegularizerConfig(alpha=0.0, generator="none"),
                               None, seed=7)
    npt.assert_array_equal(out.data, mask_only.data)


def test_dropgraph_block_size_vs_map():
    cfg = RegularizerConfig(block_size=9)
    with pytest.raises(ContractError):
        pinned_forward(Tensor(np.zeros((1, 8, 4, 4))), cfg, None, seed=0)


def test_dropgraph_deterministic_replay():
    cfg = RegularizerConfig()
    params = GraphGeneratorParams(8, RngStream(26, ("p",)))
    x = Tensor(RNG.normal(size=(3, 8, 10, 10)))
    a = pinned_forward(x, cfg, params, seed=42)
    b = pinned_forward(x, cfg, params, seed=42)
    npt.assert_array_equal(a.data, b.data)
    c = pinned_forward(x, cfg, params, seed=43)
    assert not np.array_equal(a.data, c.data)


# normalize_similarity divides each vertex by its norm, a denominator that takes a gradient.
_NORMALIZED = [pytest.param(a, True, id=f"{a}-normalize") for a in ("eq6", "similarity")]


@pytest.mark.parametrize("adjacency, normalize", [
    *(pytest.param(a, False, id=a) for a in ("eq6", "similarity", "identity", "uniform")),
    *_NORMALIZED])
def test_dropgraph_gradients(adjacency, normalize):
    cfg = RegularizerConfig(alpha=0.5, rho=0.4, block_size=3, adjacency=adjacency,
                            normalize_similarity=normalize, scheduler="constant")
    for attempt in range(30):
        # Fresh generator weights per attempt: one draw can leave the
        # generator dead (all-zero relu outputs) on every input.
        params = GraphGeneratorParams(4, RngStream(27, ("p", adjacency, attempt)))
        x = Tensor(RNG.normal(size=(1, 4, 6, 6)), requires_grad=True)

        def f(t):
            return (pinned_forward(t, cfg, params, seed=300 + attempt) ** 2).sum()

        out, margin = relu_margin(f, x)
        if margin < 1e-3:
            continue
        for p in params.parameters():
            p.grad = None
        out.backward()
        if not all(p.grad is not None and np.any(p.grad) for p in params.parameters()):
            continue  # all-zero parameter gradients would check nothing
        assert grad_check(f, x) <= 1e-5
        for name, p in list(params.named_parameters()):
            # The checked tensor stands in for the parameter, so the tape
            # routes the analytic gradient to it.
            def fp(t, name=name, p=p):
                setattr(params, name, t)
                try:
                    return (pinned_forward(x, cfg, params, seed=300 + attempt) ** 2).sum()
                finally:
                    setattr(params, name, p)

            assert grad_check(fp, Tensor(p.data.copy(), requires_grad=True)) <= 1e-5
        break
    else:
        pytest.fail("no kink-free instance with nonzero parameter gradients found")


def test_dropgraph_alt_generators_run():
    x = Tensor(RNG.normal(size=(2, 8, 8, 8)))
    for kind in ("random_noise", "avg_pool"):
        cfg = RegularizerConfig(generator=kind, rho=0.4,
                                scheduler="constant")
        out = pinned_forward(x, cfg, None, seed=11)
        assert np.isfinite(out.data).all()
        assert not np.array_equal(out.data, x.data)


# -- partial graph reasoning -------------------------------------------------------------


def test_pgr_train_only_eval_identity():
    mod = make_pgr(4, 0.5, RngStream(28, ("pgr",)))
    mod.eval()
    x = Tensor(RNG.normal(size=(2, 4, 5, 5)))
    out = mod(x, RngStream(1, ("e",)))
    assert out is x


def test_pgr_alpha_zero_returns_its_input_in_training():
    mod = make_pgr(4, 0.0, RngStream(28, ("pgr",)))
    x = Tensor(RNG.normal(size=(2, 4, 5, 5)), requires_grad=True)
    assert mod.training
    assert mod(x, RngStream(1, ("t",))) is x


def test_pgr_replaces_selected_rows_with_avw():
    mod = make_pgr(4, 1.0, RngStream(29, ("pgr",)), pgr_strategy="random")
    x = Tensor(RNG.normal(size=(1, 4, 3, 3)))
    out = mod(x, RngStream(2, ("f",)))
    vals = x.data[0].reshape(4, 9).T  # all positions, scan order
    a = build_adjacency(make_vertices(vals), "eq6").data
    want = a @ vals @ mod.weight.data
    npt.assert_allclose(out.data[0].reshape(4, 9).T, want, rtol=1e-10)


@pytest.mark.parametrize("mode", ["eq6", "similarity"])
def test_pgr_reads_normalize_similarity(mode):
    mod = make_pgr(4, 1.0, RngStream(29, ("pgr",)), adjacency=mode, normalize_similarity=True)
    x = Tensor(RNG.normal(size=(1, 4, 3, 3)))
    out = mod(x, RngStream(2, ("f",)))
    vals = x.data[0].reshape(4, 9).T  # all positions, scan order
    a = build_adjacency(make_vertices(vals), mode, normalize=True).data
    want = a @ vals @ mod.weight.data
    npt.assert_allclose(out.data[0].reshape(4, 9).T, want, rtol=1e-10)


def test_pgr_top_strategy_deterministic():
    mod = make_pgr(4, 0.25, RngStream(30, ("pgr",)), pgr_strategy="top")
    x = Tensor(RNG.normal(size=(2, 4, 6, 6)))
    a = mod(x, RngStream(3, ("t",))).data
    b = mod(x, RngStream(99, ("other",))).data  # top sampling ignores rng
    npt.assert_array_equal(a, b)


def test_pgr_active_in_eval():
    mod = make_pgr(4, 0.5, RngStream(31, ("pgr",)), pgr_active_in_eval=True)
    mod.eval()
    x = Tensor(RNG.normal(size=(1, 4, 5, 5)))
    out = mod(x, RngStream(4, ("e",)))
    assert not np.array_equal(out.data, x.data)


# -- insertion-point module --------------------------------------------------------------


def test_dropgraph_module_eval_identity_and_params():
    cfg = RegularizerConfig()
    mod = DropGraph(8, cfg, RngStream(32, ("m",)))
    assert len(mod.parameters()) == 3
    mod.eval()
    x = Tensor(RNG.normal(size=(2, 8, 8, 8)))
    assert mod(x, RngStream(0), None) is x


def test_dropgraph_module_learned_adjacency_sizing():
    cfg = RegularizerConfig(adjacency="learned", alpha=0.2)
    mod = DropGraph(8, cfg, RngStream(33, ("m",)), spatial_size=(8, 8))
    assert mod.adjacency_param.data.shape == (13, 13)  # ceil(0.2 * 64)
    with pytest.raises(ConfigError):
        DropGraph(8, cfg, RngStream(34, ("m2",)))


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="alpha"):
        RegularizerConfig(alpha=1.2)
    with pytest.raises(ConfigError, match=r"^rho must lie in \[0, 1\), got 1.0"):
        RegularizerConfig(rho=1.0)
    with pytest.raises(ConfigError, match="block_size"):
        RegularizerConfig(block_size=4)
    with pytest.raises(ConfigError, match="^adjacency must be one of"):
        RegularizerConfig(adjacency="banana")
    with pytest.raises(ConfigError, match="^kind must be one of"):
        RegularizerConfig(kind="dropconnect")
    with pytest.raises(ConfigError, match="^pgr_strategy"):
        RegularizerConfig(pgr_strategy="bottom")


# -- padded per-item graphs against a per-item oracle --------------------------------------


def oracle_adjacency(vals, mode, normalize=False, param=None):
    n = len(vals)
    if mode == "identity":
        return np.eye(n)
    if mode == "uniform":
        return np.full((n, n), 1.0 / n)
    if mode == "zero":
        return np.zeros((n, n))
    if mode == "learned":
        r = np.arange(n) % len(param)
        return param[np.ix_(r, r)]
    if normalize:
        vals = vals / np.sqrt((vals * vals).sum(axis=1, keepdims=True) + 1e-12)
    sim = vals @ vals.T
    e = np.exp(sim - sim.max(axis=1, keepdims=True))
    gated = e / e.sum(axis=1, keepdims=True)
    return gated if mode == "similarity" else (1.0 - gated) / max(n - 1, 1)


def oracle_dropgraph(x, cfg, params, learned, rng):
    """dropgraph_forward with one graph per batch item, in plain numpy."""
    b, c, h, w = x.shape
    gate = sample_block_mask(h, w, cfg.block_size, cfg.rho, rng.child("mask"),
                             batch=b).gate[:, None]
    idx = sample_vertices(Tensor(x), cfg.alpha, rng.child("vertices")).indices
    pooled = np.zeros((b, c))
    for bi in range(b):
        pos = idx[idx[:, 0] == bi]
        vals = x[bi][:, pos[:, 1], pos[:, 2]].T
        if cfg.generator == "graph":
            a = oracle_adjacency(vals, cfg.adjacency, cfg.normalize_similarity, learned)
            h1 = np.maximum(a @ vals @ params.w_in.data, 0.0)
            h2 = np.maximum(h1 + a @ h1 @ params.w_mid.data, 0.0)
            d = a @ h2 @ params.w_out.data
        elif cfg.generator == "avg_pool":
            d = np.tile(vals.mean(axis=0), (len(vals), 1))
        else:
            d = rng.child("noise", bi).normal(size=vals.shape) * vals.std(axis=0)
        pooled[bi] = d.mean(axis=0)
    u = rng.child("multipliers").uniform(size=(b, 1, h, w))
    return x * gate + pooled[:, :, None, None] * (1.0 - gate) * u


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


BRANCH_CASES = ([(mode, norm, "graph") for mode in ADJACENCY_MODES for norm in (False, True)]
                + [("eq6", False, "avg_pool"), ("eq6", False, "random_noise")])


@pytest.mark.parametrize("mode, normalize, generator", BRANCH_CASES)
def test_padded_branch_matches_per_item_oracle(mode, normalize, generator):
    cfg = RegularizerConfig(alpha=0.15, rho=0.4, adjacency=mode,
                            generator=generator, normalize_similarity=normalize,
                            scheduler="constant")
    x = RNG.normal(size=(4, 8, 4, 4))
    rng = RngStream(3, ("fw",))
    counts = np.bincount(sample_vertices(Tensor(x), cfg.alpha, rng.child("vertices"))
                         .indices[:, 0], minlength=4)
    assert 1 in counts and len(set(counts)) > 2  # uneven, with a one-vertex item
    params = GraphGeneratorParams(8, RngStream(35, ("p",))) if generator == "graph" else None
    learned = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    got = dropgraph_forward(Tensor(x), cfg, params, cfg.rho, rng,
                            learned_adjacency=learned if mode == "learned" else None)
    want = oracle_dropgraph(x, cfg, params, learned.data, rng)
    assert relative_error(got.data, want) <= 1e-12


@pytest.mark.parametrize("mode", ["eq6", "similarity"])
def test_padded_set_of_full_items_keeps_its_valid_mask(mode):
    """At alpha = 1 every item fills n_max, and the padded set still carries ``valid``."""
    cfg = RegularizerConfig(alpha=1.0, rho=0.4, adjacency=mode, scheduler="constant")
    x = RNG.normal(size=(3, 8, 4, 4))
    rng = RngStream(4, ("fw",))
    valid = sample_vertices(Tensor(x), cfg.alpha, rng.child("vertices")).valid
    npt.assert_array_equal(valid, np.ones((3, 16), dtype=bool))
    params = GraphGeneratorParams(8, RngStream(39, ("p",)))
    got = dropgraph_forward(Tensor(x), cfg, params, cfg.rho, rng)
    assert relative_error(got.data, oracle_dropgraph(x, cfg, params, None, rng)) <= 1e-12


@pytest.mark.parametrize("strategy", ["random", "top"])
@pytest.mark.parametrize("mode", ["eq6", "similarity", "uniform"])
def test_pgr_padded_matches_per_item_oracle(strategy, mode):
    mod = make_pgr(8, 0.15, RngStream(36, ("pgr",)), pgr_strategy=strategy,
                   adjacency=mode)
    x = RNG.normal(size=(4, 8, 4, 4))
    rng = RngStream(5, ("f",))
    if strategy == "random":
        idx = sample_vertices(Tensor(x), 0.15, rng.child("pgr_vertices")).indices
        counts = np.bincount(idx[:, 0], minlength=4)
        assert 1 in counts and len(set(counts)) > 2
    else:
        idx = np.argwhere(mod._select_top(Tensor(x)))
    want = x.copy()
    for bi in range(4):
        pos = idx[idx[:, 0] == bi]
        vals = x[bi][:, pos[:, 1], pos[:, 2]].T
        want[bi][:, pos[:, 1], pos[:, 2]] = (oracle_adjacency(vals, mode) @ vals
                                             @ mod.weight.data).T
    got = mod(Tensor(x), rng)
    assert relative_error(got.data, want) <= 1e-12


def test_select_top_keeps_the_lexsort_order_on_ties():
    mod = make_pgr(3, 0.3, RngStream(37, ("pgr",)), pgr_strategy="top")
    # Few distinct magnitudes: most positions tie with others.
    x = RNG.integers(-1, 2, size=(5, 3, 6, 6)).astype(np.float64)
    b, _, h, w = x.shape
    k = max(1, int(round(0.3 * h * w)))
    mag = np.sqrt((x * x).sum(axis=1)).reshape(b, h * w)
    selected = np.zeros((b, h, w), dtype=bool)
    for bi in range(b):
        order = np.lexsort((np.arange(h * w), -mag[bi]))[:k]
        selected[bi, order // w, order % w] = True
    assert len(np.unique(mag)) < 10
    npt.assert_array_equal(mod._select_top(Tensor(x)), selected)


@pytest.mark.parametrize("adjacency, normalize", [
    *(pytest.param(a, False, id=a) for a in ("eq6", "similarity", "learned")),
    *_NORMALIZED])
def test_dropgraph_gradients_with_unequal_items(adjacency, normalize):
    cfg = RegularizerConfig(alpha=0.3, rho=0.4, block_size=3, adjacency=adjacency,
                            normalize_similarity=normalize, scheduler="constant")
    for attempt in range(30):
        params = GraphGeneratorParams(4, RngStream(38, ("p", adjacency, attempt)))
        learned = (Tensor(1.0 / 11 + 0.05 * RNG.normal(size=(11, 11)))
                   if adjacency == "learned" else None)
        x = Tensor(RNG.normal(size=(3, 4, 6, 6)), requires_grad=True)
        rng = RngStream(400 + attempt, ("fw",))
        counts = np.bincount(sample_vertices(x, cfg.alpha, rng.child("vertices"))
                             .indices[:, 0], minlength=3)
        if len(set(counts)) < 3:
            continue  # every item must be padded to a different degree

        def f(t, params=params, learned=learned, rng=rng):
            return (dropgraph_forward(t, cfg, params, cfg.rho, rng,
                                      learned_adjacency=learned) ** 2).sum()

        out, margin = relu_margin(f, x)
        if margin < 1e-3:
            continue
        out.backward()
        if not all(p.grad is not None and np.any(p.grad) for p in params.parameters()):
            continue
        assert grad_check(f, x) <= 1e-5
        for name, p in list(params.named_parameters()):
            def fp(t, name=name, p=p):
                setattr(params, name, t)
                try:
                    return f(x)
                finally:
                    setattr(params, name, p)

            assert grad_check(fp, Tensor(p.data.copy(), requires_grad=True)) <= 1e-5
        if learned is not None:
            assert grad_check(lambda t: f(x, learned=t), learned) <= 1e-5
        break
    else:
        pytest.fail("no kink-free instance with unequal items and live gradients found")


def tape_nodes(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_dropgraph_tape_does_not_grow_with_the_batch():
    # One padded graph per insertion point: the same tape for any batch size.
    mod = DropGraph(16, RegularizerConfig(rho=0.1, scheduler="constant"),
                    RngStream(39, ("m",)))
    sizes = []
    for b in (2, 32):
        x = Tensor(RNG.normal(size=(b, 16, 8, 8)), requires_grad=True)
        rng = RngStream(40, ("fw",))
        counts = np.bincount(sample_vertices(x, 0.2, rng.child("vertices")).indices[:, 0])
        assert counts.min() < counts.max()  # padded at both sizes
        sizes.append(tape_nodes(mod(x, rng, 0.1)))
    assert sizes[0] == sizes[1] <= 40


@pytest.mark.parametrize("kind", ["dropout", "spatial_dropout", *MASK_KINDS])
def test_train_mode_call_without_a_drop_probability_is_rejected(kind):
    # Evaluation passes rho = None; in training that is a caller's mistake.
    mod = make_regularizer(RegularizerConfig(kind=kind), 8, RngStream(41, ("m",)))
    with pytest.raises(ContractError, match="drop probability .* got None"):
        mod(Tensor(np.ones((2, 8, 8, 8))), RngStream(42, ("fw",)), None)
