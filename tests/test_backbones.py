import numpy as np
import numpy.testing as npt
import pytest

from dropgraph.backbones import (
    TinyResNet,
    TinyResNetConfig,
    TwoLayerGcn,
    TwoLayerGcnConfig,
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from dropgraph.config import parse_config
from dropgraph.data import SbmGraphSpec, gen_sbm, save_graph_dataset
from dropgraph.errors import ContractError
from dropgraph.gradcheck import grad_check, relu_margin
from dropgraph.nn import conv_bn, cross_entropy
from dropgraph.regularizers import (
    REG_KINDS,
    DropGraph,
    Dropout,
    GraphGeneratorParams,
    PartialGraphReasoning,
    RegularizerConfig,
    schedule_rho,
)
from dropgraph.rng import RngStream
from dropgraph.tensor import Tensor, no_grad, relu, take_rows


def _small_model(seed: int) -> TinyResNet:
    cfg = TinyResNetConfig(stem_channels=4, groups=((1, 4), (1, 8)), image_size=8)
    return TinyResNet(cfg, RngStream(seed))


def test_checkpoint_round_trip(tmp_path):
    src, dst = _small_model(1), _small_model(2)
    src.blocks[0].bn1.running_mean = np.arange(4.0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(src, path)
    apply_checkpoint(dst, path)
    for (name, p), (_, q) in zip(src.named_parameters(), dst.named_parameters()):
        npt.assert_array_equal(p.data, q.data, err_msg=name)
    npt.assert_array_equal(dst.blocks[0].bn1.running_mean, np.arange(4.0))


def test_truncated_checkpoint_raises_contract_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_small_model(3), path)
    raw = path.read_bytes()
    name_len = int.from_bytes(raw[12:14], "little")
    ndim_at = 14 + name_len
    # Cuts inside the header, the first name, its shape, its data, and the end.
    cuts = [8, 13, 14 + name_len // 2, ndim_at + 3, ndim_at + 5 + 4 * raw[ndim_at] + 12,
            len(raw) // 2, len(raw) - 1]
    for cut in cuts:
        path.write_bytes(raw[:cut])
        with pytest.raises(ContractError, match="truncated checkpoint"):
            load_checkpoint(path)


def test_non_utf8_checkpoint_name_raises_contract_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_small_model(4), path)
    raw = bytearray(path.read_bytes())
    raw[14] = 0xFF  # first byte of the first name
    path.write_bytes(bytes(raw))
    with pytest.raises(ContractError, match="not UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("size", range(8, 18))
def test_group_map_size_matches_the_forward_pass(size):
    # A stride-2, padding-1 3x3 conv maps a side of n to ceil(n/2), odd n included.
    cfg = TinyResNetConfig(stem_channels=4, groups=((1, 4), (1, 4), (1, 4)), image_size=size)
    model = TinyResNet(cfg, RngStream(3))
    h = relu(conv_bn(model.stem, model.stem_bn, Tensor(np.ones((1, 1, size, size)))))
    for group, block in enumerate(model.blocks):
        h = block(h, RngStream(4), 0.1)
        assert h.data.shape[2:] == (cfg.spatial_size_of_group(group),) * 2


def test_odd_image_size_accepts_a_block_that_fits_the_true_map():
    # At 9x9 the group-1 map is 5x5, so a 5x5 block fits.
    model = TinyResNet(TinyResNetConfig(image_size=9), RngStream(6),
                       RegularizerConfig(kind="dropblock", block_size=5))
    out = model(Tensor(np.ones((2, 1, 9, 9))), RngStream(7), 0.1)
    assert out.data.shape == (2, 4)


def test_learned_adjacency_is_sized_from_the_true_map():
    # At 15x15 the group-1 map is 8x8: ceil(0.2 * 64) = 13 vertices, not ceil(0.2 * 49) = 10.
    model = TinyResNet(TinyResNetConfig(image_size=15), RngStream(8),
                       RegularizerConfig(kind="dropgraph", adjacency="learned"))
    shapes = {p.data.shape for name, p in model.named_parameters()
              if name.endswith("adjacency_param")}
    assert shapes == {(13, 13)}


@pytest.mark.parametrize("generator,learned", [("graph", 4), ("avg_pool", 0), ("random_noise", 0)])
def test_learned_adjacency_only_for_the_graph_generator(generator, learned):
    """Generators that read no adjacency get no learned adjacency parameter."""
    cfg = parse_config(f"task = image\nreg.kind = dropgraph\nreg.generator = {generator}\n"
                       "reg.adjacency = learned\n")
    model = TinyResNet(cfg.resnet_config(), RngStream(5), cfg.regularizer_config())
    names = [name for name, _ in model.named_parameters()]
    assert sum(name.endswith("adjacency_param") for name in names) == learned


@pytest.mark.parametrize("kind", REG_KINDS)
def test_the_spec_kind_picks_the_insertion_point_modules(kind):
    cfg = parse_config(f"reg.kind = {kind}\nreg.pgr_strategy = top\n"
                       "reg.pgr_active_in_eval = true\n")
    model = TinyResNet(cfg.resnet_config(), RngStream(17), cfg.regularizer_config())
    # The default model regularizes its last group, blocks 2 and 3, skip paths included.
    assert all(b.main_reg is None and b.skip_reg is None for b in model.blocks[:2])
    for block in model.blocks[2:]:
        main, skip = block.main_reg, block.skip_reg
        if kind == "none":
            assert main is None and skip is None
        elif kind in ("dropout", "spatial_dropout"):
            assert type(main) is Dropout and main.spatial == (kind == "spatial_dropout")
            assert skip is None
        elif kind == "dropblock":
            for reg in (main, skip):
                assert type(reg) is DropGraph and reg.params is None
                assert (reg.cfg.alpha, reg.cfg.generator) == (0.0, "none")
        elif kind == "dropgraph":
            for reg in (main, skip):
                assert type(reg) is DropGraph and type(reg.params) is GraphGeneratorParams
        else:
            assert type(main) is PartialGraphReasoning and skip is None
            assert (main.cfg.pgr_strategy, main.cfg.pgr_active_in_eval) == ("top", True)


# -- two-layer GCN -----------------------------------------------------------------------

_SMALL_SBM = SbmGraphSpec(nodes=36, communities=3, p_in=0.3, p_out=0.05,
                          labeled_per_class=4, feature_dim=4, seed=3)


def _gcn(reg_kind="none") -> TwoLayerGcn:
    return TwoLayerGcn(TwoLayerGcnConfig(in_features=4), RngStream(8),
                       RegularizerConfig(kind=reg_kind, block_size=1, rho=0.3))


def _textbook_gcn(model: TwoLayerGcn, g) -> np.ndarray:
    """A relu(A X W1 + b1) W2 + b2, multiplied left to right."""
    a = g.normalized_adjacency
    h = np.maximum((a @ g.node_features) @ model.layer1.weight.data + model.layer1.bias.data, 0.0)
    return (a @ h) @ model.layer2.weight.data + model.layer2.bias.data


@pytest.mark.parametrize("spec", [SbmGraphSpec(), _SMALL_SBM], ids=["default", "small"])
def test_propagated_features_are_the_propagation_and_not_cached(spec, tmp_path):
    g = gen_sbm(spec)
    npt.assert_array_equal(g.propagated_features, g.normalized_adjacency @ g.node_features)
    path = tmp_path / "graph.dgd"
    save_graph_dataset(g, spec, path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    assert b"propagated_features" not in raw[12 : 12 + header_len]


@pytest.mark.parametrize("reg_kind,training", [("none", True), ("none", False),
                                               ("dropgraph", False)])
def test_gcn_matches_the_textbook_order(reg_kind, training):
    g = gen_sbm(_SMALL_SBM)
    model = _gcn(reg_kind)
    # Move the biases off zero so a misplaced bias would show.
    model.layer1.bias.data = RngStream(9).normal(size=16)
    model.layer2.bias.data = RngStream(10).normal(size=3)
    if not training:
        model.eval()
    with no_grad():
        out = model(g, RngStream(11), None).data
    expected = _textbook_gcn(model, g)
    npt.assert_allclose(out, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("layer", ["layer1", "layer2"])
def test_gcn_weight_gradients_through_a_regularized_train_forward(layer):
    g = gen_sbm(_SMALL_SBM)
    model = _gcn("dropgraph")
    rho = schedule_rho(model.reg.cfg, 5, 10)

    def loss(_):
        logits = model(g, RngStream(12, ("step",)), rho)
        return cross_entropy(take_rows(logits, g.train_idx), g.labels[g.train_idx])

    weight = getattr(model, layer).weight
    assert relu_margin(loss, weight)[1] > 1e-4
    assert grad_check(loss, weight) < 1e-6


def _eval_outputs(model, x_or_graph):
    model.eval()
    with no_grad():
        return model(x_or_graph, RngStream(13, ("eval",)), None).data


@pytest.mark.parametrize("strategy", ["random", "top"])
def test_pgr_train_and_infer_arm_runs_in_eval_on_both_backbones(strategy):
    cfg = TinyResNetConfig(stem_channels=4, groups=((1, 4), (1, 8)), image_size=8)
    x = Tensor(RngStream(14).normal(size=(2, 1, 8, 8)))

    def spec(alpha, active_in_eval):
        return RegularizerConfig(kind="pgr", alpha=alpha, pgr_strategy=strategy,
                                 pgr_active_in_eval=active_in_eval)

    def resnet(active_in_eval):
        return TinyResNet(cfg, RngStream(15), spec(0.2, active_in_eval))

    def gcn(active_in_eval):
        # Configs reach PGR on images only; the GCN gets the module directly.
        model = _gcn("none")
        model.reg = PartialGraphReasoning(16, spec(0.5, active_in_eval), RngStream(16))
        return model

    cases = [(lambda: TinyResNet(cfg, RngStream(15)), resnet, x),
             (lambda: _gcn("none"), gcn, gen_sbm(_SMALL_SBM))]
    for build_bare, build_pgr, inputs in cases:
        bare = _eval_outputs(build_bare(), inputs)
        npt.assert_array_equal(_eval_outputs(build_pgr(False), inputs), bare)
        assert np.abs(_eval_outputs(build_pgr(True), inputs) - bare).max() > 1e-6
