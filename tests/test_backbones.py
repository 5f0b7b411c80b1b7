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
from dropgraph.data import SbmGraphSpec, gen_sbm, load_arrays, save_arrays, save_graph_dataset
from dropgraph.errors import ContractError
from dropgraph.gradcheck import grad_check, relu_margin
from dropgraph.nn import cross_entropy
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
    src.blocks[0].conv1.running_mean = np.arange(4.0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(src, path)
    apply_checkpoint(dst, path)
    for (name, p), (_, q) in zip(src.named_parameters(), dst.named_parameters()):
        npt.assert_array_equal(p.data, q.data, err_msg=name)
    npt.assert_array_equal(dst.blocks[0].conv1.running_mean, np.arange(4.0))


def _tiny_gcn_checkpoint(path):
    """A checkpoint of four small arrays, so every cut point can be tried."""
    save_checkpoint(TwoLayerGcn(TwoLayerGcnConfig(in_features=4, hidden=4, classes=2),
                                RngStream(3)), path)
    return path.read_bytes()


def test_truncated_checkpoint_raises_contract_error(tmp_path):
    path = tmp_path / "model.ckpt"
    raw = _tiny_gcn_checkpoint(path)
    assert len(load_checkpoint(path)) == 4
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ContractError, match="model.ckpt"):
            load_checkpoint(path)


def test_non_utf8_checkpoint_name_raises_contract_error(tmp_path):
    path = tmp_path / "model.ckpt"
    raw = bytearray(_tiny_gcn_checkpoint(path))
    raw[raw.index(b"layer1.weight")] = 0xFF  # first byte of a name in the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(ContractError, match="bad JSON header"):
        load_checkpoint(path)


def _with_first_array_header(raw: bytes, header: dict) -> bytes:
    """``raw`` with the first array's ``.npy`` header dict replaced, padding kept."""
    start = raw.index(b"{", raw.index(b"\x93NUMPY", 1))
    end = raw.index(b"\n", start)
    return raw[:start] + repr(header).encode("latin1").ljust(end - start) + raw[end:]


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: b"X" + raw[1:], "bad .npy record at byte 0"),
    (lambda raw: raw.replace(b'"names": [', b'"names": {', 1), "bad JSON header"),
    (lambda raw: raw.replace(b'"names": [', b'"nameZ": [', 1), "bad JSON header"),
    (lambda raw: raw.replace(b'"layer1.weight"', b'1000000000000000', 1), "bad JSON header"),
    (lambda raw: _with_first_array_header(
        raw, {"descr": "<f8", "fortran_order": False, "shape": (9999999, 99999)}),
     r"shape \(9999999, 99999\) of float64 needs 7999919200008 bytes"),
    (lambda raw: _with_first_array_header(
        raw, {"descr": "<f8", "fortran_order": False, "shape": (-4, 4)}), "bytes"),
    (lambda raw: _with_first_array_header(
        raw, {"descr": "|O", "fortran_order": False, "shape": (2,)}), "bad .npy record"),
    (lambda raw: raw + b"\0", "1 bytes after the last array"),
], ids=["magic", "names_not_a_list", "no_names", "name_not_a_string",
        "size_beyond_the_file", "negative_size", "object_array", "trailing_byte"])
def test_corrupt_checkpoint_raises_contract_error(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    path.write_bytes(corrupt(_tiny_gcn_checkpoint(path)))
    with pytest.raises(ContractError, match=message):
        load_checkpoint(path)


def test_dataset_cache_loaded_as_checkpoint_raises_contract_error(tmp_path):
    path = tmp_path / "graph.dgd"
    save_graph_dataset(gen_sbm(_SMALL_SBM), _SMALL_SBM, path)
    with pytest.raises(ContractError, match="holds 'graph' arrays, not 'checkpoint'"):
        load_checkpoint(path)
    with pytest.raises(ContractError, match="graph.dgd"):
        apply_checkpoint(_small_model(5), path)


@pytest.mark.parametrize("name, dtype", [("stem.kernel", np.float32),
                                         ("blocks.0.conv1.running_mean", np.float32),
                                         ("head.bias", np.int64)])
def test_checkpoint_dtype_mismatch_raises_contract_error(tmp_path, name, dtype):
    src = _small_model(6)
    stored = {n: p.data for n, p in src.named_parameters()}
    stored.update(src.named_buffers())
    stored[name] = stored[name].astype(dtype)
    path = tmp_path / "model.ckpt"
    save_arrays(path, "checkpoint", stored)
    dst = _small_model(7)
    with pytest.raises(ContractError, match=f"mismatch for '{name}'"):
        apply_checkpoint(dst, path)


@pytest.mark.parametrize("size", range(8, 18))
def test_group_map_size_matches_the_forward_pass(size):
    # A stride-2, padding-1 3x3 conv maps a side of n to ceil(n/2), odd n included.
    cfg = TinyResNetConfig(stem_channels=4, groups=((1, 4), (1, 4), (1, 4)), image_size=size)
    model = TinyResNet(cfg, RngStream(3))
    h = relu(model.stem(Tensor(np.ones((1, 1, size, size)))))
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
    _, arrays = load_arrays(path, "graph")
    assert list(arrays) == ["node_features", "normalized_adjacency", "labels",
                            "train_idx", "val_idx", "test_idx"]


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


def _train_loss_all_rows(model, g, rng, rho):
    """The train loss read off the logits of all n nodes, as a row gather."""
    logits = model(g, rng, rho)
    return cross_entropy(take_rows(logits, g.train_idx), g.labels[g.train_idx])


def _train_loss_row_block(model, g, rng, rho):
    return cross_entropy(model(g, rng, rho, g.train_adjacency), g.labels[g.train_idx])


@pytest.mark.parametrize("layer", ["layer1", "layer2"])
def test_gcn_weight_gradients_through_a_regularized_train_forward(layer):
    g = gen_sbm(_SMALL_SBM)
    model = _gcn("dropgraph")
    rho = schedule_rho(model.reg.cfg, 5, 10)
    weight = getattr(model, layer).weight
    for train_loss in (_train_loss_all_rows, _train_loss_row_block):
        def loss(_):
            return train_loss(model, g, RngStream(12, ("step",)), rho)

        assert relu_margin(loss, weight)[1] > 1e-4
        assert grad_check(loss, weight) < 1e-6


def _node_graph_gcn() -> TwoLayerGcn:
    """The GCN a node-graph ``dropgraph`` run trains, at the config defaults."""
    cfg = parse_config("task = node_graph\nreg.kind = dropgraph\n")
    return TwoLayerGcn(cfg.gcn_config(), RngStream(8), cfg.regularizer_config())


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_gcn_row_blocks_give_the_rows_of_the_full_logits(training):
    g = gen_sbm(SbmGraphSpec())
    model = _node_graph_gcn()
    if not training:
        model.eval()
    with no_grad():
        full = model(g, RngStream(11), 0.1).data
        for idx, rows in ((g.train_idx, g.train_adjacency), (g.val_idx, g.val_adjacency)):
            npt.assert_array_equal(model(g, RngStream(11), 0.1, rows).data, full[idx])


@pytest.mark.parametrize("spec, rtol", [
    (SbmGraphSpec(), 0.0),
    (SbmGraphSpec(nodes=600, labeled_per_class=30), 1e-12),
], ids=["300-nodes", "600-nodes"])
def test_gcn_row_block_step_gradients_match_the_all_rows_gather(spec, rtol):
    """OpenBLAS 0.3.31 sums the two forms' products in the same order at 300
    nodes; at 600 it picks other kernels, which move the last bits."""
    g = gen_sbm(spec)
    grads = []
    for train_loss in (_train_loss_all_rows, _train_loss_row_block):
        model = _node_graph_gcn()
        train_loss(model, g, RngStream(12, ("step", 0)), 0.1).backward()
        grads.append([p.grad for p in model.parameters()])
    assert all(grad is not None for grad in grads[0])
    for reference, got in zip(*grads):
        npt.assert_allclose(got, reference, rtol=rtol, atol=0)


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
