import numpy as np
import numpy.testing as npt
import pytest

from dropgraph.backbones import (
    TinyResNet,
    TinyResNetConfig,
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from dropgraph.config import parse_config
from dropgraph.errors import ContractError
from dropgraph.rng import RngStream


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


@pytest.mark.parametrize("generator,learned", [("graph", 4), ("avg_pool", 0), ("random_noise", 0)])
def test_learned_adjacency_only_for_the_graph_generator(generator, learned):
    """Generators that read no adjacency get no learned adjacency parameter."""
    cfg = parse_config(f"task = image\nreg.kind = dropgraph\nreg.generator = {generator}\n"
                       "reg.adjacency = learned\n")
    model = TinyResNet(cfg.resnet_config(), RngStream(5), reg_kind="dropgraph",
                       reg_cfg=cfg.regularizer_config())
    names = [name for name, _ in model.named_parameters()]
    assert sum(name.endswith("adjacency_param") for name in names) == learned
