from dataclasses import replace

import pytest

from dropgraph.backbones import TinyResNet, TinyResNetConfig, TwoLayerGcnConfig
from dropgraph.config import ExperimentConfig, config_to_text, parse_config
from dropgraph.data import SbmGraphSpec, SyntheticImageSpec
from dropgraph.errors import ConfigError
from dropgraph.regularizers import RegularizerConfig
from dropgraph.rng import RngStream


@pytest.mark.parametrize("text", ["", "task = node_graph\n", "train.lr_decay_points =\n"])
def test_text_round_trip_is_identity(text):
    cfg = parse_config(text)
    assert parse_config(config_to_text(cfg)) == cfg
    assert config_to_text(parse_config(config_to_text(cfg))) == config_to_text(cfg)


@pytest.mark.parametrize("text, digest", [
    ("", "b549c9c1d8b6"),
    ("task = node_graph\n", "f30f0b4a6091"),
])
def test_config_hash_is_stable(text, digest):
    # Run records carry this hash; a change to key names, order or value
    # formatting would orphan every earlier record.
    assert parse_config(text).config_hash() == digest


def test_execution_keys_stay_out_of_the_hash():
    base = parse_config("")
    other = parse_config("seeds = 4,5,6\nout_dir = elsewhere\nthreads = 2\n")
    assert other.config_hash() == base.config_hash()


_IMAGE = ""
_GRAPH = "task = node_graph\n"


@pytest.mark.parametrize("text, section, field", [
    (_IMAGE + "task = video", "task", "task"),
    (_IMAGE + "threads = 0", "threads", "threads"),
    (_IMAGE + "seeds = x", "seeds", "seeds"),
    (_IMAGE + "seeds = 1,1,1", "seeds", "seed may appear once"),
    (_IMAGE + "foo.bar = 1", "line", "foo.bar"),
    (_IMAGE + "data.classes = many", "data", "classes"),
    (_IMAGE + "data.classes = 5", "data", "classes"),
    (_IMAGE + "data.image_size = 4", "data", "image_size"),
    (_IMAGE + "data.train_count = 1", "data", "train_count"),
    (_IMAGE + "data.val_count = 1", "data", "val_count"),
    (_IMAGE + "data.noise_std = -1", "data", "noise_std"),
    (_IMAGE + "model.stem_channels = 0", "model", "channel"),
    (_IMAGE + "model.groups = 2x6", "model", "channel"),
    (_IMAGE + "model.groups = 2", "model", "groups"),
    (_IMAGE + "model.groups = 2x16,0x32", "model", "groups need at least one block each"),
    (_IMAGE + "model.groups = -1x16,2x32", "model", "groups need at least one block each"),
    (_IMAGE + "model.regularize_groups = first", "model", "regularize_groups"),
    (_IMAGE + "model.regularize_groups = 2", "model", "regularize_groups"),
    (_IMAGE + "reg.kind = bogus", "reg", "kind"),
    (_IMAGE + "reg.alpha = 1.5", "reg", "alpha"),
    (_IMAGE + "reg.rho = 1.0", "reg", "rho"),
    (_IMAGE + "reg.block_size = 4", "reg", "block_size"),
    (_IMAGE + "reg.kind = dropgraph\nreg.block_size = 17", "reg", "block_size"),
    (_IMAGE + "reg.adjacency = bogus", "reg", "adjacency"),
    (_IMAGE + "reg.generator = bogus", "reg", "generator"),
    (_IMAGE + "reg.scheduler = bogus", "reg", "scheduler"),
    (_IMAGE + "reg.pgr_strategy = bogus", "reg", "pgr_strategy"),
    (_IMAGE + "reg.rescale_dropout = maybe", "reg", "rescale_dropout"),
    (_IMAGE + "train.epochs = 0", "train", "epochs"),
    (_IMAGE + "train.batch_size = 0", "train", "batch_size"),
    (_IMAGE + "train.lr = -1", "train", "lr"),
    (_IMAGE + "train.weight_decay = -1", "train.weight_decay", "must be >= 0"),
    (_GRAPH + "train.lr_decay_factor = -3", "train.lr_decay_factor", "must be >= 0"),
    (_IMAGE + "train.momentum = 1.0", "train", "momentum"),
    (_IMAGE + "train.lr_decay_points = 0.5,1.5", "train", "lr_decay_points"),
    (_IMAGE + "seeds = 1,,2,3", "seeds", "blank entry"),
    (_IMAGE + "train.lr_decay_points = ,0.5,", "train.lr_decay_points", "blank entry"),
    (_GRAPH + "reg.kind = pgr", "reg", "kind"),
    (_GRAPH + "data.p_in = 0.001", "data", "p_in"),
    (_GRAPH + "data.nodes = 10", "data", "nodes"),
    (_GRAPH + "model.hidden = 6", "model", "hidden"),
    (_GRAPH + "model.hidden = 0", "model", "hidden width must be a positive multiple of 4"),
    (_GRAPH + "model.hidden = -4", "model", "hidden width must be a positive multiple of 4"),
    (_GRAPH + "data.feature_dim = 0", "data", "feature_dim must be >= 1"),
    (_GRAPH + "reg.kind = dropgraph\nreg.block_size = 3", "reg", "block_size"),
    (_IMAGE + "train.lr = nan", "train.lr", "must be a finite number, got 'nan'"),
    (_IMAGE + "train.weight_decay = inf", "train.weight_decay", "finite"),
    (_IMAGE + "train.lr_decay_factor = -inf", "train.lr_decay_factor", "finite"),
    (_IMAGE + "train.lr_decay_points = 0.5,nan", "train.lr_decay_points", "finite"),
    (_IMAGE + "data.noise_std = nan", "data.noise_std", "finite"),
    (_GRAPH + "data.p_in = nan", "data.p_in", "finite"),
    (_GRAPH + "data.p_in = 2.0", "data", "p_in=2.0"),
    (_GRAPH + "data.p_out = -0.5", "data", "p_out=-0.5"),
    (_GRAPH + "data.feature_noise = -1", "data", "feature_noise must be >= 0"),
    (_GRAPH + "data.labeled_per_class = 0", "data", "labeled_per_class must be >= 1"),
    (_GRAPH + "data.communities = 1", "data", "communities must be >= 2"),
    (_IMAGE + "seeds = 1,2,-3", "seeds", "a seed must be >= 0, got 1,2,-3"),
    (_IMAGE + "data.seed = -1", "data", "seed must be >= 0, got -1"),
    (_GRAPH + "data.seed = -4", "data", "seed must be >= 0, got -4"),
])
def test_rejected_values_name_section_and_field(text, section, field):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    msg = str(info.value)
    assert msg.startswith(section), msg
    assert field in msg, msg


def test_fewer_than_three_seeds_rejected_at_parse_time():
    with pytest.raises(ConfigError, match="^seeds: .*got 2"):
        parse_config("seeds = 1,2")


def test_block_size_rule_applies_to_mask_kinds_only():
    # dropout variants never read block_size, so a block larger than the map is harmless
    for kind in ("dropout", "spatial_dropout", "pgr"):
        cfg = parse_config(f"reg.kind = {kind}\nreg.block_size = 17")
        TinyResNet(cfg.resnet_config(), RngStream(0), cfg.regularizer_config())
    with pytest.raises(ConfigError, match="block_size 17"):
        TinyResNet(TinyResNetConfig(), RngStream(0),
                   RegularizerConfig(kind="dropblock", block_size=17))


def test_resnet_spec_requires_positive_channel_multiples_of_4():
    with pytest.raises(ConfigError, match="positive multiples of 4"):
        TinyResNetConfig(stem_channels=0)
    with pytest.raises(ConfigError, match="positive multiples of 4"):
        TinyResNetConfig(groups=((2, 16), (2, 0)))


def test_component_specs_follow_the_config():
    # data.* and reg.* take their defaults from the specs, so a default config builds theirs.
    for cfg in (ExperimentConfig(), parse_config("")):
        assert cfg.data_spec() == SyntheticImageSpec()
        assert replace(cfg, task="node_graph").data_spec() == SbmGraphSpec()
        assert cfg.resnet_config() == TinyResNetConfig()
        assert cfg.regularizer_config() == RegularizerConfig()
    cfg = parse_config("task = node_graph\ndata.nodes = 240\ndata.feature_dim = 8\n"
                       "data.seed = 5\nmodel.hidden = 8")
    assert cfg.data_spec() == SbmGraphSpec(nodes=240, feature_dim=8, seed=5)
    assert cfg.gcn_config() == TwoLayerGcnConfig(in_features=8, hidden=8, classes=3)


def test_regularize_groups_all_regularizes_every_group():
    cfg = parse_config("model.regularize_groups = all\nreg.kind = dropgraph\n")
    assert cfg.resnet_config().regularize_groups == (0, 1)
    model = TinyResNet(cfg.resnet_config(), RngStream(0), cfg.regularizer_config())
    assert len(model.blocks) == 4 and all(b.main_reg is not None for b in model.blocks)


@pytest.mark.parametrize("first, last", [("node_graph", "image"), ("image", "node_graph")])
def test_repeated_task_takes_value_and_defaults_from_the_last_line(first, last):
    cfg = parse_config(f"task = {first}\nreg.kind = dropgraph\ntask = {last}\n")
    assert cfg == parse_config(f"task = {last}\nreg.kind = dropgraph\n")
