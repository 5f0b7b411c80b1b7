"""The benchmark's workloads: one `dropgraph run` config each.

Each workload exercises one group of planned optimisations and bypasses
the others, so a change shows up on the workload that runs its mechanism
and reads "no change" on the rest:

* image-train - training steps on the default TinyResNet (batch 32) with
  the dropgraph regularizer: conv forward/dx/dw, batch norm, the tape walk
  and the per-item graph branch.  Eval and the dataset are kept tiny.
* image-eval  - a large validation split scored at batch 256 under
  ``no_grad`` after one tiny epoch, with no regularizer: conv forward at
  eval size, the largest im2col matrices and the largest dataset cache.
  No regularizer, so no graph branch; almost no backward.
* node-graph  - the default 300-node SBM with the dropgraph regularizer on
  one ~60-vertex graph per step, for many short steps: small-op and tape
  overhead, dense ``A_hat`` matmuls.  No conv at all.

``reg.scheduler = constant`` on image-train holds the drop probability at
its target (0.1, block 3 on the 16x16 map of the last group), so
``regularizers.drop_fraction_ratio`` measures the mask calibration at the
paper's operating point instead of averaging it over a ramp from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Patch sites that only image or only node-graph runs reach.
_GRAPH_ONLY = frozenset({"cli.gen_sbm", "train.gen_sbm", "train._evaluate_graph",
                         "backbones.TwoLayerGcn.forward"})
_IMAGE_ONLY = frozenset({"cli.gen_images", "train.gen_images", "train._evaluate_image",
                         "backbones.TinyResNet.forward", "nn.conv2d", "nn.batchnorm_train",
                         "_conv.conv_forward", "_conv.conv_dx_full", "_conv.conv_dw"})
_REGULARIZER = frozenset({"regularizers.dropgraph_forward", "regularizers.sample_block_mask",
                          "backbones.sample_block_mask", "regularizers.sample_vertices",
                          "regularizers.build_adjacency",
                          "regularizers.generate_graph_distortions",
                          "regularizers.pool_expand_apply"})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # Patch sites this workload must never reach; every other site must run.
    unused: frozenset = field(default_factory=frozenset)

    def seeds(self, seed: int) -> tuple:
        """Training seeds of one invocation (multi_seed needs at least 3)."""
        return (3 * seed, 3 * seed + 1, 3 * seed + 2)

    def config_text(self, seed: int) -> str:
        """The config file; the training seeds go on the command line."""
        keys = {**self.config, "data.seed": seed, "threads": 1}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


WORKLOADS = {w.name: w for w in (
    Workload(
        name="image-train",
        why="training steps with the dropgraph regularizer: conv fwd/dx/dw, batch norm, "
            "tape walk and 32 small graphs per insertion point; eval and data kept tiny",
        config={"task": "image", "reg.kind": "dropgraph", "reg.scheduler": "constant",
                "data.train_count": 64, "data.val_count": 32, "train.epochs": 2},
        # The skip path shares the block's mask, sampled in backbones.
        unused=_GRAPH_ONLY | {"regularizers.sample_block_mask"},
    ),
    Workload(
        name="image-eval",
        why="eval of a large val split at batch 256 under no_grad plus the largest dataset "
            "cache; no regularizer and almost no backward",
        config={"task": "image", "reg.kind": "none",
                "data.train_count": 64, "data.val_count": 320, "train.epochs": 1},
        unused=_GRAPH_ONLY | _REGULARIZER,
    ),
    Workload(
        name="node-graph",
        why="many short GCN steps on the 300-node SBM with the regularizer on one ~60-vertex "
            "graph per step; small-op and tape overhead, no conv",
        config={"task": "node_graph", "reg.kind": "dropgraph", "train.epochs": 1000},
        # block_size 1 on a (1, c, n, 1) map: the mask is sampled inside dropgraph_forward.
        unused=_IMAGE_ONLY | {"backbones.sample_block_mask"},
    ),
)}
