"""Graph-reasoning feature-map regularization on a small float64 autodiff core.

The package builds up in layers: ``tensor`` (reverse-mode autodiff), ``nn``
(the conv-norm unit, the linear layer and losses), ``regularizers`` (one
dropout, per scalar or per feature vector; block masking, which DropBlock is
alone and the graph regularizer fills with distortions from its GCN
generator; partial graph reasoning; the drop-probability schedulers),
``backbones`` (a tiny residual CNN and a two-layer GCN with insertion
points), ``data``/``train`` (synthetic tasks and the seeded experiment
harness), and ``cli`` (run/sweep/verify front end).
"""

from .backbones import (
    TinyResNet,
    TinyResNetConfig,
    TwoLayerGcn,
    TwoLayerGcnConfig,
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .config import ExperimentConfig, config_to_text, parse_config
from .data import (
    GraphInstance,
    ImageDataset,
    SbmGraphSpec,
    SyntheticImageSpec,
    gen_images,
    gen_sbm,
)
from .errors import ConfigError, ContractError, DimensionError, DropGraphError
from .gradcheck import grad_check
from .nn import ConvBN, Linear, Module, conv2d, cross_entropy, global_avg_pool
from .regularizers import (
    DropGraph,
    DropMask,
    Dropout,
    GraphGeneratorParams,
    PartialGraphReasoning,
    RegularizerConfig,
    VertexSet,
    build_adjacency,
    dropgraph_forward,
    dropout,
    graph_reasoning,
    sample_block_mask,
    sample_vertices,
    schedule_rho,
)
from .rng import RngStream
from .tensor import Tensor, matmul, no_grad, relu, softmax_rows
from .train import RunRecord, SGD, multi_seed, run_experiment, summarize_records

__version__ = "0.1.0"
