"""Scale-aggregation network toolkit.

A numpy library for building multi-scale aggregation blocks inside
bottleneck networks, training them with a from-scratch autograd engine,
allocating per-scale channel budgets from trained batchnorm importances,
and analyzing cost (MACs) and receptive fields.
"""

from .allocator import (NeuronRecord, ProjectionConfig, brute_oracle,
                        extract_importance, greedy_project, run_pipeline)
from .autograd import Graph, GradcheckReport, gradcheck
from .blocks import SABlockSpec, build_sa_block, build_sa_residual
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Dataset, augment, load_cifar, synthetic_dataset
from .flops import BlockBudget, block_budget, network_flops, neuron_cost
from .netspec import LayerSpec, NetworkSpec, ShapeError, SpecError, propagate_shapes
from .optim import SgdState, sgd_step
from .presets import (AllocationPlan, build_cifar_resnet, build_resnet,
                      build_scalenet, build_seed, even_allocation, parse_plan,
                      reference_plan, serialize_plan)
from .rf import RFInterval, RFState, rf_empirical_oracle, rf_network_report, rf_propagate
from .training import TrainConfig, downsample_sweep, train

__version__ = "0.1.0"
