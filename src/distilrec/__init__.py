"""Debiased recommendation via teacher-student distillation.

A small trusted network is trained on uniformly logged feedback and
distills its predictions into a larger student trained on the full
(biased) log; dropout at inference time provides Thompson-sampling
exploration when the student selects its own future training data.
"""

from .data import Dataset, Interaction, Source, SplitSpec, UnobservedSampler
from .losses import LossBreakdown, RegLossKind
from .metrics import MetricsResult, auc, bce_eval, evaluate
from .network import ForwardMode, Network, NetworkConfig, forward_batch, param_count
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Interaction",
    "Source",
    "SplitSpec",
    "UnobservedSampler",
    "LossBreakdown",
    "RegLossKind",
    "MetricsResult",
    "auc",
    "bce_eval",
    "evaluate",
    "ForwardMode",
    "Network",
    "NetworkConfig",
    "forward_batch",
    "param_count",
    "RngStream",
    "__version__",
]
