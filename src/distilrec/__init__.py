"""Debiased recommendation via teacher-student distillation.

A small trusted network is trained on uniformly logged feedback and
distills its predictions into a larger student trained on the full
(biased) log; dropout at inference time provides Thompson-sampling
exploration when the student selects its own future training data.

Import each name from its module: data, network, losses, optim, metrics, rng
or train, the training loop over the others.
"""

__version__ = "0.1.0"
