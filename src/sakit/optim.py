"""Classical SGD with momentum and L2 weight decay folded into the gradient;
every parameter, batchnorm scales and shifts included, is decayed."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SgdState:
    """Optimizer hyperparameters plus per-parameter velocity buffers."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be nonnegative")


def sgd_step(state: SgdState, params: dict, grads: dict):
    """In-place update: v <- momentum*v + grad + wd*param; param <- param - lr*v."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for '{name}'")
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
        v = state.momentum * v + g + state.weight_decay * p
        state.velocity[name] = v
        p -= state.learning_rate * v
    return params
