"""Adam and AdamW with bias correction over diffcore tensors."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor

BETA1 = 0.9      # first-moment decay
BETA2 = 0.999    # second-moment decay
EPS = 1e-8


class OptimizerState:
    """Per-parameter first/second moments plus the shared step size.

    weight_decay is the decoupled decay of AdamW; adam_step ignores it.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def _step(state: OptimizerState, params: list[Tensor], decoupled_decay: float):
    if params is not state.params and list(params) != state.params:
        params = list(params)
        if len(params) != len(state.params):
            raise ShapeError("optimizer_step", (len(params),), (len(state.params),))
    state.t += 1
    t = state.t
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError("optimizer_step", g.shape, p.data.shape)
        if decoupled_decay:
            p.data -= state.lr * decoupled_decay * p.data
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)


def adam_step(state: OptimizerState, params: list[Tensor]):
    """Bias-corrected Adam update from each p.grad."""
    _step(state, params, decoupled_decay=0.0)


def adamw_step(state: OptimizerState, params: list[Tensor]):
    """Adam plus decoupled weight decay applied before the Adam delta."""
    _step(state, params, decoupled_decay=state.weight_decay)
