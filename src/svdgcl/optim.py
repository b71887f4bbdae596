"""Adam with bias correction, applied in place to both embedding tables."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelState

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimizerState:
    """First and second moment estimates per table, plus the step count."""

    m_user: np.ndarray
    v_user: np.ndarray
    m_item: np.ndarray
    v_item: np.ndarray
    step: int = 0


def init_optimizer(state: ModelState) -> OptimizerState:
    return OptimizerState(
        m_user=np.zeros_like(state.e_user),
        v_user=np.zeros_like(state.e_user),
        m_item=np.zeros_like(state.e_item),
        v_item=np.zeros_like(state.e_item),
    )


def adam_step(state: ModelState, opt: OptimizerState, grad_user: np.ndarray, grad_item: np.ndarray, lr: float):
    """One bias-corrected Adam update; a zero gradient leaves tables untouched
    while the step counter still advances."""
    if grad_user.shape != state.e_user.shape or grad_item.shape != state.e_item.shape:
        raise ValueError("gradient shapes must match the embedding tables")
    opt.step += 1
    c1 = 1.0 - BETA1**opt.step
    c2 = 1.0 - BETA2**opt.step
    for param, m, v, g in (
        (state.e_user, opt.m_user, opt.v_user, grad_user),
        (state.e_item, opt.m_item, opt.v_item, grad_item),
    ):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        param -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
