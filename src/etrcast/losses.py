"""Asymmetric piecewise training loss with subgradients.

For the signed error eps = prediction - actual (hours):

    loss(eps) = alpha * |eps|   if eps < 0        (under-prediction)
                |eps|           if 0 <= eps <= tau
                beta * |eps|    if eps > tau      (late over-prediction)

The function is continuous at 0 and jumps by (beta - 1) * tau at tau. At the
kinks the subgradient takes the right-branch value: +1 at eps = 0, +beta at
eps = tau. A checkpoint stores the loss it was trained with, and ``eval``
scores WAE and CSI with that loss's alpha, beta and tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 5.0
    beta: float = 2.0
    tau: float = 8.0

    def __post_init__(self):
        if not (self.alpha > 1.0 and self.beta > 1.0):
            raise ValueError(f"alpha and beta must exceed 1, got {self.alpha}, {self.beta}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def piecewise_loss(eps: float, cfg: LossConfig = LossConfig()) -> float:
    """Loss for a single signed error, exactly per the three branches."""
    if eps < 0.0:
        return cfg.alpha * abs(eps)
    if eps <= cfg.tau:
        return abs(eps)
    return cfg.beta * abs(eps)


def piecewise_loss_vec(eps: np.ndarray, cfg: LossConfig = LossConfig()) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)
    a = np.abs(eps)
    return np.where(eps < 0.0, cfg.alpha * a, np.where(eps > cfg.tau, cfg.beta * a, a))


def asymmetric_loss(
    preds: np.ndarray, actuals: np.ndarray, cfg: LossConfig = LossConfig()
) -> tuple[float, np.ndarray]:
    """Mean piecewise loss and its subgradient w.r.t. each prediction.

    Subgradient per element (before the 1/N factor): -alpha for eps < 0,
    +1 for 0 <= eps < tau, +beta for eps >= tau (right-branch kink rule).
    """
    preds = np.asarray(preds, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if preds.shape != actuals.shape or preds.ndim != 1:
        raise ValueError(f"shape mismatch: preds {preds.shape} vs actuals {actuals.shape}")
    n = preds.size
    if n == 0:
        raise ValueError("asymmetric_loss: empty input")
    eps = preds - actuals
    value = float(math_fsum(piecewise_loss_vec(eps, cfg))) / n
    slopes = np.where(eps < 0.0, -cfg.alpha, np.where(eps >= cfg.tau, cfg.beta, 1.0))
    return value, slopes / n


def math_fsum(values) -> float:
    """Compensated sum; exact combination contract for metric reductions. inf on overflow."""
    try:
        return math.fsum(float(v) for v in values)
    except OverflowError:  # finite terms whose sum exceeds the float64 range
        return math.inf
