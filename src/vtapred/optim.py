"""Gradient clipping, the AdaDelta update, and the full-batch training loop.

AdaDelta keeps two exponential moving averages per tensor (squared gradients
and squared updates) and needs no hand-tuned step size; the learning rate is
a plain multiplier that defaults to 1.  Gradients are clipped element-wise
before the update so a single wild component cannot derail training.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .network import (
    Batch,
    NetworkParams,
    backward,
    draw_dropout_masks,
    forward,
    loss,
)


class TrainingError(Exception):
    """Numeric failure during optimization (non-finite loss or gradients)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    clip: float = 0.1
    clip_mode: str = "element"   # "element" or "norm" (global L2)
    keep_prob: float = 0.75
    lr: float = 1.0
    rho: float = 0.95
    eps: float = 1e-6
    lam_nyhac: float = 1.0
    lam_bmi: float = 1.0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.clip <= 0:
            raise ValueError("clip must be positive")
        if self.clip_mode not in ("element", "norm"):
            raise ValueError("clip_mode must be 'element' or 'norm'")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


def clip(gradient: np.ndarray, limit: float) -> np.ndarray:
    """Clamp every component to [-limit, limit]."""
    return np.clip(gradient, -limit, limit)


def clip_global_norm(grads: dict[str, np.ndarray], limit: float) -> dict[str, np.ndarray]:
    """Rescale all gradients together so their joint L2 norm is <= limit."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= limit or total == 0.0:
        return grads
    scale = limit / total
    return {name: g * scale for name, g in grads.items()}


class AdaDeltaState:
    """Per-tensor moving averages of squared gradients and squared updates."""

    def __init__(self, params: NetworkParams, rho: float = 0.95, eps: float = 1e-6, lr: float = 1.0):
        self.rho = rho
        self.eps = eps
        self.lr = lr
        self.sq_grad = {name: np.zeros_like(t) for name, t in params.tensors.items()}
        self.sq_delta = {name: np.zeros_like(t) for name, t in params.tensors.items()}


def adadelta_step(state: AdaDeltaState, params: NetworkParams, grads: dict[str, np.ndarray]) -> None:
    """One in-place AdaDelta update.

    For each tensor: accumulate the squared gradient, scale the gradient by
    the ratio of RMS(previous updates) to RMS(gradients), apply, and then
    accumulate the squared update.  Accumulators stay non-negative by
    construction.  A NaN gradient is a hard error naming the tensor.
    """
    rho, eps, lr = state.rho, state.eps, state.lr
    for name, tensor in params.tensors.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in tensor {name!r}")
        sq_g = state.sq_grad[name]
        sq_d = state.sq_delta[name]
        sq_g *= rho
        sq_g += (1.0 - rho) * g * g
        delta = -(np.sqrt(sq_d + eps) / np.sqrt(sq_g + eps)) * g * lr
        sq_d *= rho
        sq_d += (1.0 - rho) * delta * delta
        tensor += delta


def train(
    batch: Batch,
    config: TrainConfig,
    params: NetworkParams,
    rng: np.random.Generator,
) -> tuple[NetworkParams, list[dict[str, float]]]:
    """Full-batch training for ``config.epochs`` epochs.

    ``batch`` holds every training row, already standardized (as
    ``evaluation.build_examples`` returns it).  Every epoch draws fresh
    dropout masks (one per row per layer), runs one forward/backward pass
    over the whole batch, clips the mean-loss gradients, and applies one
    AdaDelta step.  Params are updated in place and also returned.  The
    history holds one dict per epoch with the total loss, its three
    components, and the largest post-clip gradient magnitude.

    With ``epochs == 0`` the parameters are returned untouched and the
    history is empty.
    """
    state = AdaDeltaState(params, rho=config.rho, eps=config.eps, lr=config.lr)
    history: list[dict[str, float]] = []
    for epoch in range(config.epochs):
        masks = draw_dropout_masks(params.config, len(batch), config.keep_prob, rng)
        outputs, cache = forward(params, batch.features, batch.decade_index, masks)
        total, parts = loss(outputs, batch, config.lam_nyhac, config.lam_bmi)
        if not np.isfinite(total):
            raise TrainingError(f"non-finite loss at epoch {epoch}")
        grads = backward(params, cache, batch, config.lam_nyhac, config.lam_bmi)
        if config.clip_mode == "element":
            grads = {name: clip(g, config.clip) for name, g in grads.items()}
        else:
            grads = clip_global_norm(grads, config.clip)
        max_grad = max(float(np.max(np.abs(g))) if g.size else 0.0 for g in grads.values())
        adadelta_step(state, params, grads)
        history.append({
            "epoch": float(epoch),
            "loss": total,
            "vta_loss": parts["vta"],
            "nyhac_loss": parts["nyhac"],
            "bmi_loss": parts["bmi"],
            "max_grad": max_grad,
        })
    return params, history


def write_loss_history(path, history: list[dict[str, float]]) -> None:
    """CSV export of the per-epoch losses: epoch,loss,vta_loss,nyhac_loss,bmi_loss."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "vta_loss", "nyhac_loss", "bmi_loss"])
        for row in history:
            writer.writerow([
                int(row["epoch"]),
                f"{row['loss']:.12g}",
                f"{row['vta_loss']:.12g}",
                f"{row['nyhac_loss']:.12g}",
                f"{row['bmi_loss']:.12g}",
            ])
