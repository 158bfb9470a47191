"""Gradient clipping, the AdaDelta update, and the full-batch training loop.

AdaDelta keeps two exponential moving averages per parameter (squared
gradients and squared updates) and needs no hand-tuned step size.  Gradients
are clipped element-wise before the update so a single wild component cannot
derail training.  The recipe is fixed: ``ADADELTA_RHO``, ``ADADELTA_EPS``,
``CLIP_LIMIT`` and the dropout keep probability ``KEEP_PROB`` below.

The parameters, the gradients and both accumulators are each one flat
buffer with the named tensors as views (``network.FlatTensors``), all in the
dtype of the parameter buffer (float32 in a fit, ``network.TRAIN_DTYPE``).
Clipping, the finite check and the AdaDelta update are therefore one
vectorised pass each, and the largest gradient one max and one min, element
by element in the same operation order as a per-tensor loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import write_csv
from .network import (
    TASKS,
    Batch,
    FlatTensors,
    NetworkParams,
    Workspace,
    backward,
    draw_dropout_masks,
    forward,
    loss,
)


ADADELTA_RHO = 0.95  # decay of both moving averages
ADADELTA_EPS = 1e-6  # conditioning term inside both square roots
CLIP_LIMIT = 0.1     # element-wise gradient clip
KEEP_PROB = 0.75     # dropout keep probability of every masked layer
AUX_WEIGHT = 1.0     # loss weight of each auxiliary head (nyhac, bmi) in a multi-task fit


class TrainingError(Exception):
    """Numeric failure during optimization (non-finite loss or gradients)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    multi_task: bool = True  # train the auxiliary heads at AUX_WEIGHT; else the event head alone

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    @property
    def aux_weight(self) -> float:
        """The loss weight of each auxiliary head: ``AUX_WEIGHT``, or 0.0 without multi-task."""
        return AUX_WEIGHT if self.multi_task else 0.0


def clip(gradient: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Clamp every component to [-CLIP_LIMIT, CLIP_LIMIT] (into ``out`` when given)."""
    return np.clip(gradient, -CLIP_LIMIT, CLIP_LIMIT, out=out)


class AdaDeltaState:
    """Moving averages of squared gradients and squared updates, one flat buffer each.

    ``sq_grad`` and ``sq_delta`` are :class:`network.FlatTensors` laid out
    like the parameters, in their dtype; ``scratch`` holds the two
    parameter-sized buffers the update works in.
    """

    def __init__(self, params: NetworkParams):
        self.sq_grad = params.tensors.zeros_like()
        self.sq_delta = params.tensors.zeros_like()
        self.scratch = (np.empty_like(self.sq_grad.flat), np.empty_like(self.sq_grad.flat))


def adadelta_step(
    state: AdaDeltaState,
    params: NetworkParams,
    grads: FlatTensors,
) -> None:
    """One in-place AdaDelta update of every parameter, with ``ADADELTA_RHO`` and ``ADADELTA_EPS``.

    Per element: accumulate the squared gradient, scale the gradient by the
    ratio of RMS(previous updates) to RMS(gradients), apply, and then
    accumulate the squared update.  Accumulators stay non-negative by
    construction.  A non-finite gradient is a hard error naming the first
    tensor that holds one, and nothing is updated.  ``grads`` must be a
    :class:`network.FlatTensors` laid out like ``params.tensors`` and in its
    dtype (as train's are); any other form is a ``ValueError``.
    """
    if not (isinstance(grads, FlatTensors) and grads.layout == params.tensors.layout
            and grads.flat.dtype == params.tensors.flat.dtype):
        raise ValueError("grads must be a FlatTensors laid out like params.tensors, in its dtype")
    g = grads.flat
    if not np.isfinite(g).all():
        name = next(name for name, value in grads.items() if not np.isfinite(value).all())
        raise TrainingError(f"non-finite gradient in tensor {name!r}")
    rho, eps = ADADELTA_RHO, ADADELTA_EPS
    sq_g, sq_d = state.sq_grad.flat, state.sq_delta.flat
    delta, tmp = state.scratch
    sq_g *= rho
    np.multiply(g, 1.0 - rho, out=tmp)          # (1 - rho) * g * g
    tmp *= g
    sq_g += tmp
    np.add(sq_d, eps, out=delta)                # -(sqrt(sq_d + eps) / sqrt(sq_g + eps)) * g
    np.sqrt(delta, out=delta)
    np.add(sq_g, eps, out=tmp)
    np.sqrt(tmp, out=tmp)
    delta /= tmp
    np.negative(delta, out=delta)
    delta *= g
    sq_d *= rho
    np.multiply(delta, 1.0 - rho, out=tmp)      # (1 - rho) * delta * delta
    tmp *= delta
    sq_d += tmp
    params.tensors.flat += delta


def train(
    batch: Batch,
    config: TrainConfig,
    params: NetworkParams,
    rng: np.random.Generator,
) -> tuple[NetworkParams, list[dict[str, float]]]:
    """Full-batch training for ``config.epochs`` epochs.

    ``batch`` holds every training row, already standardized (as
    ``evaluation.build_examples`` returns it).  Every epoch draws fresh
    dropout masks at ``KEEP_PROB`` (one per row per layer), runs one
    forward/backward pass over the whole batch (each auxiliary head weighted
    by ``config.aux_weight``, read once per fit), clips the mean-loss
    gradients, and applies one AdaDelta step.  Params are updated in place
    and also returned.  The history holds one dict per epoch with the total
    loss, its ``<task>_loss`` part for each of ``network.TASKS``, and the
    largest post-clip gradient.

    Every head of ``params.config.heads`` is computed; a head the loss
    reads that the network does not hold is a ``network.NetworkError``.  The
    epochs compute in the dtype of ``params.tensors.flat``: the batch's
    features and BMI targets are cast to it once, and the gradient buffer
    and the activation workspace are allocated once and reused by every
    epoch.  The loss values in the history are float64 either way.

    With ``epochs == 0`` the parameters are returned untouched and the
    history is empty.
    """
    dtype = params.tensors.flat.dtype
    batch = replace(batch, features=np.asarray(batch.features, dtype), y_bmi=np.asarray(batch.y_bmi, dtype))
    state = AdaDeltaState(params)
    grads = params.tensors.zeros_like()
    g = grads.flat
    work = Workspace()
    history: list[dict[str, float]] = []
    aux = config.aux_weight
    for epoch in range(config.epochs):
        masks = draw_dropout_masks(params.config, len(batch), KEEP_PROB, rng, work, dtype)
        outputs, cache = forward(params, batch.features, batch.decade_index, masks, work)
        total, parts = loss(outputs, batch, aux, aux)
        if not np.isfinite(total):
            raise TrainingError(f"non-finite loss at epoch {epoch}")
        backward(params, cache, batch, aux, aux, out=grads)
        clip(g, out=g)
        # largest |g| without an |g| buffer; exact, as negation is.  0.0 comes
        # first so that an all-zero gradient reads +0.0, as abs() gives
        max_grad = float(max(0.0, g.max(), -g.min()))
        adadelta_step(state, params, grads)
        history.append({
            "epoch": float(epoch),
            "loss": total,
            **{f"{task}_loss": parts[task] for task in TASKS},
            "max_grad": max_grad,
        })
    return params, history


def write_loss_history(path, history: list[dict[str, float]]) -> None:
    """CSV export of the per-epoch losses: epoch, loss, and ``<task>_loss`` for each of ``network.TASKS``."""
    columns = ("loss", *(f"{task}_loss" for task in TASKS))
    write_csv(path, ["epoch", *columns],
              ([int(row["epoch"]), *(f"{row[name]:.12g}" for name in columns)] for row in history))
