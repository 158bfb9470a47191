"""Independent reference implementations used as test oracles.

Everything here is written from the textbook definitions, deliberately
sharing no code with the package: a direct Lomb periodogram (two-sum form
with the tau offset), the running-mean ectopic filter as a loop over numpy
scalars, a threshold-sweep trapezoidal ROC area, a scalar
AdaDelta recursion, Poincare widths from the geometric projections,
a quadratic-loop sample entropy, a central finite-difference gradienter
(one entry per loss call, or a block of entries of one tensor per call
through its own stacked forward pass and loss), and a reference trainer that computes all three branches every epoch and
steps the optimizer one tensor at a time.
"""

from __future__ import annotations

import math

import numpy as np

from vtapred.optim import AUX_WEIGHT  # a constant of the recipe, not code


def modulated_tachogram(freq_hz, n: int = 64, base: float = 800.0, amp: float = 50.0) -> np.ndarray:
    """RR series whose value oscillates at freq_hz in real (cumulative) time."""
    rr = []
    t = 0.0
    for _ in range(n):
        value = base + amp * math.sin(2.0 * math.pi * freq_hz * t)
        rr.append(value)
        t += value / 1000.0
    return np.array(rr)


def ectopic_mask_loop(intervals_ms, threshold=0.2, ref_beats=5) -> np.ndarray:
    """The running-mean ectopic rule on numpy float64 scalars, one beat at a time.

    The seed total is builtin ``sum`` over numpy scalars, which adds left to
    right on every Python version (its compensated float path takes only
    exact Python floats).
    """
    x = np.asarray(intervals_ms, dtype=float)
    mask = np.zeros(x.size, dtype=bool)
    recent = list(x[:ref_beats])
    total = float(sum(recent))
    for i in range(ref_beats, x.size):
        reference = total / ref_beats
        if abs(x[i] - reference) > threshold * reference:
            mask[i] = True
        else:
            total += x[i] - recent[0]
            recent.pop(0)
            recent.append(x[i])
    return mask


def lomb_periodogram(times_s, values, freqs_hz) -> np.ndarray:
    """Classic unnormalized Lomb periodogram, one frequency at a time."""
    t = np.asarray(times_s, dtype=float)
    y = np.asarray(values, dtype=float)
    out = np.empty(len(freqs_hz))
    for i, f in enumerate(np.asarray(freqs_hz, dtype=float)):
        w = 2.0 * math.pi * f
        tau = math.atan2(np.sum(np.sin(2 * w * t)), np.sum(np.cos(2 * w * t))) / (2 * w)
        c = np.cos(w * (t - tau))
        s = np.sin(w * (t - tau))
        out[i] = 0.5 * ((np.dot(y, c) ** 2) / np.dot(c, c) + (np.dot(y, s) ** 2) / np.dot(s, s))
    return out


def beat_times(intervals_ms) -> np.ndarray:
    """Each beat's time in seconds: the end of its interval, from the first beat's start."""
    return np.cumsum(np.asarray(intervals_ms, dtype=float)) / 1000.0


def lomb_band_power(times_s, intervals_ms, band, grid_step=0.005) -> float:
    """Band power via the direct periodogram of beats at ``times_s``, on the package's grid convention."""
    x = np.asarray(intervals_ms, dtype=float)
    lo, hi = band
    n = int(math.floor((hi - lo) / grid_step + 1e-9))
    freqs = lo + grid_step * np.arange(1, n + 1)
    pgram = lomb_periodogram(times_s, x - x.mean(), freqs)
    # trapezoid rule, written out
    return float(np.sum((pgram[1:] + pgram[:-1]) / 2.0 * np.diff(freqs)))


def roc_auc_trapezoid(labels, scores) -> float:
    """ROC area by threshold sweep + trapezoid; ties become diagonal segments."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    s = scores[order]
    tp = np.cumsum(y == 1).astype(float)
    fp = np.cumsum(y == 0).astype(float)
    group_ends = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    tpr = np.r_[0.0, tp[group_ends] / tp[-1]]
    fpr = np.r_[0.0, fp[group_ends] / fp[-1]]
    return float(np.sum((tpr[1:] + tpr[:-1]) / 2.0 * np.diff(fpr)))


def adadelta_scalar_step(g, eg2, ed2, rho=0.95, eps=1e-6, lr=1.0):
    """One AdaDelta update for a single parameter; returns (dx, eg2, ed2)."""
    eg2 = rho * eg2 + (1.0 - rho) * g * g
    dx = -math.sqrt(ed2 + eps) / math.sqrt(eg2 + eps) * g * lr
    ed2 = rho * ed2 + (1.0 - rho) * dx * dx
    return dx, eg2, ed2


def poincare_widths(x) -> tuple[float, float]:
    """SD1/SD2 from explicit projections of (x_i, x_{i+1}) points.

    SD1: RMS of signed distances from the identity line; SD2: ddof=1 std of
    the coordinates along it.
    """
    x = np.asarray(x, dtype=float)
    pts = np.stack([x[:-1], x[1:]], axis=1)
    perp = (pts[:, 1] - pts[:, 0]) / math.sqrt(2.0)
    along = (pts[:, 0] + pts[:, 1]) / math.sqrt(2.0)
    return float(np.sqrt(np.mean(perp**2))), float(np.std(along, ddof=1))


def sample_entropy_loops(x, m=2, r=None) -> float:
    """Quadratic-loop sample entropy (Chebyshev, self-matches excluded)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if r is None:
        r = 0.2 * float(np.std(x, ddof=1))
    n_templates = n - m

    def count(length):
        total = 0
        for i in range(n_templates):
            for j in range(i + 1, n_templates):
                d = max(abs(x[i + k] - x[j + k]) for k in range(length))
                if d <= r:
                    total += 1
        return total

    b = count(m)
    a = count(m + 1)
    if b == 0:
        return 0.0
    if a == 0:
        return math.log(n_templates * (n_templates - 1) / 2.0)
    return -math.log(a / b)


def finite_difference_grads(loss_fn, tensors: dict, eps: float = 1e-5) -> dict:
    """Central differences of ``loss_fn()`` for every entry of every tensor.

    ``loss_fn`` must read the tensors in place; they are perturbed one scalar
    at a time and restored.
    """
    grads = {}
    for name, tensor in tensors.items():
        grad = np.zeros_like(tensor)
        flat = tensor.ravel()
        grad_flat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            upper = loss_fn()
            flat[i] = original - eps
            lower = loss_fn()
            flat[i] = original
            grad_flat[i] = (upper - lower) / (2.0 * eps)
        grads[name] = grad
    return grads


TASK_UNITS = {"vta": 2, "nyhac": 4, "bmi": 1}


def _stacked_dense(x, w, b):
    """x @ w + b where any of the three may carry a leading stack axis."""
    return np.matmul(x, w) + b[..., None, :]


def _stacked_shared_layer(net, t, batch):
    """Hidden layer 1 (tanh) for every stacked copy of the shared tensors."""
    x0 = batch.features
    if net.use_embedding:
        emb = t["embedding"][..., batch.decade_index, :]
        x0 = np.concatenate([np.broadcast_to(x0, emb.shape[:-1] + x0.shape[-1:]), emb], axis=-1)
    return np.tanh(_stacked_dense(x0, t["W1"], t["b1"]))


def _stacked_branch_loss(task, h1, t, batch, lam_nyhac, lam_bmi):
    """One head's term of the mean loss, one value per stacked copy (inference mode)."""
    h2 = np.tanh(_stacked_dense(h1, t[f"{task}_W2"], t[f"{task}_b2"]))
    h3 = np.tanh(_stacked_dense(h2, t[f"{task}_W3"], t[f"{task}_b3"]))
    out = _stacked_dense(h3, t[f"{task}_Wout"], t[f"{task}_bout"])
    n = batch.features.shape[0]
    if task == "bmi":
        sq_err = np.where(batch.bmi_mask, (out[..., 0] - batch.y_bmi) ** 2, 0.0)
        return lam_bmi * sq_err.sum(axis=-1) / n
    shifted = out - out.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    if task == "vta":
        return -log_probs[..., np.arange(n), batch.y_vta].mean(axis=-1)
    present = batch.y_nyhac >= 0
    ce = -log_probs[..., np.arange(n), np.where(present, batch.y_nyhac, 0)]
    return lam_nyhac * np.where(present, ce, 0.0).sum(axis=-1) / n


def stacked_finite_difference_grads(net, tensors: dict, batch, lam_nyhac=1.0, lam_bmi=1.0,
                                    eps: float = 1e-5, block: int = 128) -> dict:
    """Central differences of the mean multi-task loss, ``block`` entries of one tensor per pass.

    ``net`` is a NetworkConfig and ``tensors`` its parameters by name (left
    unchanged); there is no dropout.  Each pass takes K <= block entries of
    one tensor and stacks 2K copies of it, the k-th entry moved by +eps in
    copy k and by -eps in copy K + k, and evaluates every copy at once with
    the forward pass above.
    Only what the tensor feeds is recomputed: a branch tensor re-runs its own
    branch on the shared layer computed once, since the other heads' loss
    terms do not move; a shared tensor re-runs the whole network.
    """
    t = {name: np.asarray(value, dtype=float) for name, value in tensors.items()}
    h1 = _stacked_shared_layer(net, t, batch)
    grads = {}
    for name, tensor in t.items():
        task = name.partition("_")[0]
        flat = tensor.ravel()
        flat_grad = np.empty(flat.size)
        all_copies = np.repeat(flat[None, :], 2 * min(block, flat.size), axis=0)
        for start in range(0, flat.size, block):
            entries = np.arange(start, min(start + block, flat.size))
            k = entries.size
            copies = all_copies[:2 * k]
            up, down = np.arange(k), np.arange(k, 2 * k)
            copies[up, entries] = flat[entries] + eps
            copies[down, entries] = flat[entries] - eps
            trial = {**t, name: copies.reshape(2 * k, *tensor.shape)}
            if task in TASK_UNITS:
                losses = _stacked_branch_loss(task, h1, trial, batch, lam_nyhac, lam_bmi)
            else:
                h1_trial = _stacked_shared_layer(net, trial, batch)
                losses = sum(_stacked_branch_loss(other, h1_trial, trial, batch, lam_nyhac, lam_bmi)
                             for other in TASK_UNITS)
            flat_grad[entries] = (losses[:k] - losses[k:]) / (2.0 * eps)
            copies[up, entries] = copies[down, entries] = flat[entries]
        grads[name] = flat_grad.reshape(tensor.shape)
    return grads


def max_relative_error(analytic: dict, numeric: dict, floor: float = 1e-5) -> float:
    """Worst-case |a - n| / max(|a|, |n|, floor) across all tensors."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def _reference_masks(net, n, keep_prob, rng):
    """All eight inverted-dropout masks, cut in layer order from one block of 16-bit lanes.

    The lanes are one whole draw of raw 64-bit generator outputs, each read as
    four little-endian uint16 values; a unit is kept when its lane is below
    ceil(keep_prob * 65536).
    """
    h1, h2, h3 = net.hidden
    widths = [("input", net.input_dim), ("h1", h1)]
    for task in TASK_UNITS:
        widths += [(f"{task}_h2", h2), (f"{task}_h3", h3)]
    if keep_prob == 1.0:
        return None
    total = sum(w for _, w in widths)
    words = rng.bit_generator.random_raw(math.ceil(n * total / 4))
    lanes = np.frombuffer(words.astype("<u8").tobytes(), dtype="<u2")[:n * total].reshape(n, total)
    keep = lanes < math.ceil(keep_prob * 65536)
    masks, offset = {}, 0
    for name, width in widths:
        masks[name] = keep[:, offset:offset + width] / keep_prob
        offset += width
    return masks


def _reference_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_epoch(net, t, batch, masks, lam_nyhac, lam_bmi):
    """Loss parts and gradients of one full-batch pass through every branch."""
    n = batch.features.shape[0]
    idx = batch.decade_index
    x0 = np.concatenate([batch.features, t["embedding"][idx]], axis=1) if net.use_embedding else batch.features

    def masked(name, value):
        return value * masks[name] if masks is not None else value

    x0d = masked("input", x0)
    h1 = np.tanh(x0d @ t["W1"] + t["b1"])
    h1d = masked("h1", h1)
    acts, heads = {}, {}
    for task in TASK_UNITS:
        h2 = np.tanh(h1d @ t[f"{task}_W2"] + t[f"{task}_b2"])
        h2d = masked(f"{task}_h2", h2)
        h3 = np.tanh(h2d @ t[f"{task}_W3"] + t[f"{task}_b3"])
        h3d = masked(f"{task}_h3", h3)
        acts[task] = (h2, h2d, h3, h3d)
        heads[task] = h3d @ t[f"{task}_Wout"] + t[f"{task}_bout"]

    rows = np.arange(n)
    one_hot = lambda y, w: np.eye(w)[y]  # noqa: E731
    parts = {"vta": float(np.mean(-_reference_log_softmax(heads["vta"])[rows, batch.y_vta])),
             "nyhac": 0.0, "bmi": 0.0}
    probs = {}
    for task in ("vta", "nyhac"):
        e = np.exp(heads[task] - heads[task].max(axis=1, keepdims=True))
        probs[task] = e / e.sum(axis=1, keepdims=True)
    deltas = {"vta": (probs["vta"] - one_hot(batch.y_vta, 2)) / n}
    present = batch.y_nyhac >= 0
    if lam_nyhac != 0.0 and present.any():
        safe = np.where(present, batch.y_nyhac, 0)
        ce = -_reference_log_softmax(heads["nyhac"])[rows, safe]
        parts["nyhac"] = float(lam_nyhac * ce[present].sum() / n)
        deltas["nyhac"] = lam_nyhac * (probs["nyhac"] - one_hot(safe, 4)) * present[:, None] / n
    if lam_bmi != 0.0 and batch.bmi_mask.any():
        err = heads["bmi"][:, 0] - batch.y_bmi
        parts["bmi"] = float(lam_bmi * (err[batch.bmi_mask] ** 2).sum() / n)
        err = (heads["bmi"][:, 0] - batch.y_bmi) * batch.bmi_mask
        deltas["bmi"] = (2.0 * lam_bmi * err / n)[:, None]

    grads = {name: np.zeros_like(tensor) for name, tensor in t.items()}
    d_h1d = np.zeros_like(h1d)
    for task, d_out in deltas.items():
        h2, h2d, h3, h3d = acts[task]
        grads[f"{task}_Wout"] = h3d.T @ d_out
        grads[f"{task}_bout"] = d_out.sum(axis=0)
        d_z3 = masked(f"{task}_h3", d_out @ t[f"{task}_Wout"].T) * (1.0 - h3 ** 2)
        grads[f"{task}_W3"] = h2d.T @ d_z3
        grads[f"{task}_b3"] = d_z3.sum(axis=0)
        d_z2 = masked(f"{task}_h2", d_z3 @ t[f"{task}_W3"].T) * (1.0 - h2 ** 2)
        grads[f"{task}_W2"] = h1d.T @ d_z2
        grads[f"{task}_b2"] = d_z2.sum(axis=0)
        d_h1d += d_z2 @ t[f"{task}_W2"].T
    d_z1 = masked("h1", d_h1d) * (1.0 - h1 ** 2)
    grads["W1"] = x0d.T @ d_z1
    grads["b1"] = d_z1.sum(axis=0)
    if net.use_embedding:
        d_x0 = masked("input", d_z1 @ t["W1"].T)
        np.add.at(grads["embedding"], idx, d_x0[:, net.num_features:])
    return parts, grads


def train_reference(batch, config, net, tensors: dict, rng, keep_prob) -> tuple[dict, list[dict]]:
    """Full-batch AdaDelta training, one tensor at a time, every branch every epoch.

    ``config`` is an evaluation.CVConfig, ``net`` a NetworkConfig and
    ``keep_prob`` the dropout keep probability; ``tensors`` are copied,
    trained and returned with the per-epoch history.  Each auxiliary head weighs ``AUX_WEIGHT``
    when ``config.multi_task`` is set, and nothing otherwise.
    """
    t = {name: np.array(value, dtype=float) for name, value in tensors.items()}
    sq_grad = {name: np.zeros_like(v) for name, v in t.items()}
    sq_delta = {name: np.zeros_like(v) for name, v in t.items()}
    rho, eps, lr, limit = 0.95, 1e-6, 1.0, 0.1  # the published recipe, independent of optim
    aux = AUX_WEIGHT if config.multi_task else 0.0
    history = []
    for epoch in range(config.epochs):
        masks = _reference_masks(net, batch.features.shape[0], keep_prob, rng)
        parts, grads = _reference_epoch(net, t, batch, masks, aux, aux)
        grads = {name: np.clip(g, -limit, limit) for name, g in grads.items()}
        max_grad = max(float(np.max(np.abs(g))) for g in grads.values())
        for name, tensor in t.items():
            g = grads[name]
            sq_grad[name] *= rho
            sq_grad[name] += (1.0 - rho) * g * g
            delta = -(np.sqrt(sq_delta[name] + eps) / np.sqrt(sq_grad[name] + eps)) * g * lr
            sq_delta[name] *= rho
            sq_delta[name] += (1.0 - rho) * delta * delta
            tensor += delta
        history.append({"epoch": float(epoch), "loss": parts["vta"] + parts["nyhac"] + parts["bmi"],
                        "vta_loss": parts["vta"], "nyhac_loss": parts["nyhac"], "bmi_loss": parts["bmi"],
                        "max_grad": max_grad})
    return t, history
