"""Multi-task feedforward network with a patient birth-decade embedding.

Architecture: the standardized feature vector is concatenated with a trainable
embedding of the patient's birth decade (one reserved row handles unknown
decades), passed through a shared tanh layer, and then split into three
branches of two tanh layers each.  The branches predict the event class
(2-way softmax), the heart-failure functional class (4-way softmax), and
body-mass index (linear).  Inverted dropout is applied to the input and to
every hidden layer at training time only.

The parameters are one flat float32 or float64 buffer that their config
lays out, with the named tensors as views (:class:`NetworkParams`), and
backward() writes the gradients into another buffer of that config.  The
buffer's dtype is the network's precision: forward(), backward() and the
dropout masks compute and allocate in it.  :func:`init_params` returns
float64 values; a fit rounds them once to ``TRAIN_DTYPE`` with
:meth:`NetworkParams.astype` (``evaluation.fit_model``).  A network holds only the heads
of its config (``NetworkConfig.heads``; a fit gives it the heads its loss
reads, :func:`objective`).  forward() and backward() walk those heads and write
their activations and temporaries into a :class:`Workspace` that a caller can
keep from one epoch to the next.  The dropout masks are cut from one stream
of 16-bit lanes of the generator's raw output, four keep decisions per
64-bit word, drawn in row chunks that read the same stream as one whole
draw (:func:`draw_dropout_masks`); so a training epoch holds the masks, the
activations and the gradients, and no (batch × every layer width) block.

Everything here is plain numpy; training lives in ``optim``.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields, replace
from itertools import accumulate

import numpy as np

TASKS = ("vta", "nyhac", "bmi")
TASK_UNITS = {"vta": 2, "nyhac": 4, "bmi": 1}
DROPOUT_BLOCK_VALUES = 2**16  # 16-bit lanes that draw_dropout_masks draws per chunk of rows
TRAIN_DTYPE = np.float32  # the precision every fit trains in

CHECKPOINT_MAGIC = b"VTPN"
CHECKPOINT_VERSION = 2
CHECKPOINT_DTYPES = ("float32", "float64")


class NetworkError(Exception):
    """Bad shapes, indices, or configuration passed to the network."""


class CheckpointError(Exception):
    """Unreadable or incompatible checkpoint file."""


@dataclass(frozen=True)
class NetworkConfig:
    num_features: int
    use_embedding: bool            # the setting's default lives in evaluation.CVConfig
    num_decades: int = 0           # embedding rows = num_decades + 1 (unknown row last)
    embed_dim: int = 10
    hidden: tuple[int, int, int] = (150, 100, 10)
    heads: tuple[str, ...] = TASKS  # the branches the network holds, in TASKS order

    def __post_init__(self):
        # load_checkpoint passes a JSON header straight in, so each value is checked at its type:
        # a size is an int or a numpy integer, not a float or a bool (JSON true)
        sizes = (self.num_features, self.num_decades, self.embed_dim, *self.hidden)
        if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) for s in sizes):
            raise NetworkError(f"sizes and layer widths must be integers, got {sizes}")
        if not isinstance(self.use_embedding, (bool, np.bool_)):
            raise NetworkError(f"use_embedding must be a bool, got {self.use_embedding!r}")
        if self.num_features < 1:
            raise NetworkError("num_features must be >= 1")
        if self.use_embedding and self.num_decades < 1:
            raise NetworkError("embedding enabled but no decades in the vocabulary")
        if self.embed_dim < 1:
            raise NetworkError("embed_dim must be >= 1")
        if len(self.hidden) != 3 or any(h < 1 for h in self.hidden):
            raise NetworkError("hidden must be three positive layer widths")
        # stored as plain Python values, so that save_checkpoint can write the config as JSON
        for name, kind in (("num_features", int), ("use_embedding", bool), ("num_decades", int), ("embed_dim", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "heads", tuple(self.heads))
        if self.heads[:1] != ("vta",) or self.heads != tuple(t for t in TASKS if t in self.heads):
            raise NetworkError(f"heads must start with 'vta' and follow TASKS order, got {self.heads}")

    @property
    def input_dim(self) -> int:
        return self.num_features + (self.embed_dim if self.use_embedding else 0)

    @property
    def embedding_rows(self) -> int:
        return self.num_decades + 1


def tensor_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Parameter tensors of the shared layers and ``config.heads``, in declared (and serialized) order."""
    h1, h2, h3 = config.hidden
    shapes: dict[str, tuple[int, ...]] = {}
    if config.use_embedding:
        shapes["embedding"] = (config.embedding_rows, config.embed_dim)
    shapes["W1"] = (config.input_dim, h1)
    shapes["b1"] = (h1,)
    for task in config.heads:
        shapes[f"{task}_W2"] = (h1, h2)
        shapes[f"{task}_b2"] = (h2,)
        shapes[f"{task}_W3"] = (h2, h3)
        shapes[f"{task}_b3"] = (h3,)
        shapes[f"{task}_Wout"] = (h3, TASK_UNITS[task])
        shapes[f"{task}_bout"] = (TASK_UNITS[task],)
    return shapes


class NetworkParams(Mapping):
    """The network's tensors, in declared order, as named views into one flat buffer, ``flat``.

    ``flat`` is a 1-D float32 or float64 array that holds exactly the values
    of ``tensor_shapes(config)``, and it is taken as given, not copied;
    anything else is a :class:`NetworkError`.  The mapping itself is
    read-only; write into a tensor in place (``params[name][...] = value``)
    so that view and buffer stay one datum.  A whole-buffer operation on
    ``flat`` touches every tensor in one pass.  Two parameter sets are equal
    only when they are the same object.
    """

    def __init__(self, config: NetworkConfig, flat: np.ndarray):
        shapes = tensor_shapes(config)
        ends = list(accumulate(math.prod(shape) for shape in shapes.values()))  # each tensor's end in ``flat``
        if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.size == ends[-1]
                and flat.dtype in (np.float32, np.float64)):
            got = f"a {flat.dtype} array of shape {flat.shape}" if isinstance(flat, np.ndarray) else type(flat).__name__
            raise NetworkError(f"parameters of this config are a 1-D float32 or float64 array of {ends[-1]} values, "
                               f"got {got}")
        self.config, self.flat = config, flat
        self._views = {name: flat[end - math.prod(shape):end].reshape(shape)  # views of flat
                       for (name, shape), end in zip(shapes.items(), ends)}

    __eq__ = object.__eq__  # Mapping's would compare the arrays
    __hash__ = object.__hash__

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def zeros_like(self) -> "NetworkParams":
        return NetworkParams(self.config, np.zeros_like(self.flat))

    def astype(self, dtype) -> "NetworkParams":
        """A copy with every value rounded once to ``dtype``."""
        return NetworkParams(self.config, self.flat.astype(dtype))


def init_params(config: NetworkConfig, rng: np.random.Generator) -> NetworkParams:
    """Glorot-uniform weights, zero biases, uniform(-0.05, 0.05) embedding.

    The tensors of all three heads are drawn in declared order and those of
    ``config.heads`` kept, so one seed gives every tensor the same value
    whichever heads the network holds.
    """
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(replace(config, heads=TASKS)).items():
        if name == "embedding":
            tensors[name] = rng.uniform(-0.05, 0.05, size=shape)
        elif len(shape) == 1:
            tensors[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return NetworkParams(config, np.concatenate([tensors[name].ravel() for name in tensor_shapes(config)]))


@dataclass(eq=False)
class Batch:
    """One full batch as arrays; missing auxiliary targets are masked.

    ``features`` must already be standardized to [0, 1]; ``y_bmi`` is the
    range-standardized body-mass index.  ``decade_index`` indexes the
    embedding table (num_decades means "unknown").
    """

    features: np.ndarray       # (n, f)
    decade_index: np.ndarray   # (n,) int
    y_vta: np.ndarray          # (n,) int in {0, 1}
    y_nyhac: np.ndarray        # (n,) int in {-1 (missing), 0..3}
    y_bmi: np.ndarray          # (n,) float, 0 where missing
    bmi_mask: np.ndarray       # (n,) bool

    def __post_init__(self):
        if len(self) == 0:
            raise NetworkError("cannot build a batch from zero examples")

    def __len__(self) -> int:
        return int(self.features.shape[0])


def dropout_layout(config: NetworkConfig) -> list[tuple[str, int, bool]]:
    """The eight masked layers in lane-stream order: (name, width, held by a network of ``config``)."""
    h1, h2, h3 = config.hidden
    layout = [("input", config.input_dim, True), ("h1", h1, True)]
    for task in TASKS:
        layout += [(f"{task}_h2", h2, task in config.heads), (f"{task}_h3", h3, task in config.heads)]
    return layout


class Workspace:
    """Scratch arrays reused from call to call, one per name.

    ``work(name, shape, dtype)`` returns the array kept under ``name``, or a
    new uninitialized one when there is none of that shape and dtype yet.  A
    fresh Workspace allocates exactly what one call needs; one that the caller
    keeps (``optim.train`` keeps one per fit) makes later calls with the same
    batch size write into the same memory.  What one training epoch keeps
    here grows with the batch only through the masks, the activations and
    the backward temporaries; the random lanes behind the masks are drawn
    one chunk of at most ``DROPOUT_BLOCK_VALUES`` lanes (or four rows) at a
    time.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = self._arrays[name] = np.empty(shape, dtype)
        return array


def objective(batch: Batch, lam_nyhac: float, lam_bmi: float) -> dict[str, tuple]:
    """Each head the loss reads, in TASKS order: task -> (weight, rows that carry its target, targets).

    The targets are 0 where absent.  The event head, weight 1 on every row,
    is always read; an auxiliary head when its ``lam`` is nonzero (only then
    are its rows built) and a row has its target.  Every other head adds
    exactly zero to the loss and to every gradient.  This is the one place
    that reads :class:`Batch`'s missing-target encoding.
    """
    heads = {"vta": (1.0, np.ones(len(batch), dtype=bool), batch.y_vta)}
    if lam_nyhac != 0.0:
        present = batch.y_nyhac >= 0
        heads["nyhac"] = (lam_nyhac, present, np.where(present, batch.y_nyhac, 0))
    if lam_bmi != 0.0:
        heads["bmi"] = (lam_bmi, batch.bmi_mask, batch.y_bmi)
    return {task: head for task, head in heads.items() if head[1].any()}


def draw_dropout_masks(
    config: NetworkConfig,
    n: int,
    keep_prob: float,
    rng: np.random.Generator,
    work: Workspace | None = None,
    dtype=np.float64,
) -> dict[str, np.ndarray] | None:
    """Fresh inverted-dropout masks for a batch: entries are 0 or 1/keep_prob, in ``dtype``.

    One mask row per example per layer; with keep_prob == 1 no masking is
    needed and None is returned.  Behind the masks is one (n, width of all
    eight layers) block of 16-bit lanes, taken in row-major order from the
    raw 64-bit outputs of ``rng.bit_generator`` read as little-endian uint16,
    four keep decisions per output.  So the stream depends neither on
    ``config.heads`` nor on ``dtype`` nor on the platform, and masks of
    either dtype drawn from one seed keep the same units.  A unit is kept
    when its lane is below ``ceil(keep_prob * 2**16)``: the keep probability
    is keep_prob rounded up to a step of 2**-16, exact for 0.75.  The block
    is never held whole: it is drawn in chunks of a multiple of four rows, at
    most ``DROPOUT_BLOCK_VALUES`` lanes (or four rows, if those hold more), so
    every chunk but the last ends on a whole output and the chunks read the
    same stream as one whole draw; the lanes past the last row are dropped.
    Each chunk is compared straight into the masks.  Only the masks of the
    shared layers and of those heads' branches are built, each C-contiguous,
    in ``work`` when one is given.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise NetworkError("keep_prob must be in (0, 1]")
    if keep_prob == 1.0:
        return None
    work = Workspace() if work is None else work
    layout = dropout_layout(config)
    width = sum(w for _, w, _ in layout)
    rows = max(4, DROPOUT_BLOCK_VALUES // width // 4 * 4)
    threshold = math.ceil(keep_prob * 2**16)  # at least 1 for every keep_prob > 0
    columns: dict[str, slice] = {}
    offset = 0
    for name, w, held in layout:
        if held:
            columns[name] = slice(offset, offset + w)
        offset += w
    masks = {name: work(f"mask_{name}", (n, cols.stop - cols.start), dtype) for name, cols in columns.items()}
    for start in range(0, n, rows):
        count = min(rows, n - start)
        words = rng.bit_generator.random_raw(-(-count * width // 4))
        lanes = words.astype("<u8", copy=False).view("<u2")[:count * width].reshape(count, width)
        for name, cols in columns.items():
            np.less(lanes[:, cols], threshold, out=masks[name][start:start + count])
    scale = 1.0 / keep_prob  # keep * fl(1/p) equals the division keep / p exactly
    for mask in masks.values():
        mask *= scale
    return masks


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(
    params: NetworkParams,
    features,
    decade_index=None,
    masks: dict[str, np.ndarray] | None = None,
    work: Workspace | None = None,
) -> tuple[dict, dict]:
    """Run the network on a batch, through every head it holds.

    Args:
        features: (n, num_features) standardized inputs, always 2-D (one
            row is a (1, num_features) matrix); cast to the dtype of the
            parameter buffer, the dtype of every output.
        decade_index: (n,) integer embedding rows; required when the config
            uses the embedding, ignored otherwise.
        masks: dropout masks from :func:`draw_dropout_masks`, or None for
            inference.
        work: a :class:`Workspace` for the activations.  With one, the
            arrays in outputs and cache are overwritten by the next call that
            uses the same workspace.

    Returns:
        (outputs, cache) where outputs has ``vta_probs`` and ``vta_logits``,
        ``nyhac_probs`` and ``nyhac_logits``, and ``bmi`` for the heads of
        ``params.config.heads``, and cache holds them and the activations
        backward() needs.
    """
    cfg = params.config
    dtype = params.flat.dtype
    work = Workspace() if work is None else work
    x = np.asarray(features, dtype=dtype)
    if x.ndim != 2 or x.shape[1] != cfg.num_features:
        raise NetworkError(f"expected {cfg.num_features} features per row of a 2-D matrix, got {x.shape}")
    n = x.shape[0]
    if cfg.use_embedding:
        if decade_index is None:
            raise NetworkError("decade_index is required when the embedding is enabled")
        idx = np.asarray(decade_index, dtype=int)
        if idx.shape != (n,):
            raise NetworkError("decade_index length must match the batch")
        if idx.min() < 0 or idx.max() >= cfg.embedding_rows:
            raise NetworkError(f"decade_index outside [0, {cfg.embedding_rows})")
        x0 = work("x0", (n, cfg.input_dim), dtype)
        x0[:, :cfg.num_features] = x
        x0[:, cfg.num_features:] = params["embedding"][idx]
    else:
        idx = None
        x0 = x

    def masked(name: str, value: np.ndarray) -> np.ndarray:
        if masks is None:
            return value
        return np.multiply(value, masks[name], out=work(f"{name}_dropped", value.shape, dtype))

    def dense(name: str, inputs: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        out = np.matmul(inputs, weights, out=work(name, (n, weights.shape[1]), dtype))
        out += bias
        return out

    def tanh_layer(name: str, inputs: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        out = dense(name, inputs, weights, bias)
        return np.tanh(out, out=out)

    x0d = masked("input", x0)
    h1 = tanh_layer("h1", x0d, params["W1"], params["b1"])
    h1d = masked("h1", h1)

    outputs: dict = {}
    cache: dict = {"x0d": x0d, "h1": h1, "h1d": h1d, "masks": masks, "decade_index": idx, "work": work,
                   "outputs": outputs}
    for task in cfg.heads:
        h2 = tanh_layer(f"{task}_h2", h1d, params[f"{task}_W2"], params[f"{task}_b2"])
        h2d = masked(f"{task}_h2", h2)
        h3 = tanh_layer(f"{task}_h3", h2d, params[f"{task}_W3"], params[f"{task}_b3"])
        h3d = masked(f"{task}_h3", h3)
        logits = dense(f"{task}_logits", h3d, params[f"{task}_Wout"], params[f"{task}_bout"])
        cache[task] = {"h2": h2, "h2d": h2d, "h3": h3, "h3d": h3d}
        if task == "bmi":
            outputs["bmi"] = logits[:, 0]
        else:
            outputs[f"{task}_logits"] = logits
            outputs[f"{task}_probs"] = _softmax(logits)
    return outputs, cache


def loss(
    outputs: dict,
    batch: Batch,
    lam_nyhac: float,
    lam_bmi: float,
) -> tuple[float, dict[str, float]]:
    """Mean multi-task loss over a batch: (total, parts by task, 0.0 for a head it does not read).

    Each head of :func:`objective`, built once per call, adds its weight
    times its cross entropy (a class head) or squared error (``bmi``),
    summed over the rows that carry its target and divided by the batch
    size; each head's rows are summed in float64, whatever the network's
    dtype.  Only those heads are read from ``outputs``; one that it lacks is
    a :class:`NetworkError`.
    """
    n = len(batch)
    terms = objective(batch, lam_nyhac, lam_bmi)
    missing = [task for task in terms if task not in outputs and f"{task}_logits" not in outputs]
    if missing:
        raise NetworkError(f"the loss reads the {missing[0]!r} head, which the network does not hold")
    parts = dict.fromkeys(TASKS, 0.0)
    for task, (weight, present, targets) in terms.items():
        if task == "bmi":
            rows = (outputs["bmi"] - targets) ** 2
        else:
            rows = -_log_softmax(outputs[f"{task}_logits"])[np.arange(n), targets]
        parts[task] = float(weight * rows[present].sum(dtype=np.float64) / n)
    # -0.0 is the exact additive identity, so this is vta + nyhac + bmi from the left
    return sum(parts.values(), -0.0), parts


def _output_delta(task: str, outputs: dict, n: int, term: tuple | None) -> np.ndarray:
    """d(mean loss)/d(head output) of one head; exactly zero for a head without a term of the loss."""
    if term is None:
        return np.zeros((n, TASK_UNITS[task]), outputs["vta_probs"].dtype)
    weight, present, targets = term
    if task == "bmi":
        err = (outputs["bmi"] - targets) * present
        return (2.0 * weight * err / n)[:, None]
    d = outputs[f"{task}_probs"].copy()
    d[np.arange(n), targets] -= 1.0  # probs - one_hot
    return weight * d * present[:, None] / n


def backward(
    params: NetworkParams,
    cache: dict,
    batch: Batch,
    lam_nyhac: float,
    lam_bmi: float,
    out: NetworkParams | None = None,
) -> NetworkParams:
    """Gradients of the mean batch loss for every tensor.

    Softmax + cross entropy collapse to (probs - one_hot) at each head.
    Every head of ``params.config.heads`` is walked with its term of
    :func:`objective`, built once per call; a head the loss does not read
    gets exactly zero gradient.  The gradients are written into ``out``
    (a :class:`NetworkParams` of ``params.config`` in the dtype of
    ``params``, which ``optim.train`` allocates once per fit) or into a new
    one, and the temporaries go to the workspace that forward() used.
    """
    cfg = params.config
    dtype = params.flat.dtype
    masks, work = cache["masks"], cache["work"]
    grads = params.zeros_like() if out is None else out

    def masked(name: str, value: np.ndarray) -> np.ndarray:
        if masks is not None:
            value *= masks[name]
        return value

    def through_tanh(name: str, d_h: np.ndarray, h: np.ndarray) -> np.ndarray:
        """d_h * (1 - h**2), into the workspace array ``name``."""
        slope = np.square(h, out=work(name, h.shape, dtype))
        np.subtract(1.0, slope, out=slope)
        return np.multiply(d_h, slope, out=slope)

    def matmul(name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b, out=work(name, (a.shape[0], b.shape[1]), dtype))

    terms = objective(batch, lam_nyhac, lam_bmi)
    d_h1d = work("d_h1d", cache["h1d"].shape, dtype)
    d_h1d.fill(0.0)
    for task in cfg.heads:
        c = cache[task]
        d_out = _output_delta(task, cache["outputs"], len(batch), terms.get(task))
        np.matmul(c["h3d"].T, d_out, out=grads[f"{task}_Wout"])
        np.sum(d_out, axis=0, out=grads[f"{task}_bout"])
        d_h3 = masked(f"{task}_h3", matmul("d_h3", d_out, params[f"{task}_Wout"].T))
        d_z3 = through_tanh("d_z3", d_h3, c["h3"])
        np.matmul(c["h2d"].T, d_z3, out=grads[f"{task}_W3"])
        np.sum(d_z3, axis=0, out=grads[f"{task}_b3"])
        d_h2 = masked(f"{task}_h2", matmul("d_h2", d_z3, params[f"{task}_W3"].T))
        d_z2 = through_tanh("d_z2", d_h2, c["h2"])
        np.matmul(cache["h1d"].T, d_z2, out=grads[f"{task}_W2"])
        np.sum(d_z2, axis=0, out=grads[f"{task}_b2"])
        d_h1d += matmul("d_h1d_part", d_z2, params[f"{task}_W2"].T)

    d_h1 = masked("h1", d_h1d)
    d_z1 = through_tanh("d_h1d_part", d_h1, cache["h1"])  # the head loop is done with that buffer
    np.matmul(cache["x0d"].T, d_z1, out=grads["W1"])
    np.sum(d_z1, axis=0, out=grads["b1"])
    if cfg.use_embedding:
        d_x0 = masked("input", matmul("d_x0", d_z1, params["W1"].T))
        grads["embedding"].fill(0.0)
        np.add.at(grads["embedding"], cache["decade_index"], d_x0[:, cfg.num_features:])
    return grads


def predict(params: NetworkParams, batch: Batch) -> np.ndarray:
    """Event-class probabilities for every row of a batch (inference mode)."""
    outputs, _ = forward(params, batch.features, batch.decade_index)
    return outputs["vta_probs"][:, 1]


def save_checkpoint(path, params: NetworkParams, extra: dict | None = None) -> None:
    """Serialize parameters: magic, version byte, JSON config echo, tensors.

    Layout: 4-byte magic, 1 version byte, little-endian uint32 header length,
    UTF-8 JSON header, then the flat parameter buffer: every tensor
    little-endian C-order in declared order, in the buffer's own dtype.  The
    header names that dtype (``"dtype"``: one of ``CHECKPOINT_DTYPES``) and
    echoes the network config (plus any ``extra`` run settings) so a reader
    can rebuild the shapes.
    """
    flat = params.flat
    header = {"dtype": flat.dtype.name, "network": asdict(params.config)}
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(bytes([CHECKPOINT_VERSION]))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(flat.astype(flat.dtype.newbyteorder("<"), copy=False).tobytes())


def load_checkpoint(path) -> tuple[NetworkParams, dict]:
    """Read a checkpoint back; rejects bad magic, an unknown version, a bad
    header, truncation and trailing bytes.  Returns (params, header).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 9 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if data[4] != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {data[4]}")
    (header_len,) = struct.unpack("<I", data[5:9])
    if len(data) < 9 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[9:9 + header_len].decode("utf-8"))
        if header["dtype"] not in CHECKPOINT_DTYPES:
            raise ValueError(f"dtype {header['dtype']!r} is not one of {CHECKPOINT_DTYPES}")
        dtype = np.dtype(header["dtype"])
        missing = sorted({f.name for f in fields(NetworkConfig)} - set(header["network"]))
        if missing:  # a saved header names every field, so no key may fall back to its default
            raise ValueError(f"network lacks {missing}")
        config = NetworkConfig(**header["network"])
    except (KeyError, ValueError, TypeError, NetworkError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc}") from None
    # each tensor's end in the payload, in values, as Python integers: the header's
    # shapes are checked against the payload before anything is allocated for them
    shapes = tensor_shapes(config)
    ends = list(accumulate(math.prod(shape) for shape in shapes.values()))
    payload = data[9 + header_len:]
    nbytes = dtype.itemsize * ends[-1]
    if len(payload) < nbytes:
        name = next(name for name, end in zip(shapes, ends) if dtype.itemsize * end > len(payload))
        raise CheckpointError(f"{path}: truncated tensor {name!r}")
    if len(payload) > nbytes:
        raise CheckpointError(f"{path}: {len(payload) - nbytes} trailing bytes")
    params = NetworkParams(config, np.frombuffer(payload, dtype=dtype.newbyteorder("<")).astype(dtype))
    return params, header
