"""Span tracer for the vtapred package, installed from outside it.

``install`` replaces each traced public function with a wrapper under every
name it is bound to (``train`` and ``extract``, for instance, are also bound
in ``vtapred.evaluation`` and ``vtapred.cli``, and ``forward`` in
``vtapred.optim``).  Each call appends one span (name, start, end, parent) to
an in-memory list; ``dump`` writes the spans, tagged with the workload id,
when the command has finished.  ``layer_metrics`` turns the dumps of one
traced repeat into the per-layer numbers.

Some wrappers also update counters (FLOPs, branches, gradient sparsity).
That bookkeeping runs after the wrapped call and is recorded as its own
``trace.counters`` span, so it never lands in a program function's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

TRACED = {
    "dataset": ("load_dataset", "prepare_records"),
    "features": ("extract", "detect_ectopic", "band_power", "sample_entropy", "baseline11",
                 "windowed_diff", "fit_standardizer", "standardize", "write_feature_matrix"),
    "network": ("draw_dropout_masks", "forward", "loss", "backward", "predict",
                "init_params", "save_checkpoint"),
    "optim": ("train", "clip", "adadelta_step", "write_loss_history"),
    "evaluation": ("run_ablation", "run_cv", "build_examples", "make_folds",
                   "write_report_csv", "write_per_seed_csv", "write_predictions_csv"),
    "cli": ("cmd_features", "cmd_train", "cmd_ablate"),
}
COUNTER_SPAN = "trace.counters"

# AdaDelta reads the parameter, its gradient and both accumulators, and
# writes back the parameter and both accumulators: 7 float64 per parameter.
ADADELTA_BYTES_PER_PARAM = 7 * 8
TASK_UNITS = (2, 4, 1)  # output widths of the vta, nyhac and bmi heads


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _forward_flops(cfg, n: int) -> float:
    h1, h2, h3 = cfg.hidden
    per_row = cfg.input_dim * h1 + sum(h1 * h2 + h2 * h3 + h3 * u for u in TASK_UNITS)
    return 2.0 * n * per_row


def _count_forward(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    shape = getattr(a["features"], "shape", ())
    n = shape[0] if len(shape) == 2 else 1
    tracer.counters["network.forward_flops"] += _forward_flops(a["params"].config, n)


def _count_backward(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cfg, batch = a["params"].config, a["batch"]
    n = len(batch)
    h1, h2, h3 = cfg.hidden
    active = (
        True,
        a["lam_nyhac"] != 0.0 and bool((batch.y_nyhac >= 0).any()),
        a["lam_bmi"] != 0.0 and bool(batch.bmi_mask.any()),
    )
    flops = 2.0 * n * cfg.input_dim * h1 * (2 if cfg.use_embedding else 1)
    for on, units in zip(active, TASK_UNITS):
        if on:
            flops += 4.0 * n * (h3 * units + h2 * h3 + h1 * h2)
    tracer.counters["network.backward_flops"] += flops
    tracer.counters["network.branches_useful"] += sum(active)
    tracer.counters["network.branches_computed"] += len(active)


def _count_adadelta(tracer, fn, args, kwargs, result):
    grads = _bound(fn, args, kwargs)["grads"]
    size = sum(g.size for g in grads.values())
    tracer.counters["optim.grad_nonzero"] += sum(int((g != 0).sum()) for g in grads.values())
    tracer.counters["optim.grad_total"] += size
    tracer.counters["optim.adadelta_bytes"] += ADADELTA_BYTES_PER_PARAM * size


def _count_train(tracer, fn, args, kwargs, result):
    tracer.counters["optim.epochs"] += _bound(fn, args, kwargs)["config"].epochs


def _count_load(tracer, fn, args, kwargs, result):
    records, _ = result
    tracer.counters["dataset.beats"] += sum(len(r.intervals_ms) for r in records)


COUNTERS = {
    "network.forward": _count_forward,
    "network.backward": _count_backward,
    "optim.adadelta_step": _count_adadelta,
    "optim.train": _count_train,
    "dataset.load_dataset": _count_load,
}
PEAK_ALLOC = "features.sample_entropy"


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count = COUNTERS.get(name)
        peak_alloc = name == PEAK_ALLOC

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if peak_alloc:
                tracemalloc.start()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if peak_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counters["features.sample_entropy_peak_bytes"] = max(
                        self.counters["features.sample_entropy_peak_bytes"], peak)
            if count is not None:
                start = clock()
                count(self, fn, args, kwargs, result)
                spans.append([COUNTER_SPAN, start, clock(), stack[-1] if stack else -1])
            return result

        return wrapper

    def dump(self, path) -> None:
        """Write the counters, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": self.workload_id, "counters": self.counters}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "workload": self.workload_id}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported vtapred package."""
    import vtapred.cli  # noqa: F401  (imports every traced module)

    modules = [m for key, m in sys.modules.items() if key == "vtapred" or key.startswith("vtapred.")]
    for layer, names in TRACED.items():
        home = sys.modules[f"vtapred.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)


def load(path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        return head["counters"], [json.loads(line) for line in fh]


def add_self_times(spans: list[dict], times: dict[str, list[float]]) -> None:
    """Add each span to times[name] = [calls, self s, inclusive s]; self excludes child spans."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end"] - span["start"]
    for span, children in zip(spans, child_ns):
        duration = span["end"] - span["start"]
        entry = times[span["name"]]
        entry[0] += 1
        entry[1] += (duration - children) / 1e9
        entry[2] += duration / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(dumps: list[tuple[dict, list[dict]]], wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repeat (one or more commands).

    ``wall_s`` is the traced wall time of the commands' ``main`` calls.
    Returns name -> (value, unit).
    """
    counters: dict[str, float] = defaultdict(float)
    times: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for dump_counters, spans in dumps:
        for key, value in dump_counters.items():
            if key.endswith("_peak_bytes"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        add_self_times(spans, times)

    out: dict[str, tuple[float, str]] = {}
    layer_self = dict.fromkeys(TRACED, 0.0)
    for layer, names in TRACED.items():
        for fname in names:
            calls, self_s, _ = times[f"{layer}.{fname}"]
            out[f"{layer}.{fname}.calls"] = (calls, "count")
            out[f"{layer}.{fname}.self_s"] = (self_s, "s")
            layer_self[layer] += self_s
    for layer, self_s in layer_self.items():
        out[f"layer.{layer}.self_s"] = (self_s, "s")
        out[f"layer.{layer}.share"] = (_ratio(self_s, wall_s), "ratio")

    def self_of(name: str) -> float:
        return times[name][1]

    matmul_s = self_of("network.forward") + self_of("network.backward")
    flops = counters["network.forward_flops"] + counters["network.backward_flops"]
    out["dataset.beats_per_s"] = (_ratio(counters["dataset.beats"], self_of("dataset.load_dataset")), "1/s")
    out["optim.train.ms_per_epoch"] = (
        _ratio(1000.0 * times["optim.train"][2], counters["optim.epochs"]), "ms")
    out["network.gflops"] = (_ratio(flops / 1e9, matmul_s), "GFLOP/s")
    out["optim.adadelta_step.gbps"] = (
        _ratio(counters["optim.adadelta_bytes"] / 1e9, self_of("optim.adadelta_step")), "GB/s")
    out["network.useful_branch_ratio"] = (
        _ratio(counters["network.branches_useful"], counters["network.branches_computed"]), "ratio")
    out["optim.nonzero_grad_ratio"] = (
        _ratio(counters["optim.grad_nonzero"], counters["optim.grad_total"]), "ratio")
    out["features.sample_entropy.peak_alloc_mb"] = (
        counters["features.sample_entropy_peak_bytes"] / 2**20, "MB")
    accounted = sum(layer_self.values()) + self_of(COUNTER_SPAN)
    out["trace.unaccounted_ratio"] = (_ratio(wall_s - accounted, wall_s), "ratio")
    return out
