"""Stratified cross-validation, ranking metrics, and the staged ablation grid.

The grid retrains the model from scratch for every (configuration row, seed,
fold) combination, pools the held-out predictions per run, and averages the
resulting metrics over seeds.  All randomness is derived from the run seed
through fixed stream labels, so a (seed, data, config) triple pins every
number bit-for-bit, no matter how many worker processes are used.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import LABELS, PatientMeta, RRRecord
from .features import (
    FEATURE_SET_BASELINE11,
    FEATURE_SET_RECENT,
    Cohort,
    FeatureConfig,
    build_cohort,
    fit_standardizer,
    standardize,
)
from .network import TRAIN_DTYPE, Batch, NetworkConfig, NetworkParams, active_tasks, init_params, predict
from .optim import TrainConfig, TrainingError, train

# Stream labels mixed into the seed so each consumer of randomness gets an
# independent, reproducible generator.
FOLD_STREAM = 11
INIT_STREAM = 23
DROPOUT_STREAM = 37

# row -> (label, feature set, windowed trends, age embedding, auxiliary targets);
# each row adds one step to the one before it.
ROW_RECIPES = {
    "baseline": ("Baseline", FEATURE_SET_BASELINE11, False, False, False),
    "windowed": ("+ windowed features", FEATURE_SET_RECENT, True, False, False),
    "age_embedding": ("+ age embedding", FEATURE_SET_RECENT, True, True, False),
    "multi_task": ("+ multi-task optimization", FEATURE_SET_RECENT, True, True, True),
}
ABLATION_ROWS = tuple(ROW_RECIPES)
ROW_BASELINE, ROW_WINDOWED, ROW_EMBEDDING, ROW_MULTI_TASK = ABLATION_ROWS
ROW_LABELS = {row: recipe[0] for row, recipe in ROW_RECIPES.items()}
METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "auc")


class EvaluationError(Exception):
    """Invalid evaluation setup (bad folds, single-class inputs, ...)."""


@dataclass(frozen=True)
class CVConfig:
    """Everything one cross-validated evaluation needs besides the data."""

    features: FeatureConfig = field(default_factory=FeatureConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    use_embedding: bool = True
    k_folds: int = 10
    threshold: float = 0.5
    patient_grouped: bool = False

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:  # also rejects NaN
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold!r}")
        if self.k_folds < 2:
            raise ValueError(f"k_folds must be >= 2, got {self.k_folds!r}")


@dataclass(eq=False)
class Predictions:
    """Pooled held-out predictions, in input record order."""

    record_ids: list[str]
    labels: np.ndarray  # class codes, indices into dataset.LABELS
    probs: np.ndarray   # predicted event probability


def make_folds(labels, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Stratified fold assignment: shuffle within each class, deal round-robin.

    Returns k sorted index arrays that partition range(len(labels)).  Per
    class, fold sizes differ by at most one.  Fewer than two folds, or a
    class with fewer records than folds, is an error.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise EvaluationError("cross-validation needs at least 2 folds")
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise EvaluationError(
                f"class {cls.item()!r} has {idx.size} records but {k} folds were requested"
            )
        rng.shuffle(idx)
        for j in range(k):
            folds[j].extend(idx[j::k].tolist())
    return [np.array(sorted(f), dtype=int) for f in folds]


def make_patient_folds(patient_ids, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Grouped folds: all records of a patient land in one fold.

    Patients are shuffled and greedily assigned to the currently smallest
    fold (by record count), which balances sizes but not class ratios; meant
    for leakage studies rather than the default protocol.
    """
    if k < 2:
        raise EvaluationError("cross-validation needs at least 2 folds")
    patient_ids = list(patient_ids)
    by_patient: dict[str, list[int]] = {}
    for i, pid in enumerate(patient_ids):
        by_patient.setdefault(pid, []).append(i)
    if len(by_patient) < k:
        raise EvaluationError(f"{len(by_patient)} patients cannot fill {k} folds")
    order = sorted(by_patient)
    rng.shuffle(order)
    folds: list[list[int]] = [[] for _ in range(k)]
    for pid in order:
        smallest = min(range(k), key=lambda j: (len(folds[j]), j))
        folds[smallest].extend(by_patient[pid])
    return [np.array(sorted(f), dtype=int) for f in folds]


def metrics(labels, probs, threshold: float = CVConfig.threshold) -> dict[str, float]:
    """Confusion-matrix metrics at a probability threshold (ties positive).

    Returns accuracy, sensitivity, specificity and precision along with the
    raw counts.  When nothing is predicted positive, precision is 0 and the
    ``no_positive_predictions`` flag is set instead of dividing by zero.
    """
    labels = np.asarray(labels, dtype=int)
    probs = np.asarray(probs, dtype=float)
    pred = probs >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    total = tp + fp + tn + fn
    no_positive = (tp + fp) == 0
    return {
        "accuracy": (tp + tn) / total if total else 0.0,
        "sensitivity": tp / (tp + fn) if (tp + fn) else 0.0,
        "specificity": tn / (tn + fp) if (tn + fp) else 0.0,
        "precision": 0.0 if no_positive else tp / (tp + fp),
        "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        "no_positive_predictions": no_positive,
    }


def auc(labels, probs) -> float:
    """Rank-based AUC with ties counted half, equal to the trapezoidal ROC area."""
    labels = np.asarray(labels, dtype=int)
    probs = np.asarray(probs, dtype=float)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs at least one record of each class")
    if np.isnan(probs).any():
        raise EvaluationError("AUC needs probabilities that are not NaN")
    ranks = _average_ranks(probs)
    u = float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, each run of ties sharing its mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    run_start = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(run_start)
    ends = np.r_[starts[1:], values.size]  # one past each run's last position
    run = np.cumsum(run_start) - 1
    ranks = np.empty(values.size)
    ranks[order] = (starts[run] + 1 + ends[run]) / 2.0
    return ranks


def build_examples(cohort: Cohort, idx, standardizer, bmi_standardizer) -> Batch:
    """The cohort rows ``idx`` as a standardized batch.

    Both standardizers come from training rows only.  Without a BMI
    standardizer (no training row knows its BMI) every BMI target is masked.
    """
    bmi_mask = cohort.bmi_mask[idx] & (bmi_standardizer is not None)
    y_bmi = np.zeros(bmi_mask.shape)
    if bmi_standardizer is not None:
        y_bmi[bmi_mask] = standardize(bmi_standardizer, cohort.bmi[idx][bmi_mask])
    return Batch(
        features=standardize(standardizer, cohort.X[idx]),
        decade_index=cohort.decade_index[idx],
        y_vta=cohort.y_vta[idx],
        y_nyhac=cohort.y_nyhac[idx],
        y_bmi=y_bmi,
        bmi_mask=bmi_mask,
    )


def fit_model(
    cohort: Cohort, train_idx, config: CVConfig, seed: int, fold: int,
) -> tuple[NetworkParams, list[dict[str, float]], tuple]:
    """Fit the standardizers on rows ``train_idx`` and train a fresh network there.

    The network holds the heads its loss reads (``network.active_tasks``)
    and trains at ``network.TRAIN_DTYPE``: the float64 initialization is
    rounded to it once.  Initialization and dropout draw from ``seed`` and
    ``fold`` through their stream labels.  Returns (params, history,
    (standardizer, bmi_standardizer)); the standardizers map any other rows
    the same way.
    """
    train_bmi = cohort.bmi[train_idx][cohort.bmi_mask[train_idx]]
    standardizers = (
        fit_standardizer(cohort.X[train_idx]),
        fit_standardizer(train_bmi) if train_bmi.size else None,
    )
    batch = build_examples(cohort, train_idx, *standardizers)
    net_config = NetworkConfig(
        num_features=cohort.X.shape[1],
        num_decades=cohort.num_decades,
        use_embedding=config.use_embedding,
        heads=active_tasks(batch, config.train.lam_nyhac, config.train.lam_bmi),
    )
    initial = init_params(net_config, np.random.default_rng([seed, INIT_STREAM, fold]))
    params = NetworkParams(net_config, {name: value.astype(TRAIN_DTYPE) for name, value in initial.tensors.items()})
    params, history = train(batch, config.train, params,
                            np.random.default_rng([seed, DROPOUT_STREAM, fold]))
    return params, history, standardizers


def run_cv(cohort: Cohort, config: CVConfig, seed: int) -> Predictions:
    """One cross-validated evaluation: returns pooled held-out predictions.

    ``cohort`` must be built with ``config.features``.  Per fold, the
    standardizers (features and the BMI target) are fitted on the training
    rows only, a fresh network is initialized and trained, and the held-out
    rows are scored.
    """
    if not len(cohort):
        raise EvaluationError("no records to evaluate")
    fold_rng = np.random.default_rng([seed, FOLD_STREAM])
    if config.patient_grouped:
        folds = make_patient_folds(cohort.patient_ids, config.k_folds, fold_rng)
    else:
        try:
            folds = make_folds(cohort.y_vta, config.k_folds, fold_rng)
        except EvaluationError as exc:
            codes = ", ".join(f"class {code} is {name}" for code, name in reversed(tuple(enumerate(LABELS))))
            raise EvaluationError(f"{exc} ({codes})") from None

    probs = np.full(len(cohort), np.nan)
    for fold_i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(len(cohort)), test_idx)
        try:
            params, _, standardizers = fit_model(cohort, train_idx, config, seed, fold_i)
        except TrainingError as exc:
            raise TrainingError(f"fold {fold_i}: {exc}") from None
        probs[test_idx] = predict(params, build_examples(cohort, test_idx, *standardizers))

    return Predictions(list(cohort.record_ids), cohort.y_vta, probs)


def ablation_config(row: str, base: CVConfig) -> CVConfig:
    """Resolve one grid row of ``ROW_RECIPES`` into a concrete configuration.

    Without auxiliary targets both auxiliary weights are 0; with them they
    come from ``base.train``.
    """
    if row not in ROW_RECIPES:
        raise EvaluationError(f"unknown ablation row {row!r}")
    _, feature_set, windowed, embedding, auxiliary = ROW_RECIPES[row]
    return replace(
        base,
        features=FeatureConfig(feature_set, windowed),
        use_embedding=embedding,
        train=base.train if auxiliary else replace(base.train, lam_nyhac=0.0, lam_bmi=0.0),
    )


@dataclass(eq=False)
class EvalReport:
    rows: tuple[str, ...]
    seeds: tuple[int, ...]
    per_seed: dict[str, dict[int, dict[str, float]]]
    means: dict[str, dict[str, float]]
    predictions: dict[tuple[str, int], Predictions]


def _run_item(payload):
    row, seed, cohort, config = payload
    return row, seed, run_cv(cohort, config, seed)


def run_ablation(
    records: list[RRRecord],
    patients: dict[str, PatientMeta],
    base: CVConfig,
    seeds,
    jobs: int,
) -> EvalReport:
    """Evaluate every grid row over the given sequence of seeds (e.g. ``range(10)``).

    Each row's recipe sets the features and the embedding, so ``base.features``
    and ``base.use_embedding`` are not read.  One cohort is built per distinct
    feature configuration and shared across seeds and workers.  With
    ``jobs > 1`` the (row, seed) items run in a process pool; results are
    merged in fixed order, so the output is identical to a serial run.
    """
    seed_list = tuple(int(s) for s in seeds)
    if not seed_list:
        raise EvaluationError("need at least one seed")
    configs = {row: ablation_config(row, base) for row in ABLATION_ROWS}
    cohorts = {
        features: build_cohort(records, patients, features)
        for features in dict.fromkeys(config.features for config in configs.values())
    }

    items = [
        (row, seed, cohorts[configs[row].features], configs[row])
        for row in ABLATION_ROWS
        for seed in seed_list
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for its import

        # the pool starts every worker at once, so it gets no more than there are items
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            results = list(pool.map(_run_item, items))
    else:
        results = [_run_item(item) for item in items]

    predictions = {(row, seed): preds for row, seed, preds in results}
    per_seed: dict[str, dict[int, dict[str, float]]] = {}
    means: dict[str, dict[str, float]] = {}
    for row in ABLATION_ROWS:
        per_seed[row] = {}
        for seed in seed_list:
            preds = predictions[(row, seed)]
            stats = metrics(preds.labels, preds.probs, base.threshold)
            stats["auc"] = auc(preds.labels, preds.probs)
            per_seed[row][seed] = stats
        means[row] = {
            name: float(np.mean([per_seed[row][s][name] for s in seed_list]))
            for name in METRIC_NAMES
        }
    return EvalReport(ABLATION_ROWS, seed_list, per_seed, means, predictions)


def format_report_table(report: EvalReport) -> str:
    """Aligned text table of seed-averaged metrics, as percentages."""
    header = ("Configuration", "Accuracy", "Sensitivity", "Specificity", "Precision", "AUC")
    lines = [f"{header[0]:<28}" + "".join(f"{h:>13}" for h in header[1:])]
    for row in report.rows:
        cells = "".join(f"{100.0 * report.means[row][m]:>13.2f}" for m in METRIC_NAMES)
        lines.append(f"{ROW_LABELS[row]:<28}" + cells)
    return "\n".join(lines) + "\n"


def write_report_csv(path, report: EvalReport) -> None:
    """Seed-averaged metrics as CSV percentages with two decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["configuration", *METRIC_NAMES])
        for row in report.rows:
            writer.writerow([ROW_LABELS[row], *(f"{100.0 * report.means[row][m]:.2f}" for m in METRIC_NAMES)])


def write_per_seed_csv(path, report: EvalReport) -> None:
    """Raw (unaveraged, unscaled) per-seed metrics as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["configuration", "seed", *METRIC_NAMES])
        for row in report.rows:
            for seed in report.seeds:
                stats = report.per_seed[row][seed]
                writer.writerow([ROW_LABELS[row], seed, *(f"{stats[m]:.17g}" for m in METRIC_NAMES)])


def write_predictions_csv(path, predictions: Predictions) -> None:
    """Pooled per-record predictions: record_id,label,probability."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_id", "label", "probability"])
        for rid, label, prob in zip(predictions.record_ids, predictions.labels, predictions.probs):
            writer.writerow([rid, LABELS[label], f"{prob:.17g}"])
