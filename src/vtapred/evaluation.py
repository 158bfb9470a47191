"""Stratified cross-validation, ranking metrics, and the staged ablation grid.

The grid retrains the model from scratch for every (configuration row, seed,
fold) combination, pools the held-out predictions per run, and averages the
resulting metrics over seeds.  All randomness is derived from the run seed
through fixed stream labels, so a (seed, data, config) triple pins every
number bit-for-bit, no matter how many worker processes are used.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import LABELS, PatientMeta, RRRecord, write_csv
from .features import (
    FEATURE_SET_BASELINE11,
    FEATURE_SET_RECENT,
    Cohort,
    build_cohort,
    fit_standardizer,
    standardize,
)
from .network import TRAIN_DTYPE, Batch, NetworkConfig, NetworkParams, init_params, objective, predict
from .optim import AUX_WEIGHT, TrainingError, train

# Stream labels mixed into the seed so each consumer of randomness gets an
# independent, reproducible generator.
FOLD_STREAM = 11
INIT_STREAM = 23
DROPOUT_STREAM = 37

DECISION_THRESHOLD = 0.5  # a held-out probability at or above it counts as an event

# row -> (label, feature set, age embedding, auxiliary targets); each row adds
# one step to the one before it, the first by moving to the windowed `recent` family.
ROW_RECIPES = {
    "baseline": ("Baseline", FEATURE_SET_BASELINE11, False, False),
    "windowed": ("+ windowed features", FEATURE_SET_RECENT, False, False),
    "age_embedding": ("+ age embedding", FEATURE_SET_RECENT, True, False),
    "multi_task": ("+ multi-task optimization", FEATURE_SET_RECENT, True, True),
}
ABLATION_ROWS = tuple(ROW_RECIPES)
ROW_BASELINE, ROW_WINDOWED, ROW_EMBEDDING, ROW_MULTI_TASK = ABLATION_ROWS
ROW_LABELS = {row: recipe[0] for row, recipe in ROW_RECIPES.items()}
METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "auc")


class EvaluationError(Exception):
    """Invalid evaluation setup (bad folds, single-class inputs, ...)."""


@dataclass(frozen=True)
class CVConfig:
    """Everything one fit and its cross-validation need besides the data and its features.

    With ``patient_grouped``, :func:`make_folds` deals whole patients,
    stratified by the classes each patient's records hold, and every fold
    holds a patient whenever there are at least ``k_folds``; without it,
    single records, stratified by class.
    """

    epochs: int = 1000
    multi_task: bool = True  # train the auxiliary heads at AUX_WEIGHT; else the event head alone
    use_embedding: bool = True
    k_folds: int = 10
    patient_grouped: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs!r}")
        if self.k_folds < 2:
            raise ValueError(f"k_folds must be >= 2, got {self.k_folds!r}")

    @property
    def aux_weight(self) -> float:
        """The loss weight of each auxiliary head: ``optim.AUX_WEIGHT``, or 0.0 without multi-task."""
        return AUX_WEIGHT if self.multi_task else 0.0


def make_folds(labels, k: int, rng: np.random.Generator, groups=None) -> list[np.ndarray]:
    """Stratified fold assignment of whole groups: shuffle within each stratum, deal to the emptiest fold.

    ``labels`` are the records' class names, which the errors quote.
    ``groups`` names each record's group (a patient id, say); by default each
    record is its own group.  All records of a group land in one fold.  A
    group's stratum is the sorted tuple of the classes its records hold, so a
    lone record's is its class and an event/control pair's is both.  The
    strata are visited in sorted order.  Each is shuffled, its largest groups
    are moved first (a stable sort), and each group goes to the fold holding
    the fewest records of that stratum; among those, a fold holding no record
    yet comes first, then the lowest fold.  An empty fold always ties at that
    minimum, so with at least k groups no fold is left empty, and one-record
    groups are dealt round-robin from fold 0.  Returns k sorted index arrays
    that partition range(len(labels)).  Per stratum, the record counts of any
    two folds differ by at most the stratum's largest group.  Fewer than two
    folds, a class with fewer records than folds, or fewer groups than folds
    is an :class:`EvaluationError`.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise EvaluationError("cross-validation needs at least 2 folds")
    groups = np.arange(labels.size) if groups is None else np.asarray(groups)
    if groups.shape != labels.shape:
        raise EvaluationError(f"{groups.size} groups given for {labels.size} records")
    classes, class_of, counts = np.unique(labels, return_inverse=True, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < k:
            raise EvaluationError(f"class {cls.item()!r} has {count} records but {k} folds were requested")
    names, group_of, sizes = np.unique(groups, return_inverse=True, return_counts=True)
    if names.size < k:
        raise EvaluationError(f"{names.size} patients cannot fill {k} folds")
    holds = np.zeros((names.size, classes.size), dtype=bool)
    holds[group_of, class_of] = True  # which classes each group's records hold
    fold_of = np.empty(names.size, dtype=int)
    taken = np.zeros(k, dtype=bool)  # the folds that hold a record of any stratum
    for key in sorted(np.unique(holds, axis=0), key=lambda held: tuple(classes[held].tolist())):
        stratum = np.flatnonzero((holds == key).all(axis=1))  # its groups in name order
        rng.shuffle(stratum)
        filled = np.zeros(k, dtype=int)  # this stratum's records in each fold
        for group in stratum[np.argsort(-sizes[stratum], kind="stable")]:
            # the fewest of this stratum, then an empty fold, then the lowest
            fold_of[group] = fold = (2 * filled + taken).argmin()
            filled[fold] += sizes[group]
            taken[fold] = True
    return [np.flatnonzero(fold_of[group_of] == j) for j in range(k)]


def metrics(labels, probs) -> dict[str, float]:
    """Confusion-matrix metrics at ``DECISION_THRESHOLD`` (ties positive).

    Returns accuracy, sensitivity, specificity and precision along with the
    raw counts.  When nothing is predicted positive, precision is 0 and the
    ``no_positive_predictions`` flag is set instead of dividing by zero.  A
    label other than 0 or 1, or a NaN probability, is an
    :class:`EvaluationError`, as in :func:`auc`.
    """
    labels = _class_codes(labels, "metrics need")
    probs = np.asarray(probs, dtype=float)
    if np.isnan(probs).any():
        raise EvaluationError("metrics need probabilities that are not NaN")
    pred = probs >= DECISION_THRESHOLD
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
    labels = _class_codes(labels, "AUC needs")
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


def _class_codes(labels, needs: str) -> np.ndarray:
    """``labels`` as an int array; a label other than 0 or 1 is an error that begins with ``needs``."""
    codes = np.asarray(labels)
    if not np.isin(codes, (0, 1)).all():
        raise EvaluationError(f"{needs} labels that are 0 or 1")
    return codes.astype(int)


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

    The network holds the heads its loss reads (``network.objective``)
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
        heads=tuple(objective(batch, config.aux_weight, config.aux_weight)),
    )
    params = init_params(net_config, np.random.default_rng([seed, INIT_STREAM, fold])).astype(TRAIN_DTYPE)
    params, history = train(batch, config, params, np.random.default_rng([seed, DROPOUT_STREAM, fold]))
    return params, history, standardizers


def _folds(labels, patient_ids, config: CVConfig, seed: int) -> list[np.ndarray]:
    """The folds ``config`` deals for rows of these class names and patients, drawn from ``seed``.

    Whole patients are dealt when ``config.patient_grouped`` is set, else single rows.
    """
    groups = patient_ids if config.patient_grouped else None
    return make_folds(labels, config.k_folds, np.random.default_rng([seed, FOLD_STREAM]), groups)


def fit_fold(cohort: Cohort, config: CVConfig, seed: int, fold: int, test_idx) -> np.ndarray:
    """The held-out event probabilities of rows ``test_idx`` from fold ``fold``'s fit on every other row.

    The standardizers (features and the BMI target) are fitted on the
    training rows only, and a fresh network is initialized and trained
    there.  A :class:`TrainingError` names the seed and the fold.  Reads
    only its arguments, so a pool worker can run it.
    """
    train_idx = np.setdiff1d(np.arange(len(cohort)), test_idx)
    try:
        params, _, standardizers = fit_model(cohort, train_idx, config, seed, fold)
    except TrainingError as exc:
        raise TrainingError(f"seed {seed}, fold {fold}: {exc}") from None
    return predict(params, build_examples(cohort, test_idx, *standardizers))


def run_cv(cohort: Cohort, config: CVConfig, seed: int) -> np.ndarray:
    """One cross-validated evaluation: the held-out event probability of each cohort row, in row order.

    Deals the folds from ``seed`` and fills each fold's rows with its
    :func:`fit_fold`.
    """
    if not len(cohort):
        raise EvaluationError("no records to evaluate")
    probs = np.full(len(cohort), np.nan)
    for fold, test_idx in enumerate(_folds(np.take(LABELS, cohort.y_vta), cohort.patient_ids, config, seed)):
        probs[test_idx] = fit_fold(cohort, config, seed, fold, test_idx)
    return probs


def ablation_config(row: str, base: CVConfig) -> tuple[str, CVConfig]:
    """Resolve one grid row of ``ROW_RECIPES`` into its feature set and its CV config.

    The row's embedding and auxiliary targets set ``use_embedding`` and
    ``multi_task``, whatever ``base`` says.
    """
    if row not in ROW_RECIPES:
        raise EvaluationError(f"unknown ablation row {row!r}")
    _, feature_set, embedding, auxiliary = ROW_RECIPES[row]
    return feature_set, replace(base, use_embedding=embedding, multi_task=auxiliary)


def _one_blas_thread() -> None:
    """Set the OpenBLAS bundled with numpy to one thread: each pool worker's initializer.

    Every process starts OpenBLAS's default threads, so ``jobs`` workers would
    crowd the cores with ``jobs`` times that many.  Without that library or
    its setter, nothing changes.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter(1)
                return


@dataclass(eq=False)
class EvalReport:
    """The grid's held-out probabilities, each run's aligned with ``record_ids``; ``score`` gives the metrics."""

    rows: tuple[str, ...]
    seeds: tuple[int, ...]
    record_ids: tuple[str, ...]
    labels: np.ndarray  # class codes, indices into dataset.LABELS
    probs: dict[tuple[str, int], np.ndarray]


def run_ablation(
    records: list[RRRecord],
    patients: dict[str, PatientMeta],
    base: CVConfig,
    seeds,
    jobs: int,
) -> EvalReport:
    """Evaluate every grid row over the given sequence of distinct seeds (e.g. ``range(10)``).

    Each row's recipe sets the features, the embedding and the auxiliary
    targets, so neither ``base.use_embedding`` nor ``base.multi_task`` is
    read.  Before any feature is extracted, both classes must be present and
    each seed's folds are dealt once, by ``run_cv``'s fold rules; every row
    shares its seed's deal.  One cohort holds every row's family, and a
    row's items get its family's columns.  Each (row, seed, fold) item is
    one :func:`fit_fold`; with ``jobs > 1`` the items run in a process pool
    of at most ``jobs`` workers and one per CPU.  Results are merged in
    fixed order, so the output is identical to a serial run.  The workers
    compute with one BLAS thread, which at fold sizes gives the bytes of the
    default thread count (README, Determinism).  A :class:`TrainingError`
    names the row, seed and fold of the first item in grid order that fails.
    """
    seed_list = tuple(int(s) for s in seeds)
    if not seed_list:
        raise EvaluationError("need at least one seed")
    if len(set(seed_list)) < len(seed_list):
        raise EvaluationError(f"seed {next(s for i, s in enumerate(seed_list) if s in seed_list[:i])} is given twice")
    counts = {label: sum(rec.label == label for rec in records) for label in LABELS}
    if not all(counts.values()):
        found = ", ".join(f"{count} {label}" for label, count in counts.items())
        raise EvaluationError(f"the grid's AUC needs records of both classes, got {found}")
    labels = [rec.label for rec in records]
    patient_ids = [rec.patient_id for rec in records]
    folds = {seed: _folds(labels, patient_ids, base, seed) for seed in seed_list}
    configs = {row: ablation_config(row, base) for row in ABLATION_ROWS}
    cohort = build_cohort(records, patients, [feature_set for feature_set, _ in configs.values()])

    items = [(row, seed, fold) for row in ABLATION_ROWS for seed in seed_list for fold in range(base.k_folds)]
    # fit_fold's arguments as columns, one entry per item; an item's cohort has only its row's family's columns
    arguments = zip(*((cohort.family(configs[row][0]), configs[row][1], seed, fold, folds[seed][fold])
                      for row, seed, fold in items))

    def fit_all(mapper) -> list[np.ndarray]:
        done = []
        try:
            for held_out in mapper(fit_fold, *arguments):
                done.append(held_out)
        except TrainingError as exc:  # both mappers yield in item order: the item after the last received failed
            raise TrainingError(f"row {items[len(done)][0]!r}, {exc}") from None
        return done

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for its import

        # the pool starts every worker at once, so it gets no more than there are items or CPUs
        with ProcessPoolExecutor(min(jobs, len(items), os.cpu_count() or 1), initializer=_one_blas_thread) as pool:
            fold_probs = fit_all(pool.map)
    else:
        fold_probs = fit_all(map)

    probs = {(row, seed): np.full(len(cohort), np.nan) for row in ABLATION_ROWS for seed in seed_list}
    for (row, seed, fold), held_out in zip(items, fold_probs):
        probs[row, seed][folds[seed][fold]] = held_out
    return EvalReport(ABLATION_ROWS, seed_list, cohort.record_ids, cohort.y_vta, probs)


def score(report: EvalReport) -> tuple[dict[str, dict[int, dict[str, float]]], dict[str, dict[str, float]]]:
    """The grid's metrics: (per_seed[row][seed], the seed means[row] of each of ``METRIC_NAMES``)."""
    per_seed = {
        row: {seed: {**metrics(report.labels, report.probs[row, seed]),
                     "auc": auc(report.labels, report.probs[row, seed])} for seed in report.seeds}
        for row in report.rows
    }
    means = {
        row: {name: float(np.mean([per_seed[row][s][name] for s in report.seeds])) for name in METRIC_NAMES}
        for row in report.rows
    }
    return per_seed, means


def format_report_table(report: EvalReport) -> str:
    """Aligned text table of seed-averaged metrics, as percentages."""
    header = ("Configuration", "Accuracy", "Sensitivity", "Specificity", "Precision", "AUC")
    lines = [f"{header[0]:<28}" + "".join(f"{h:>13}" for h in header[1:])]
    means = score(report)[1]
    for row in report.rows:
        cells = "".join(f"{100.0 * means[row][m]:>13.2f}" for m in METRIC_NAMES)
        lines.append(f"{ROW_LABELS[row]:<28}" + cells)
    return "\n".join(lines) + "\n"


def write_report_csv(path, report: EvalReport) -> None:
    """Seed-averaged metrics as CSV percentages with two decimals."""
    means = score(report)[1]
    write_csv(path, ["configuration", *METRIC_NAMES],
              ([ROW_LABELS[row], *(f"{100.0 * means[row][m]:.2f}" for m in METRIC_NAMES)] for row in report.rows))


def write_per_seed_csv(path, report: EvalReport) -> None:
    """Raw (unaveraged, unscaled) per-seed metrics as CSV."""
    per_seed = score(report)[0]
    write_csv(path, ["configuration", "seed", *METRIC_NAMES],
              ([ROW_LABELS[row], seed, *(f"{per_seed[row][seed][m]:.17g}" for m in METRIC_NAMES)]
               for row in report.rows for seed in report.seeds))


def write_predictions_csv(path, record_ids, labels, probs) -> None:
    """Pooled per-record predictions: record_id,label,probability; ``labels`` are class codes."""
    write_csv(path, ["record_id", "label", "probability"],
              ([rid, LABELS[label], f"{prob:.17g}"] for rid, label, prob in zip(record_ids, labels, probs)))
