"""Cross-validation, metric, and ablation-grid tests."""

import concurrent.futures
import importlib
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import roc_auc_trapezoid
from vtapred import (
    CVConfig,
    EvaluationError,
    TrainConfig,
    build_cohort,
    evaluation,
    format_report_table,
    metrics,
    run_ablation,
    run_cv,
)
from vtapred.dataset import LABEL_CONTROL, LABEL_VTA
from vtapred.evaluation import (
    ABLATION_ROWS,
    DROPOUT_STREAM,
    FOLD_STREAM,
    INIT_STREAM,
    METRIC_NAMES,
    ROW_BASELINE,
    ROW_EMBEDDING,
    ROW_LABELS,
    ROW_MULTI_TASK,
    ROW_WINDOWED,
    _average_ranks,
    ablation_config,
    auc,
    build_examples,
    fit_model,
    make_folds,
    score,
    write_per_seed_csv,
    write_predictions_csv,
    write_report_csv,
)
from vtapred.features import feature_names
from vtapred.network import TASKS, TRAIN_DTYPE, NetworkConfig, NetworkParams, init_params
from vtapred.optim import TrainingError, train

QUICK_TRAIN = TrainConfig(epochs=60)


def quick_config(**overrides) -> CVConfig:
    base = dict(train=QUICK_TRAIN, k_folds=10)
    base.update(overrides)
    return CVConfig(**base)


@pytest.fixture()
def recording_pool(monkeypatch):
    """Replace the process pool with a stand-in that starts no process and maps serially.

    Returns the list of each pool's (max_workers, initializer).
    """
    requested = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            requested.append((max_workers, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return requested


@pytest.fixture()
def fold_2_fails(monkeypatch):
    """Make every fit of fold 2 raise the ``TrainingError`` a diverging fit raises; other folds fit as usual."""
    fit_model = evaluation.fit_model

    def failing_fit_model(cohort, train_idx, config, seed, fold):
        if fold == 2:
            raise TrainingError("non-finite loss at epoch 0")
        return fit_model(cohort, train_idx, config, seed, fold)

    monkeypatch.setattr(evaluation, "fit_model", failing_fit_model)


class TestMakeFolds:
    def test_published_record_counts_split_evenly(self, rng):
        labels = ["VTA"] * 135 + ["Control"] * 126
        folds = make_folds(labels, 10, rng)
        labels = np.array(labels)
        for fold in folds:
            pos = int(np.sum(labels[fold] == "VTA"))
            neg = fold.size - pos
            assert pos in (13, 14)
            assert neg in (12, 13)

    def test_folds_partition_the_dataset(self, rng):
        labels = [i % 2 for i in range(47)]
        folds = make_folds(labels, 10, rng)
        merged = np.concatenate(folds)
        assert len(merged) == 47
        assert len(np.unique(merged)) == 47

    def test_same_seed_same_plan(self):
        labels = [i % 2 for i in range(30)]
        a = make_folds(labels, 5, np.random.default_rng(12))
        b = make_folds(labels, 5, np.random.default_rng(12))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_single_fold_rejected(self, rng):
        with pytest.raises(EvaluationError, match="at least 2 folds"):
            make_folds([0, 1] * 10, 1, rng)

    def test_small_class_rejected(self, rng):
        labels = [1] * 3 + [0] * 30
        with pytest.raises(EvaluationError, match="has 3 records but 10 folds"):
            make_folds(labels, 10, rng)

    @pytest.mark.parametrize("n_event, n_control", [(20, 20), (13, 31), (45, 12)])
    def test_class_column_gives_the_label_string_plan(self, n_event, n_control):
        # run_cv passes the 0/1 class column; the label strings sort the same way
        y = np.random.default_rng(n_event).permutation([1] * n_event + [0] * n_control)
        names = np.where(y == 1, LABEL_VTA, LABEL_CONTROL)
        for seed in range(5):
            by_class = make_folds(y, 10, np.random.default_rng([seed, FOLD_STREAM]))
            by_name = make_folds(names, 10, np.random.default_rng([seed, FOLD_STREAM]))
            for a, b in zip(by_class, by_name, strict=True):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("n_event, n_control", [(10, 10), (17, 42), (51, 12), (125, 125)])
    def test_one_record_groups_give_the_record_plan(self, k, n_event, n_control):
        y = np.random.default_rng(n_control).permutation([1] * n_event + [0] * n_control)
        for seed in range(4):
            by_record = make_folds(y, k, np.random.default_rng([seed, FOLD_STREAM]))
            by_group = make_folds(y, k, np.random.default_rng([seed, FOLD_STREAM]), groups=range(y.size))
            for a, b in zip(by_record, by_group, strict=True):
                np.testing.assert_array_equal(a, b)


class TestCVConfigValidation:
    @pytest.mark.parametrize("k_folds", [1, 0])
    def test_fewer_than_two_folds(self, k_folds):
        with pytest.raises(ValueError, match="k_folds must be >= 2"):
            CVConfig(k_folds=k_folds)


class TestPatientFolds:
    def test_records_of_one_patient_stay_together(self, rng):
        pids = [f"p{i // 3}" for i in range(30)]  # 10 patients x 3 records
        folds = make_folds([i % 2 for i in range(30)], 5, rng, groups=pids)
        for fold in folds:
            fold_pids = {pids[i] for i in fold}
            for pid in fold_pids:
                members = [i for i, p in enumerate(pids) if p == pid]
                assert set(members) <= set(fold.tolist())

    def test_partition_property(self, rng):
        pids = [f"p{i % 7}" for i in range(25)]
        folds = make_folds([i % 2 for i in range(25)], 3, rng, groups=pids)
        merged = np.concatenate(folds)
        assert sorted(merged.tolist()) == list(range(25))

    def test_too_few_patients_rejected(self, rng):
        with pytest.raises(EvaluationError, match="^2 patients cannot fill 3 folds$"):
            make_folds([0, 1] * 3, 3, rng, groups=["a", "b"] * 3)

    def test_small_class_named_before_too_few_patients(self, rng):
        with pytest.raises(EvaluationError, match="^class 1 has 2 records but 3 folds were requested$"):
            make_folds([1, 1, 0, 0, 0, 0], 3, rng, groups=["a", "b"] * 3)

    def test_one_group_per_record(self, rng):
        with pytest.raises(EvaluationError, match="^5 groups given for 6 records$"):
            make_folds([0, 1] * 3, 3, rng, groups=["a", "b", "c", "d", "e"])

    # 78 patients in each: 135 event/control pairs, as in mvtdb, and a mix of
    # pairs with event-only and control-only patients
    PAIRS_ONLY = [[1, 0]] * 42 + [[1, 0] * 2] * 21 + [[1, 0] * 3] * 9 + [[1, 0] * 4] * 6
    MIXED = [[1, 0]] * 40 + [[1, 0] * 2] * 20 + [[1]] * 10 + [[0, 0]] * 8

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("records", [PAIRS_ONLY, MIXED], ids=["pairs_only", "mixed"])
    def test_each_stratum_is_dealt_evenly(self, records, seed):
        labels = np.array([label for held in records for label in held])
        pids = [f"p{p:02d}" for p, held in enumerate(records) for _ in held]
        folds = make_folds(labels, 10, np.random.default_rng([seed, FOLD_STREAM]), groups=pids)
        assert sorted(np.concatenate(folds).tolist()) == list(range(labels.size))
        fold_of = {}
        for j, fold in enumerate(folds):
            for i in fold.tolist():
                assert fold_of.setdefault(pids[i], j) == j, f"patient {pids[i]} is split across folds"
        strata = {}
        for p, held in enumerate(records):
            strata.setdefault(tuple(sorted(set(held))), []).append((fold_of[f"p{p:02d}"], len(held)))
        for held, placed in strata.items():
            per_fold = np.bincount([j for j, _ in placed], weights=[size for _, size in placed], minlength=10)
            largest = max(size for _, size in placed)
            assert per_fold.max() - per_fold.min() <= largest, (held, per_fold)

    def test_pairs_only_folds_are_as_even_as_the_records_allow(self):
        labels = np.array([label for held in self.PAIRS_ONLY for label in held])
        pids = [f"p{p:02d}" for p, held in enumerate(self.PAIRS_ONLY) for _ in held]
        for seed in range(20):
            folds = make_folds(labels, 10, np.random.default_rng([seed, FOLD_STREAM]), groups=pids)
            assert {len(fold) for fold in folds} <= {26, 28}, [len(fold) for fold in folds]  # 270 records, pairs
            assert all(labels[fold].mean() == 0.5 for fold in folds)


class TestMetrics:
    def test_worked_confusion_matrix(self):
        # TP 7, FN 3 (positives), TN 8, FP 2 (negatives)
        labels = np.array([1] * 10 + [0] * 10)
        probs = np.array([0.9] * 7 + [0.1] * 3 + [0.2] * 8 + [0.8] * 2)
        out = metrics(labels, probs)
        assert out["accuracy"] == pytest.approx(0.75)
        assert out["sensitivity"] == pytest.approx(0.70)
        assert out["specificity"] == pytest.approx(0.80)
        assert out["precision"] == pytest.approx(7.0 / 9.0)
        assert (out["tp"], out["fn"], out["tn"], out["fp"]) == (7, 3, 8, 2)

    def test_perfect_predictions(self):
        labels = np.array([1, 1, 0, 0])
        out = metrics(labels, np.array([0.9, 0.8, 0.1, 0.2]))
        for name in ("accuracy", "sensitivity", "specificity", "precision"):
            assert out[name] == 1.0

    def test_nan_probability_rejected(self):
        with pytest.raises(EvaluationError, match="not NaN"):
            metrics([0, 1, 1], [float("nan"), 0.9, 0.2])

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1], [0, 1, 0.5]])
    def test_label_outside_the_two_classes_rejected(self, labels):
        # a label of 2 falls in no cell of the confusion matrix: unchecked, accuracy would read 1.0 here
        with pytest.raises(EvaluationError, match="labels that are 0 or 1"):
            metrics(labels, [0.1, 0.9, 0.9])

    def test_half_probability_counts_positive(self):
        out = metrics(np.array([1, 0]), np.array([0.5, 0.5]))
        assert out["tp"] == 1 and out["fp"] == 1
        assert out["sensitivity"] == 1.0

    def test_threshold_comes_from_the_module_constant(self, monkeypatch):
        # the worked example's scores, which a non-default constant splits elsewhere
        labels = np.array([1] * 10 + [0] * 10)
        probs = np.array([0.9] * 7 + [0.1] * 3 + [0.2] * 8 + [0.8] * 2)
        assert evaluation.DECISION_THRESHOLD == 0.5
        monkeypatch.setattr(evaluation, "DECISION_THRESHOLD", 0.85)
        out = metrics(labels, probs)
        assert (out["tp"], out["fn"], out["tn"], out["fp"]) == (7, 3, 10, 0)
        monkeypatch.setattr(evaluation, "DECISION_THRESHOLD", 0.15)
        out = metrics(labels, probs)
        assert (out["tp"], out["fn"], out["tn"], out["fp"]) == (7, 3, 0, 10)

    def test_no_positive_predictions_flagged(self):
        out = metrics(np.array([1, 0]), np.array([0.1, 0.2]))
        assert out["precision"] == 0.0
        assert out["no_positive_predictions"] is True

    def test_identities_on_random_confusions(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            probs = rng.random(n)
            out = metrics(labels, probs)
            tp, fp, tn, fn = out["tp"], out["fp"], out["tn"], out["fn"]
            assert tp + fp + tn + fn == n
            assert out["accuracy"] == pytest.approx((tp + tn) / n)
            if tp + fn:
                assert out["sensitivity"] == pytest.approx(tp / (tp + fn))
            if tn + fp:
                assert out["specificity"] == pytest.approx(tn / (tn + fp))
            pos = tp + fn
            neg = tn + fp
            blended = (out["sensitivity"] * pos + out["specificity"] * neg) / n
            assert out["accuracy"] == pytest.approx(blended)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 1, 0, 0], [0.9, 0.8, 0.1, 0.4]) == 1.0

    def test_all_ties_is_half(self):
        assert auc([1, 0, 1, 0], [0.3, 0.3, 0.3, 0.3]) == 0.5

    def test_three_of_four_pairs(self):
        assert auc([1, 1, 0, 0], [0.8, 0.3, 0.5, 0.2]) == pytest.approx(0.75)

    def test_matches_trapezoidal_roc(self, rng):
        for _ in range(100):
            n = int(rng.integers(6, 80))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantize some scores to force ties
            probs = np.round(rng.random(n), 1)
            assert auc(labels, probs) == pytest.approx(roc_auc_trapezoid(labels, probs), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError, match="each class"):
            auc([1, 1], [0.3, 0.4])

    def test_nan_probability_rejected(self):
        with pytest.raises(EvaluationError, match="not NaN"):
            auc([1, 0, 1], [0.3, float("nan"), 0.4])

    @pytest.mark.parametrize("labels", [[0, 1, -1], [0, 1, 2], [0, 1, 0.5]])
    def test_label_outside_the_two_classes_rejected(self, labels):
        # a label of -1 falls in neither class: unchecked, the rank sum would give an AUC of 2.0 here
        with pytest.raises(EvaluationError, match="labels that are 0 or 1"):
            auc(labels, [0.5, 0.9, 0.1])

    def test_average_ranks_bit_identical_to_scipy(self, rng, scipy_reference):
        from scipy.stats import rankdata

        for i in range(300):
            n = int(rng.integers(1, 300))
            values = rng.integers(0, int(rng.integers(1, 20)), n) / 7.0  # heavy ties
            if i % 4 == 0:
                values = rng.random(n)
            if i % 5 == 0:
                values[::3] = -0.0  # ties with 0.0
            ranks = _average_ranks(values)
            assert np.array_equal(ranks, rankdata(values, method="average"))


class TestRunCV:
    def test_every_record_scored_exactly_once(self, gaussian200):
        probs = run_cv(gaussian200, quick_config(), seed=0)
        assert probs.shape == (len(gaussian200),) and probs.dtype == np.float64
        assert np.isfinite(probs).all()

    def test_same_seed_is_bit_identical(self, gaussian200):
        a = run_cv(gaussian200, quick_config(), seed=3)
        b = run_cv(gaussian200, quick_config(), seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, gaussian200):
        a = run_cv(gaussian200, quick_config(), seed=0)
        b = run_cv(gaussian200, quick_config(), seed=1)
        assert not np.array_equal(a, b)

    def test_learns_the_separable_task(self, gaussian200):
        probs = run_cv(gaussian200, quick_config(), seed=0)
        assert metrics(gaussian200.y_vta, probs)["accuracy"] >= 0.9

    def test_no_leakage_from_held_out_records(self, gaussian200):
        """Corrupting one test record must not move its fold-mates' scores.

        The poisoned record is training data for every other fold, so only
        its own fold (where it is held out) is expected to stay put.
        """
        config = quick_config()
        folds = make_folds(gaussian200.y_vta, config.k_folds, np.random.default_rng([5, FOLD_STREAM]))
        victim_fold = folds[0]
        victim = int(victim_fold[0])

        clean = run_cv(gaussian200, config, seed=5)
        X = gaussian200.X.copy()
        X[victim] = X[victim] * 977.0 + 13.0
        dirty = run_cv(replace(gaussian200, X=X), config, seed=5)

        siblings = [i for i in victim_fold.tolist() if i != victim]
        np.testing.assert_array_equal(clean[siblings], dirty[siblings])
        assert clean[victim] != dirty[victim]

    def test_runs_without_embedding(self, gaussian200):
        probs = run_cv(gaussian200, quick_config(use_embedding=False), seed=0)
        assert np.isfinite(probs).all()

    def test_patient_grouped_mode(self, gaussian200):
        config = quick_config(patient_grouped=True, k_folds=5)
        probs = run_cv(gaussian200, config, seed=0)
        assert np.isfinite(probs).all()

    def test_undersized_class_named_by_value_and_label(self, gaussian200):
        y_vta = np.zeros(len(gaussian200), dtype=int)
        y_vta[[0, 2, 4]] = 1
        message = ("class 1 has 3 records but 10 folds were requested "
                   f"(class 1 is {LABEL_VTA}, class 0 is {LABEL_CONTROL})")
        with pytest.raises(EvaluationError) as caught:
            run_cv(replace(gaussian200, y_vta=y_vta), quick_config(), seed=0)
        assert str(caught.value) == message

    def test_empty_dataset_rejected(self):
        with pytest.raises(EvaluationError, match="no records"):
            run_cv(build_cohort([], {}), quick_config(), seed=0)

    def test_training_error_names_its_fold(self, gaussian200, fold_2_fails):
        with pytest.raises(TrainingError) as caught:
            run_cv(gaussian200, quick_config(train=TrainConfig(epochs=2)), seed=0)
        assert str(caught.value) == "fold 2: non-finite loss at epoch 0"


class TestFitModel:
    """A fit's network holds the heads its loss reads, and nothing else changes."""

    @staticmethod
    def full_heads_twin(cohort, train_idx, config, standardizers, seed, fold):
        """The same fit on a network holding all three heads, at the fit's precision."""
        net = NetworkConfig(num_features=cohort.X.shape[1], num_decades=cohort.num_decades,
                            use_embedding=config.use_embedding)
        initial = init_params(net, np.random.default_rng([seed, INIT_STREAM, fold]))
        params = NetworkParams(net, {name: value.astype(TRAIN_DTYPE) for name, value in initial.tensors.items()})
        batch = build_examples(cohort, train_idx, *standardizers)
        return train(batch, config.train, params, np.random.default_rng([seed, DROPOUT_STREAM, fold]))

    @pytest.mark.parametrize("row", ABLATION_ROWS)
    def test_holds_the_active_heads_and_trains_like_the_full_network(self, gaussian200, row):
        _, config = ablation_config(row, quick_config(train=TrainConfig(epochs=20)))
        train_idx = np.arange(0, len(gaussian200), 3)
        params, history, standardizers = fit_model(gaussian200, train_idx, config, seed=4, fold=2)
        full, full_history = self.full_heads_twin(gaussian200, train_idx, config, standardizers, 4, 2)
        heads = TASKS if row == ROW_MULTI_TASK else ("vta",)
        assert params.config.heads == heads
        skipped = tuple(f"{task}_" for task in TASKS if task not in heads)
        assert list(params.tensors) == [name for name in full.tensors if not name.startswith(skipped)]
        for name, tensor in params.tensors.items():
            assert np.array_equal(tensor, full.tensors[name]), name
        assert history == full_history

    def test_trains_in_float32(self, gaussian200):
        _, config = ablation_config(ROW_MULTI_TASK, quick_config(train=TrainConfig(epochs=3)))
        params, history, _ = fit_model(gaussian200, np.arange(len(gaussian200)), config, seed=0, fold=0)
        assert TRAIN_DTYPE is np.float32
        assert params.tensors.flat.dtype == np.float32
        assert all(type(value) is float for row in history for value in row.values())

    def test_cohort_without_functional_class_trains_event_and_bmi_heads(self, gaussian200):
        cohort = replace(gaussian200, y_nyhac=np.full(len(gaussian200), -1))
        train_idx = np.arange(len(cohort))
        for epochs in (0, 15):  # the initialization, then the trained values
            _, config = ablation_config(ROW_MULTI_TASK, quick_config(train=TrainConfig(epochs=epochs)))
            params, _, standardizers = fit_model(cohort, train_idx, config, seed=1, fold=0)
            full, _ = self.full_heads_twin(cohort, train_idx, config, standardizers, 1, 0)
            assert params.config.heads == ("vta", "bmi")
            assert list(params.tensors) == [name for name in full.tensors if not name.startswith("nyhac_")]
            for name, tensor in params.tensors.items():
                assert np.array_equal(tensor, full.tensors[name]), (epochs, name)


class TestAblationConfig:
    def test_reference_row_uses_the_legacy_panel(self):
        feature_set, cfg = ablation_config(ROW_BASELINE, CVConfig())
        assert feature_set == "baseline11"
        assert cfg.use_embedding is False
        assert cfg.train.multi_task is False

    def test_windowed_row_switches_feature_family(self):
        feature_set, cfg = ablation_config(ROW_WINDOWED, CVConfig())
        assert feature_set == "recent"
        assert cfg.use_embedding is False
        assert cfg.train.multi_task is False

    def test_embedding_row_adds_only_the_embedding(self):
        _, cfg = ablation_config(ROW_EMBEDDING, CVConfig())
        assert cfg.use_embedding is True
        assert cfg.train.multi_task is False

    @pytest.mark.parametrize("multi_task", [True, False])
    def test_final_row_is_multi_task_whatever_the_base_says(self, multi_task):
        base = CVConfig(train=TrainConfig(epochs=7, multi_task=multi_task))
        _, cfg = ablation_config(ROW_MULTI_TASK, base)
        assert cfg.train == TrainConfig(epochs=7, multi_task=True)
        assert cfg.use_embedding is True

    def test_unknown_row_rejected(self):
        with pytest.raises(EvaluationError, match="unknown ablation row"):
            ablation_config("mystery", CVConfig())


@pytest.fixture(scope="module")
def small_report(prepared_records):
    records, patients = prepared_records
    base = CVConfig(train=TrainConfig(epochs=25), k_folds=5)
    return run_ablation(records, patients, base, seeds=range(2), jobs=1)


class TestRunAblation:
    def test_grid_shape(self, small_report):
        assert small_report.rows == ABLATION_ROWS
        assert small_report.seeds == (0, 1)
        per_seed, means = score(small_report)
        for row in ABLATION_ROWS:
            assert set(means[row]) == set(METRIC_NAMES)
            assert len(per_seed[row]) == 2

    def test_means_average_the_seeds(self, small_report):
        per_seed, means = score(small_report)
        for row in ABLATION_ROWS:
            for name in METRIC_NAMES:
                values = [per_seed[row][s][name] for s in (0, 1)]
                assert means[row][name] == pytest.approx(np.mean(values))

    def test_single_seed_report_equals_single_run(self, prepared_records):
        records, patients = prepared_records
        base = CVConfig(train=TrainConfig(epochs=25), k_folds=5)
        report = run_ablation(records, patients, base, seeds=range(1), jobs=1)
        feature_set, row_cfg = ablation_config(ROW_MULTI_TASK, base)
        direct = run_cv(build_cohort(records, patients, feature_set), row_cfg, seed=0)
        np.testing.assert_array_equal(report.probs[(ROW_MULTI_TASK, 0)], direct)
        direct_stats = metrics(report.labels, direct)
        means = score(report)[1]
        for name in ("accuracy", "sensitivity", "specificity", "precision"):
            assert means[ROW_MULTI_TASK][name] == pytest.approx(direct_stats[name])

    def test_parallel_equals_serial(self, prepared_records):
        records, patients = prepared_records
        base = CVConfig(train=TrainConfig(epochs=10), k_folds=3)
        serial = run_ablation(records, patients, base, seeds=range(2), jobs=1)
        parallel = run_ablation(records, patients, base, seeds=range(2), jobs=2)
        for key, probs in serial.probs.items():
            np.testing.assert_array_equal(probs, parallel.probs[key])

    def test_pool_gets_no_more_workers_than_items(self, prepared_records, recording_pool):
        records, patients = prepared_records
        base = CVConfig(train=TrainConfig(epochs=10), k_folds=3)
        serial = run_ablation(records, patients, base, seeds=[0], jobs=1)
        pooled = run_ablation(records, patients, base, seeds=[0], jobs=64)
        assert recording_pool == [(min(64, len(ABLATION_ROWS) * 3, os.cpu_count() or 1), evaluation._one_blas_thread)]
        for key, probs in serial.probs.items():
            np.testing.assert_array_equal(probs, pooled.probs[key])

    @pytest.mark.parametrize("jobs, cpus, workers", [(64, 5, 5), (3, 5, 3), (64, 100, 12), (64, None, 1)])
    def test_pool_gets_no_more_workers_than_cpus(self, prepared_records, recording_pool, monkeypatch,
                                                 jobs, cpus, workers):
        # the pool is a recording stand-in, so no worker process starts whatever jobs asks for
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        records, patients = prepared_records
        run_ablation(records, patients, CVConfig(train=TrainConfig(epochs=1), k_folds=3), seeds=[0], jobs=jobs)
        assert recording_pool == [(workers, evaluation._one_blas_thread)]

    def test_folds_are_dealt_once_per_seed(self, prepared_records, monkeypatch):
        deals = []
        deal = evaluation._folds

        def counting_deal(labels, patient_ids, config, seed):
            deals.append(seed)
            return deal(labels, patient_ids, config, seed)

        monkeypatch.setattr(evaluation, "_folds", counting_deal)
        records, patients = prepared_records
        run_ablation(records, patients, CVConfig(train=TrainConfig(epochs=1), k_folds=3), seeds=[4, 1], jobs=1)
        assert deals == [4, 1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_training_error_names_its_fold(self, prepared_records, fold_2_fails, recording_pool, jobs):
        # jobs=2 goes through the recording pool, which runs fit_fold in this process
        records, patients = prepared_records
        with pytest.raises(TrainingError) as caught:
            run_ablation(records, patients, CVConfig(train=TrainConfig(epochs=2), k_folds=3), seeds=[0], jobs=jobs)
        assert str(caught.value) == "fold 2: non-finite loss at epoch 0"
        assert len(recording_pool) == (jobs > 1)

    def test_pool_workers_compute_with_one_blas_thread(self, monkeypatch):
        # the benchmark's probe of numpy's bundled OpenBLAS is the getter
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        blas_threads = importlib.import_module("run_bench").blas_threads
        before = blas_threads()
        if before is None:
            pytest.skip("numpy's OpenBLAS does not report its thread count")
        with concurrent.futures.ProcessPoolExecutor(max_workers=1, initializer=evaluation._one_blas_thread) as pool:
            assert pool.submit(blas_threads).result() == 1
        assert blas_threads() == before

    def test_single_class_rejected_before_any_work(self, prepared_records, monkeypatch):
        records, patients = prepared_records
        controls = [rec for rec in records if rec.label == LABEL_CONTROL]

        def must_not_run(*args, **kwargs):
            raise AssertionError("the grid started work it could not report")

        monkeypatch.setattr(evaluation, "build_cohort", must_not_run)
        monkeypatch.setattr(evaluation, "fit_model", must_not_run)
        with pytest.raises(EvaluationError) as caught:
            run_ablation(controls, patients, CVConfig(k_folds=3), seeds=range(2), jobs=1)
        assert str(caught.value) == (
            f"the grid's AUC needs records of both classes, got {len(controls)} {LABEL_CONTROL}, 0 {LABEL_VTA}")

    def test_undersized_class_rejected_before_any_work(self, prepared_records, monkeypatch):
        records, patients = prepared_records
        events = [rec for rec in records if rec.label == LABEL_VTA][:2]
        controls = [rec for rec in records if rec.label == LABEL_CONTROL][:12]
        assert (len(events), len(controls)) == (2, 12)

        def must_not_run(*args, **kwargs):
            raise AssertionError("the grid extracted features for folds it could not fill")

        monkeypatch.setattr(evaluation, "build_cohort", must_not_run)
        with pytest.raises(EvaluationError) as caught:
            run_ablation(events + controls, patients, CVConfig(k_folds=3), seeds=range(2), jobs=1)
        assert str(caught.value) == ("class 1 has 2 records but 3 folds were requested "
                                     f"(class 1 is {LABEL_VTA}, class 0 is {LABEL_CONTROL})")

    def test_too_few_patients_rejected_before_any_work(self, prepared_records, monkeypatch):
        records, patients = prepared_records
        two = sorted(patients)[:2]
        records = [replace(rec, patient_id=two[i % 2]) for i, rec in enumerate(records)]
        assert len(records) == 24 and {rec.label for rec in records} == {LABEL_VTA, LABEL_CONTROL}

        def must_not_run(*args, **kwargs):
            raise AssertionError("the grid extracted features for folds it could not fill")

        monkeypatch.setattr(evaluation, "build_cohort", must_not_run)
        with pytest.raises(EvaluationError) as caught:
            run_ablation(records, {pid: patients[pid] for pid in two}, CVConfig(k_folds=3, patient_grouped=True),
                         seeds=range(2), jobs=1)
        assert str(caught.value) == "2 patients cannot fill 3 folds"

    def test_repeated_seed_rejected_before_any_work(self, prepared_records, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the grid extracted features for a seed it would fit twice")

        monkeypatch.setattr(evaluation, "build_cohort", must_not_run)
        records, patients = prepared_records
        with pytest.raises(EvaluationError, match="^seed 3 is given twice$"):
            run_ablation(records, patients, CVConfig(k_folds=3), seeds=[1, 3, 0, 3], jobs=1)

    def test_one_cohort_and_each_item_gets_its_rows_family(self, prepared_records, monkeypatch):
        built, seen = [], []
        build = evaluation.build_cohort

        def counting_build(*args):
            built.append(args[2])
            return build(*args)

        def capturing_fit(cohort, config, seed, fold, test_idx):
            seen.append((cohort.names, cohort.families, cohort.X.shape[1], seed, fold))
            return np.full(len(test_idx), 0.5)

        monkeypatch.setattr(evaluation, "build_cohort", counting_build)
        monkeypatch.setattr(evaluation, "fit_fold", capturing_fit)
        records, patients = prepared_records
        run_ablation(records, patients, CVConfig(train=TrainConfig(epochs=1), k_folds=3), seeds=[2, 0], jobs=1)
        assert len(built) == 1
        want = []
        for row in ABLATION_ROWS:
            family = ablation_config(row, CVConfig())[0]
            names = feature_names(family)
            want += [(names, (family,), len(names), seed, fold) for seed in (2, 0) for fold in range(3)]
        assert seen == want

    def test_zero_seeds_rejected(self, prepared_records):
        records, patients = prepared_records
        with pytest.raises(EvaluationError, match="at least one seed"):
            run_ablation(records, patients, CVConfig(), seeds=[], jobs=1)


class TestReportWriters:
    def test_table_lists_the_four_stages(self, small_report):
        text = format_report_table(small_report)
        lines = text.splitlines()
        assert lines[0].startswith("Configuration")
        assert lines[1].startswith("Baseline")
        assert lines[2].startswith("+ windowed features")
        assert lines[3].startswith("+ age embedding")
        assert lines[4].startswith("+ multi-task optimization")

    def test_csv_percentages_have_two_decimals(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, small_report)
        lines = path.read_text().splitlines()
        assert lines[0] == "configuration,accuracy,sensitivity,specificity,precision,auc"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == ROW_LABELS[ROW_BASELINE]
        for cell in first[1:]:
            whole, frac = cell.split(".")
            assert len(frac) == 2
            assert 0.0 <= float(cell) <= 100.0

    def test_per_seed_csv_has_row_per_seed(self, small_report, tmp_path):
        path = tmp_path / "per_seed.csv"
        write_per_seed_csv(path, small_report)
        lines = path.read_text().splitlines()
        assert lines[0] == "configuration,seed," + ",".join(METRIC_NAMES)
        assert len(lines) == 1 + 4 * 2

    def test_predictions_csv_round_trips_probabilities(self, small_report, tmp_path):
        probs = small_report.probs[(ROW_MULTI_TASK, 0)]
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, small_report.record_ids, small_report.labels, probs)
        lines = path.read_text().splitlines()
        assert lines[0] == "record_id,label,probability"
        assert len(lines) == 1 + len(small_report.record_ids)
        rid, label, prob = lines[1].split(",")
        assert rid == small_report.record_ids[0]
        assert label in ("VTA", "Control")
        assert float(prob) == probs[0]
