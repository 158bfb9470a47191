"""The acceptance gate: one test per shipping criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
The final criterion validates against real converted tachograms and skips
unless VTAPRED_MVTDB_DIR and VTAPRED_MVTDB_METADATA point at them (the full
grid retrains 400 models, so it is opt-in; set VTAPRED_JOBS to parallelize).
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from batches import random_batch
from oracles import (
    adadelta_scalar_step,
    beat_times,
    max_relative_error,
    modulated_tachogram,
    roc_auc_trapezoid,
    stacked_finite_difference_grads,
)
from vtapred import CVConfig, load_dataset, metrics, predict, prepare_records, run_ablation, run_cv
from vtapred.cli import main as cli_main
from vtapred.evaluation import ABLATION_ROWS, DROPOUT_STREAM, INIT_STREAM, auc, build_examples, score
from vtapred.features import band_power, fit_standardizer
from vtapred.network import NetworkConfig, backward, forward, init_params
from vtapred.optim import AdaDeltaState, adadelta_step, train
from vtapred.synthetic import gaussian_task


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def test_criterion_1_gradient_correctness():
    """Analytic gradients vs central differences on the full-width network.

    The differences come from the stacked oracle: every entry of every tensor,
    each at +-eps, through the oracle's own forward pass and loss.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    config = NetworkConfig(num_features=7, num_decades=6, use_embedding=True)
    assert config.hidden == (150, 100, 10)
    params = init_params(config, rng)
    batch = random_batch(rng, config, 50)

    _, cache = forward(params, batch.features, batch.decade_index)
    analytic = backward(params, cache, batch, 1.0, 1.0)
    numeric = stacked_finite_difference_grads(config, params, batch, eps=1e-5)
    err = max_relative_error(analytic, numeric)
    elapsed = time.perf_counter() - started
    ok = err < 1e-4 and elapsed < 60.0
    verdict(1, "gradient correctness", ok, f"max rel err {err:.3e} over 50 examples, {elapsed:.1f}s")
    assert err < 1e-4
    assert elapsed < 60.0


def test_criterion_2_optimizer_recursion_oracle():
    """1000 random scalar steps vs the closed-form recursion, plus the worked step.

    Each step runs on one value, ``flat[0]``, of a real network's parameters;
    every other gradient is 0.
    """
    rng = np.random.default_rng(77)
    zeros = init_params(NetworkConfig(num_features=1, use_embedding=False), np.random.default_rng(0)).zeros_like()
    worst = 0.0
    for _ in range(1000):
        g = float(rng.normal(0.0, 1.0))
        eg2 = float(rng.uniform(0.0, 0.5))
        ed2 = float(rng.uniform(0.0, 0.5))
        x0 = float(rng.normal(0.0, 1.0))
        params = zeros.zeros_like()
        params.flat[0] = x0
        state = AdaDeltaState(params)
        state.sq_grad.flat[0] = eg2
        state.sq_delta.flat[0] = ed2
        grads = params.zeros_like()
        grads.flat[0] = g
        adadelta_step(state, params, grads)
        dx_want, eg2_want, ed2_want = adadelta_scalar_step(g, eg2, ed2)
        for got, want in (
            (params.flat[0] - x0, dx_want),
            (state.sq_grad.flat[0], eg2_want),
            (state.sq_delta.flat[0], ed2_want),
        ):
            denom = max(abs(got), abs(want), 1e-300)
            worst = max(worst, abs(got - want) / denom)

    params = zeros.zeros_like()
    state = AdaDeltaState(params)
    grads = params.zeros_like()
    grads.flat[0] = 0.1
    adadelta_step(state, params, grads)
    first_step = params.flat[0]
    worked_ok = abs(first_step - (-4.468e-3)) < 5e-7  # 4 significant figures
    ok = worst < 1e-12 and worked_ok
    verdict(2, "optimizer recursion oracle", ok,
            f"worst rel err {worst:.2e}; first step {first_step:.6e} vs -4.468e-3")
    assert worst < 1e-12
    assert worked_ok


def test_criterion_3_band_power_location():
    """Modulation tones land in their bands; constant series carries nothing."""
    lf_tone = modulated_tachogram(0.10)
    hf_tone = modulated_tachogram(0.30)
    lf_t, hf_t = beat_times(lf_tone), beat_times(hf_tone)
    bands = ((0.04, 0.15), (0.15, 0.40))
    lf_ratio = np.divide(*band_power(lf_t, lf_tone, bands))
    hf_ratio = np.divide(*band_power(hf_t, hf_tone, bands[::-1]))
    flat = np.full(64, 800.0)
    flat_lf, flat_hf = band_power(beat_times(flat), flat, bands)
    ok = lf_ratio > 10.0 and hf_ratio > 10.0 and flat_lf < 1e-9 and flat_hf < 1e-9
    verdict(3, "band-power location", ok,
            f"LF ratio {lf_ratio:.1f}, HF ratio {hf_ratio:.1f}, constant {flat_lf:.1e}/{flat_hf:.1e}")
    assert lf_ratio > 10.0
    assert hf_ratio > 10.0
    assert flat_lf < 1e-9 and flat_hf < 1e-9


def test_criterion_4_metric_oracles():
    """Confusion metrics match hand arithmetic; rank AUC matches trapezoid ROC."""
    rng = np.random.default_rng(41)
    exact = True
    for _ in range(100):
        tp, fp, tn, fn = (int(rng.integers(0, 20)) for _ in range(4))
        if tp + fn == 0:
            fn = 1
        if tn + fp == 0:
            tn = 1
        labels = np.array([1] * (tp + fn) + [0] * (tn + fp))
        probs = np.concatenate([
            rng.uniform(0.6, 1.0, tp), rng.uniform(0.0, 0.4, fn),
            rng.uniform(0.0, 0.4, tn), rng.uniform(0.6, 1.0, fp),
        ])
        out = metrics(labels, probs)
        n = tp + fp + tn + fn
        exact &= out["accuracy"] == (tp + tn) / n
        exact &= out["sensitivity"] == tp / (tp + fn)
        exact &= out["specificity"] == tn / (tn + fp)
        expected_precision = 0.0 if tp + fp == 0 else tp / (tp + fp)
        exact &= out["precision"] == expected_precision

    worst_auc = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 100))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        probs = np.round(rng.random(n), 1)  # coarse grid forces ties
        worst_auc = max(worst_auc, abs(auc(labels, probs) - roc_auc_trapezoid(labels, probs)))

    ok = exact and worst_auc <= 1e-12
    verdict(4, "metric oracles", ok,
            f"confusion metrics exact: {exact}; AUC vs trapezoid worst {worst_auc:.1e}")
    assert exact
    assert worst_auc <= 1e-12


def test_criterion_5_separable_task_learnability():
    """Full default recipe fits the synthetic two-Gaussian task."""
    started = time.perf_counter()
    cohort = gaussian_task(200, seed=11)
    config = CVConfig()  # full defaults: 1000 epochs, dropout, embedding, aux tasks
    assert config.epochs == 1000

    # training accuracy with the exact single-run recipe
    standardizer = fit_standardizer(cohort.X)
    bmi_standardizer = fit_standardizer(cohort.bmi[cohort.bmi_mask])
    batch = build_examples(cohort, np.arange(len(cohort)), standardizer, bmi_standardizer)
    net_config = NetworkConfig(num_features=7, num_decades=cohort.num_decades, use_embedding=True)
    params = init_params(net_config, np.random.default_rng([0, INIT_STREAM, 0]))
    train(batch, config, params, np.random.default_rng([0, DROPOUT_STREAM, 0]))
    train_acc = float(np.mean((predict(params, batch) >= 0.5).astype(int) == batch.y_vta))

    cv_acc = metrics(cohort.y_vta, run_cv(cohort, config, seed=0))["accuracy"]
    elapsed = time.perf_counter() - started
    ok = train_acc >= 0.95 and cv_acc >= 0.90 and elapsed < 300.0
    verdict(5, "separable-task learnability", ok,
            f"train acc {train_acc:.3f}, 10-fold CV acc {cv_acc:.3f}, {elapsed:.0f}s")
    assert train_acc >= 0.95
    assert cv_acc >= 0.90
    assert elapsed < 300.0


def test_criterion_6_label_shuffle_null():
    """Shuffled labels must not be learnable: mean AUC near chance."""
    cohort = gaussian_task(200, seed=11)
    config = CVConfig(epochs=60)
    aucs = []
    for seed in range(10):
        perm = np.random.default_rng([seed, 101]).permutation(len(cohort))
        shuffled = replace(cohort, y_vta=cohort.y_vta[perm])
        aucs.append(auc(shuffled.y_vta, run_cv(shuffled, config, seed=seed)))
    mean_auc = float(np.mean(aucs))
    ok = 0.40 <= mean_auc <= 0.60
    verdict(6, "label-shuffle null", ok, f"mean AUC {mean_auc:.3f} over 10 seeds")
    assert 0.40 <= mean_auc <= 0.60


def test_criterion_7_pipeline_determinism(tacho_dataset, tmp_path):
    """Identical grid inputs give byte-identical reports, serial or parallel."""
    tacho_dir, metadata = tacho_dataset
    config = tmp_path / "grid.conf"
    config.write_text("epochs = 20\nseeds = 2\nk_folds = 3\n")

    def run_grid(out: Path, jobs: str) -> dict[str, bytes]:
        rc = cli_main([
            "ablate", "--data-dir", str(tacho_dir), "--metadata", str(metadata),
            "--out", str(out), "--config", str(config), "--jobs", jobs,
        ])
        assert rc == 0
        artifacts = {}
        for name in ("report.csv", "report.txt", "per_seed.csv"):
            artifacts[name] = (out / name).read_bytes()
        for path in sorted((out / "predictions").iterdir()):
            artifacts[f"predictions/{path.name}"] = path.read_bytes()
        return artifacts

    first = run_grid(tmp_path / "one", "1")
    second = run_grid(tmp_path / "two", "1")
    parallel = run_grid(tmp_path / "eight", "8")
    rerun_same = first == second
    jobs_same = first == parallel
    ok = rerun_same and jobs_same
    verdict(7, "pipeline determinism", ok,
            f"{len(first)} artifacts; rerun identical: {rerun_same}, jobs 1 vs 8 identical: {jobs_same}")
    assert rerun_same
    assert jobs_same


def test_criterion_8_real_dataset_reproduction():
    """Soft reproduction of the reference results on real converted data."""
    data_dir = os.environ.get("VTAPRED_MVTDB_DIR")
    metadata = os.environ.get("VTAPRED_MVTDB_METADATA")
    if not data_dir or not metadata:
        pytest.skip("set VTAPRED_MVTDB_DIR and VTAPRED_MVTDB_METADATA to run the full grid")
    started = time.perf_counter()
    records, patients = load_dataset(data_dir, metadata)
    records = prepare_records(records)
    jobs = int(os.environ.get("VTAPRED_JOBS", "4"))
    report = run_ablation(records, patients, CVConfig(), seeds=range(10), jobs=jobs)
    elapsed = time.perf_counter() - started

    means = score(report)[1]
    accs = [means[row]["accuracy"] for row in ABLATION_ROWS]
    final_acc = accs[-1]
    final_spec = means[ABLATION_ROWS[-1]]["specificity"]
    stepwise_ok = all(accs[i + 1] >= accs[i] - 0.01 for i in range(len(accs) - 1))
    improved = final_acc > accs[0]
    acc_ok = abs(final_acc - 0.7402) <= 0.06
    spec_ok = abs(final_spec - 0.7722) <= 0.06
    ok = stepwise_ok and improved and acc_ok and spec_ok and elapsed < 7200.0
    verdict(8, "real-data reproduction", ok,
            f"accuracies {['%.4f' % a for a in accs]}, final specificity {final_spec:.4f}, "
            f"{elapsed:.0f}s")
    assert stepwise_ok, f"accuracy fell by more than 1 point between rows: {accs}"
    assert improved
    assert acc_ok, f"final accuracy {final_acc:.4f} outside 0.7402 +- 0.06"
    assert spec_ok, f"final specificity {final_spec:.4f} outside 0.7722 +- 0.06"
    assert elapsed < 7200.0
