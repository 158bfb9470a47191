"""Contracts of the synthetic data generators used across the test suite."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from vtapred import load_dataset
from vtapred.synthetic import gaussian_task, write_tachogram_dataset


class TestGaussianTask:
    def test_shapes_and_alternating_classes(self):
        cohort = gaussian_task(50, seed=0)
        assert len(cohort) == 50
        assert cohort.X.shape == (50, 7)
        assert cohort.y_vta[0::2].tolist() == [1] * 25
        assert cohort.y_vta[1::2].tolist() == [0] * 25
        assert len(set(cohort.patient_ids)) == 50
        assert cohort.decade_index.max() < cohort.num_decades

    def test_deterministic(self):
        a = gaussian_task(30, seed=7)
        b = gaussian_task(30, seed=7)
        np.testing.assert_array_equal(a.X, b.X)

    def test_classes_are_separable_in_feature_space(self):
        cohort = gaussian_task(100, seed=1)
        events = cohort.X[cohort.y_vta == 1]
        controls = cohort.X[cohort.y_vta == 0]
        gap = np.abs(events.mean(axis=0) - controls.mean(axis=0))
        assert gap.min() > 1.0  # centers sit at +-1 with sigma well below 1


class TestTachogramDataset:
    def test_loadable_with_expected_counts(self, tmp_path):
        tacho_dir, metadata = write_tachogram_dataset(tmp_path, n_event=5, n_control=4, seed=2)
        records, patients = load_dataset(tacho_dir, metadata)
        labels = [rec.label for rec in records]
        assert labels.count("VTA") == 5
        assert labels.count("Control") == 4
        assert all(len(rec) > 0 for rec in records)
        assert len(patients) >= 1

    def test_files_are_deterministic(self, tmp_path):
        a_dir, a_meta = write_tachogram_dataset(tmp_path / "a", n_event=3, n_control=3, seed=9)
        b_dir, b_meta = write_tachogram_dataset(tmp_path / "b", n_event=3, n_control=3, seed=9)
        assert a_meta.read_bytes() == b_meta.read_bytes()
        for name in sorted(p.name for p in a_dir.iterdir()):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_intervals_stay_physiological(self, tmp_path):
        tacho_dir, metadata = write_tachogram_dataset(tmp_path, n_event=4, n_control=4, seed=5)
        records, _ = load_dataset(tacho_dir, metadata)
        for rec in records:
            assert rec.intervals_ms.min() > 0.0
            assert rec.intervals_ms.max() < 5000.0


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["cv_grid", "extract_long", "train_large"])
def test_benchmark_cohort_matches_its_recorded_digest(workload, tmp_path, monkeypatch):
    # The benchmark rejects a run whose cohort digest differs from the recorded
    # one, so a change to the generator's draws must show up here first.
    monkeypatch.syspath_prepend(str(BENCH))
    run_bench = importlib.import_module("run_bench")
    recorded = json.loads((BENCH / "cohort_digests.json").read_text())[workload]["0"]
    _, _, digest = run_bench.write_cohort(workload, 0, tmp_path)
    assert digest == recorded
