"""Synthetic benchmark data.

Two generators:

* :func:`gaussian_task` builds a cleanly separable two-class feature task
  (class means at +1 and -1 in every dimension) with auxiliary targets that
  correlate with the class.  It bypasses ingestion and feature extraction by
  returning a ready-made :class:`~vtapred.features.Cohort`, so it isolates
  the model and trainer.
* :func:`write_tachogram_dataset` writes a fake tachogram directory plus
  metadata CSV to disk so the full ingest -> features -> training pipeline
  can be exercised end to end without patient data.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .dataset import LABEL_CONTROL, LABEL_VTA, METADATA_COLUMNS
from .features import Cohort

DECADES = 6  # birth decades 1930..1980, assigned round-robin
GAUSSIAN_FEATURES = 7
GAUSSIAN_SIGMA = 0.3


def gaussian_task(n: int = 200, seed: int = 0) -> Cohort:
    """Two well-separated Gaussian classes with class-correlated auxiliaries.

    Event-class rows sit at +1 in each of the ``GAUSSIAN_FEATURES`` features,
    controls at -1, with noise of SD ``GAUSSIAN_SIGMA``; any competent
    trainer should reach near-perfect accuracy.
    Rows alternate classes, starting with the event class; row i belongs to
    patient i, whose birth decade is the (i mod 6)-th of 1930..1980.
    """
    rng = np.random.default_rng(seed)
    X = np.empty((n, GAUSSIAN_FEATURES))
    y_nyhac = np.full(n, -1)
    bmi = np.zeros(n)
    bmi_mask = np.zeros(n, dtype=bool)
    for i in range(n):
        is_event = i % 2 == 0
        X[i] = (1.0 if is_event else -1.0) + GAUSSIAN_SIGMA * rng.standard_normal(GAUSSIAN_FEATURES)
        if rng.random() < 0.85:
            y_nyhac[i] = rng.choice([2, 3] if is_event else [0, 1])  # 0-based: classes 3-4 vs 1-2
        if rng.random() < 0.9:
            bmi[i] = float(np.clip(26.0 + (2.5 if is_event else -2.5) + rng.normal(0, 1.2), 12, 60))
            bmi_mask[i] = True
    return Cohort(
        X=X,
        names=tuple(f"x{j}" for j in range(GAUSSIAN_FEATURES)),
        record_ids=tuple(f"s{i:03d}" for i in range(n)),
        patient_ids=tuple(f"p{i:03d}" for i in range(n)),
        y_vta=(np.arange(n) % 2 == 0).astype(int),
        decade_index=np.arange(n) % DECADES,
        num_decades=max(min(n, DECADES), 1),
        y_nyhac=y_nyhac,
        bmi=bmi,
        bmi_mask=bmi_mask,
    )


# Per class: start baseline RR and its drop by the end, sine amplitude (all ms),
# sine frequency (Hz), noise SD (ms), and the added ectopic probability at the end.
_RHYTHM_CONTROL = (850.0, 0.0, 60.0, 0.095, 14.0, 0.0)
_RHYTHM_EVENT = (820.0, 170.0, 35.0, 0.11, 12.0, 0.10)


def _intervals(n_beats: int, rng: np.random.Generator, is_event: bool) -> np.ndarray:
    """Events accelerate and ramp up ectopy over their last 40%; controls stay stable."""
    base0, drop, amp, freq, noise, ramp = _RHYTHM_EVENT if is_event else _RHYTHM_CONTROL
    out = np.empty(n_beats)
    t = 0.0
    compensate = False
    for i in range(n_beats):
        frac = i / max(n_beats - 1, 1)
        base = base0 - drop * frac
        rr = base + amp * np.sin(2 * np.pi * freq * t) + rng.normal(0.0, noise)
        ectopic_p = 0.02 + (ramp * max(0.0, frac - 0.6) / 0.4)
        if compensate:
            rr = base * 1.3
            compensate = False
        elif rng.random() < ectopic_p:
            rr = base * 0.55
            compensate = True
        out[i] = min(max(rr, 200.0), 2500.0)
        t += out[i] / 1000.0
    return out


def write_tachogram_dataset(
    out_dir,
    n_event: int = 12,
    n_control: int = 12,
    n_beats: int = 420,
    seed: int = 0,
) -> tuple[Path, Path]:
    """Write a synthetic dataset to disk; returns (tachogram dir, metadata path).

    Event records accelerate and accumulate ectopic beats toward the end;
    controls stay stable, so the extracted features carry real signal.  Record
    ``r<i>`` is the one record of patient ``pat<i>``.  A few metadata cells are
    left blank to exercise the unknown-value paths.
    """
    out_dir = Path(out_dir)
    tacho_dir = out_dir / "tachograms"
    tacho_dir.mkdir(parents=True, exist_ok=True)
    metadata_path = out_dir / "metadata.csv"
    rng = np.random.default_rng(seed)

    rows = []
    total = n_event + n_control
    for i in range(total):
        is_event = i < n_event
        rid = f"r{i:03d}"
        pid = f"pat{i:03d}"
        intervals = _intervals(n_beats, rng, is_event)
        with open(tacho_dir / f"{rid}.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{v:.1f}\n" for v in intervals)
        birth_year = "" if rng.random() < 0.1 else str(int(rng.integers(1925, 1985)))
        nyhac = "" if rng.random() < 0.2 else str(int(rng.integers(1, 5)))
        bmi = "" if rng.random() < 0.15 else f"{rng.uniform(19, 38):.1f}"
        rows.append([rid, pid, LABEL_VTA if is_event else LABEL_CONTROL, birth_year, nyhac, bmi])

    with open(metadata_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METADATA_COLUMNS)
        writer.writerows(rows)
    return tacho_dir, metadata_path
