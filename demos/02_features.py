"""Show both feature families on one record, plus the ectopic filter at work.

The recent-beat family summarizes the last 30 clean beats (mean, band powers,
extremes) and appends two 250-beat trend features; the reference panel is a
fixed set of eleven whole-sequence statistics.
"""

import tempfile
from pathlib import Path

import numpy as np

from vtapred import build_cohort, detect_ectopic, load_dataset, prepare_records
from vtapred.synthetic import write_tachogram_dataset


def main() -> None:
    # A run of short beats against a steady 800 ms rhythm gets flagged.
    rhythm = np.array([800.0] * 8 + [430.0, 790.0, 1210.0] + [800.0] * 5)
    mask = detect_ectopic(rhythm)
    print("intervals:", " ".join(f"{v:.0f}" for v in rhythm))
    print("ectopic:  ", " ".join(" x" if m else " ." for m in mask), "\n")

    with tempfile.TemporaryDirectory() as tmp:
        tacho_dir, metadata = write_tachogram_dataset(Path(tmp), n_event=3, n_control=3, seed=4)
        records, patients = load_dataset(tacho_dir, metadata)
        records = prepare_records(records)

        # one cohort for both feature families: a row per record, a column per feature,
        # and one ectopic pass per record; each family's columns are selected by family
        cohort = build_cohort(records, patients, ["recent", "baseline11"])
        recent, panel = cohort.family("recent"), cohort.family("baseline11")

        record = records[0]
        print(f"record {record.record_id} ({record.label}, {len(record)} beats kept)\n")
        print("recent-beat features:")
        for name, value in zip(recent.names, recent.X[0]):
            print(f"  {name:<22}{value:>12.4f}")
        print("\nreference panel:")
        for name, value in zip(panel.names, panel.X[0]):
            print(f"  {name:<22}{value:>12.4f}")
        print(f"\nfeature matrix {cohort.X.shape}: recent {recent.X.shape}, reference panel {panel.X.shape}")


if __name__ == "__main__":
    main()
