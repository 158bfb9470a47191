"""Run the four-stage configuration grid with cross-validation.

Each row adds one ingredient: the eleven-feature reference panel first, then
the recent-beat family with windowed trends, then the birth-decade embedding,
and finally the auxiliary training targets.  Metrics are pooled over held-out
folds and averaged over seeds.  Epochs and seeds are scaled down here so the
demo finishes in seconds; the CLI runs the full recipe.
"""

import tempfile
import time
from pathlib import Path

from vtapred import CVConfig, format_report_table, load_dataset, prepare_records, run_ablation
from vtapred.synthetic import write_tachogram_dataset


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tacho_dir, metadata = write_tachogram_dataset(Path(tmp), n_event=12, n_control=12, seed=3)
        records, patients = load_dataset(tacho_dir, metadata)
        records = prepare_records(records)

        base = CVConfig(epochs=60, k_folds=5)
        started = time.perf_counter()
        report = run_ablation(records, patients, base, seeds=range(3), jobs=2)
        elapsed = time.perf_counter() - started

        print(format_report_table(report))
        print(f"{len(report.rows)} configurations x {len(report.seeds)} seeds "
              f"in {elapsed:.1f}s on {len(records)} records")


if __name__ == "__main__":
    main()
