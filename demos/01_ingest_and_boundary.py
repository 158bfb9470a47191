"""Walk through ingestion: load tachograms, apply the decision horizon.

Generates a small synthetic dataset on disk, loads it back the same way the
CLI does, and shows what the 60-second boundary removes from each record.
"""

import tempfile
from pathlib import Path

from vtapred import load_dataset, prepare_records
from vtapred.synthetic import write_tachogram_dataset


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tacho_dir, metadata = write_tachogram_dataset(Path(tmp), n_event=4, n_control=4, seed=1)
        records, patients = load_dataset(tacho_dir, metadata)

        print(f"loaded {len(records)} records, {len(patients)} patients")
        print(f"{'record':<8}{'label':<10}{'beats':>7}{'after':>7}{'removed ms':>12}")
        prepared = prepare_records(records, horizon_ms=60000.0)
        for rec, cut in zip(records, prepared, strict=True):
            removed = rec.intervals_ms[len(cut):].sum()
            print(f"{rec.record_id:<8}{rec.label:<10}{len(rec):>7}{len(cut):>7}{removed:>12.0f}")

        print(f"usable records after the boundary: {len(prepared)} of {len(records)}")


if __name__ == "__main__":
    main()
