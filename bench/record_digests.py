"""Record the SHA-256 of every workload's cohort for cohort seeds 0 .. COHORT_SEEDS-1.

    python3 bench/record_digests.py

Writes bench/cohort_digests.json, which run_bench.py checks each cohort
against, so that a change to the generator cannot silently change what the
benchmark measures.  Rerun it only in a change that means to alter the
cohorts, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run_bench


def main() -> int:
    sys.path.insert(0, str(run_bench.SRC))
    work = run_bench.WORK / "record_digests"
    table: dict[str, dict[str, str]] = {}
    try:
        for name in run_bench.WORKLOADS:
            table[name] = {}
            for seed in range(run_bench.COHORT_SEEDS):
                shutil.rmtree(work, ignore_errors=True)
                table[name][str(seed)] = run_bench.write_cohort(name, seed, work)[2]
            print(f"{name}: {run_bench.COHORT_SEEDS} seeds recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run_bench.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
