"""Benchmark of the vtapred command line on seeded synthetic cohorts.

    python3 bench/run_bench.py --workload cv_grid --seed 0 --seconds 15 --trace 0

Run from the repository root (or anywhere: paths are taken from this file).
Each workload writes one cohort with ``vtapred.synthetic`` from ``--seed``
(modulo COHORT_SEEDS), checks its SHA-256 against ``cohort_digests.json``,
and then repeats its CLI calls, each in a fresh interpreter, until
``--seconds`` have passed (at least MIN_REPEATS times).  Every repeat's
outputs are checked and hashed; all repeats of a run must be byte-identical.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics of the traced
ones.  ``--workload all`` runs every workload in turn, for a person reading
the summaries.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything a run writes
goes under ``.bench_work/`` at the repository root; the run's own directory
is removed at the end and a result file is kept in ``.bench_work/results``.
See README.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"
DIGESTS = BENCH / "cohort_digests.json"

MIN_REPEATS = 3
SETUP_SAMPLES = 4          # extra fresh-interpreter imports behind setup_s, beyond one per call
IMPORTTIME_SAMPLES = 3     # `-X importtime` runs behind each *.import_s
COHORT_SEEDS = 64          # cohort seeds with a recorded digest; --seed is taken modulo this
RUN_DEADLINE_S = 170.0     # children are killed so that a run ends within 180 s

REPORT_HEADER = "configuration,accuracy,sensitivity,specificity,precision,auc"
GRID_ROWS = (("baseline", "Baseline"), ("windowed", "+ windowed features"),
             ("age_embedding", "+ age embedding"), ("multi_task", "+ multi-task optimization"))

CV_EPOCHS = 15
CV_FOLDS = 10
CV_SEEDS = 1
TRAIN_EPOCHS = 60


class BenchError(Exception):
    """An output that fails its check."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a repeat; ``ops`` is what it completes when it succeeds."""

    out: str
    argv: tuple[str, ...]
    ops: int


@dataclass(frozen=True)
class Workload:
    n_event: int
    n_control: int
    n_beats: int
    calls: tuple[Call, ...]

    @property
    def n_records(self) -> int:
        return self.n_event + self.n_control


WORKLOADS = {
    # The paper's grid at n ~ 225 training examples: per-epoch fixed costs
    # of the network and optimizer dominate.  One op is one fold fit.
    "cv_grid": Workload(125, 125, 420, (
        Call("grid", ("ablate", "--epochs", str(CV_EPOCHS), "--k-folds", str(CV_FOLDS),
                      "--seeds", str(CV_SEEDS), "--jobs", "1"),
             ops=len(GRID_ROWS) * CV_SEEDS * CV_FOLDS),
    )),
    # Holter-length records, no training: sample entropy and band power.
    # One op is one record extracted for one feature family.
    "extract_long": Workload(8, 8, 4000, (
        Call("baseline11.csv", ("features", "--feature-set", "baseline11"), ops=16),
        Call("recent.csv", ("features", "--feature-set", "recent"), ops=16),
    )),
    # Many records, multi-task with the embedding: matmul-bound epochs, plus
    # ingest and extraction over 2000 files.  One op is one training epoch.
    "train_large": Workload(1000, 1000, 420, (
        Call("model.ckpt", ("train", "--epochs", str(TRAIN_EPOCHS)), ops=TRAIN_EPOCHS),
    )),
}


# --------------------------------------------------------------------------
# inputs


def cohort_digest(tacho_dir: Path, metadata: Path) -> str:
    """SHA-256 over the metadata file and every tachogram (name and bytes), sorted."""
    digest = hashlib.sha256(metadata.read_bytes())
    for path in sorted(tacho_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_cohort(name: str, seed: int, out_dir: Path) -> tuple[Path, Path, str]:
    from vtapred.synthetic import write_tachogram_dataset

    w = WORKLOADS[name]
    tacho_dir, metadata = write_tachogram_dataset(
        out_dir, n_event=w.n_event, n_control=w.n_control, n_beats=w.n_beats, seed=seed)
    return tacho_dir, metadata, cohort_digest(tacho_dir, metadata)


def kept_record_ids(tacho_dir: Path, metadata: Path) -> list[str]:
    """Record ids the CLI keeps after the decision boundary, in output order."""
    from vtapred.dataset import load_dataset, prepare_records

    records, _ = load_dataset(tacho_dir, metadata)
    return [r.record_id for r in prepare_records(records)]


# --------------------------------------------------------------------------
# output checks; each returns the deterministic artifacts it read


def _finite(text: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    try:
        value = float(text)
    except ValueError:
        raise BenchError(f"value {text!r} is not a number") from None
    if not (math.isfinite(value) and lo <= value <= hi):
        raise BenchError(f"value {text!r} is not finite within [{lo}, {hi}]")
    return value


def _read_csv(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise BenchError(f"missing output {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise BenchError(f"empty output {path.name}")
    return rows


def check_grid(out: Path, kept: list[str]) -> list[Path]:
    rows = _read_csv(out / "report.csv")
    if ",".join(rows[0]) != REPORT_HEADER or [r[0] for r in rows[1:]] != [lab for _, lab in GRID_ROWS]:
        raise BenchError("report.csv does not hold the four grid rows")
    for row in rows[1:]:
        for cell in row[1:]:
            _finite(cell, 0.0, 100.0)
    if len(_read_csv(out / "per_seed.csv")) != 1 + len(GRID_ROWS) * CV_SEEDS:
        raise BenchError("per_seed.csv does not hold one line per (row, seed)")
    expected = {f"{key}_seed{seed}.csv" for key, _ in GRID_ROWS for seed in range(CV_SEEDS)}
    found = {p.name for p in (out / "predictions").iterdir()}
    if found != expected:
        raise BenchError(f"predictions/ holds {sorted(found)}, expected {sorted(expected)}")
    for name in sorted(expected):
        rows = _read_csv(out / "predictions" / name)
        if [r[0] for r in rows[1:]] != kept:
            raise BenchError(f"{name}: not one prediction per kept record")
        for row in rows[1:]:
            if len(row) != 3:
                raise BenchError(f"{name}: malformed row {row}")
            _finite(row[2], 0.0, 1.0)
    return [out / "report.csv", out / "report.txt", out / "per_seed.csv",
            *sorted((out / "predictions").iterdir())]


def check_features(out: Path, kept: list[str]) -> list[Path]:
    rows = _read_csv(out)
    header = rows[0]
    if header[:2] != ["record_id", "label"] or [r[0] for r in rows[1:]] != kept:
        raise BenchError(f"{out.name}: not one row per kept record")
    for row in rows[1:]:
        if len(row) != len(header):
            raise BenchError(f"{out.name}: row {row[0]} has {len(row)} cells, header {len(header)}")
        for cell in row[2:]:
            _finite(cell)
    return [out]


def check_train(out: Path, epochs: int) -> list[Path]:
    from vtapred.network import CheckpointError, load_checkpoint

    try:
        load_checkpoint(out)
    except CheckpointError as exc:
        raise BenchError(f"checkpoint does not reload: {exc}") from None
    loss = Path(f"{out}.loss.csv")
    rows = _read_csv(loss)
    if [r[0] for r in rows[1:]] != [str(e) for e in range(epochs)]:
        raise BenchError("loss CSV does not hold one row per epoch")
    for row in rows[1:]:
        for cell in row[1:]:
            _finite(cell)
    return [out, loss]


def check_call(call: Call, out: Path, kept: list[str]) -> list[Path]:
    command = call.argv[0]
    if command == "ablate":
        return check_grid(out, kept)
    if command == "features":
        return check_features(out, kept)
    return check_train(out, TRAIN_EPOCHS)


def artifacts_digest(paths: list[Path], base: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(base)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# running the CLI in fresh interpreters


class Runner:
    """Runs one workload's repeats inside one work directory."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.name = name
        self.seed = seed
        self.cohort_seed = seed % COHORT_SEEDS
        self.workload = WORKLOADS[name]
        self.work = work
        self.deadline = deadline
        self.tacho_dir, self.metadata, self.cohort = write_cohort(name, self.cohort_seed, work / "cohort")
        self.kept = kept_record_ids(self.tacho_dir, self.metadata)
        self.excluded = self.workload.n_records - len(self.kept)
        self.repeats = 0
        self.problems: list[str] = []

    def _spawn(self, cmd: list[str], log: Path) -> int | None:
        """Run ``cmd`` to the end (or the run's deadline); None when it was killed."""
        with open(log, "w", encoding="utf-8") as fh:
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
            try:
                return proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                return None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def repeat(self, traced: bool) -> dict:
        """One repeat: every call of the workload, checked and hashed."""
        index = self.repeats
        self.repeats += 1
        rep_dir = self.work / f"rep{index}"
        rep_dir.mkdir()
        calls, artifacts = [], []
        for call in self.workload.calls:
            out = rep_dir / call.out
            result_path = rep_dir / f"{call.out}.result.json"
            trace_id = f"{self.name}/rep{index}/{call.argv[0]}:{call.out}" if traced else "-"
            cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(result_path), trace_id, "--",
                   *call.argv, "--data-dir", str(self.tacho_dir), "--metadata", str(self.metadata),
                   "--out", str(out)]
            code = self._spawn(cmd, rep_dir / f"{call.out}.log")
            result = {"exit_code": code, "ops": call.ops, "failed": call.ops}
            if code == 0:
                with open(result_path, encoding="utf-8") as fh:
                    result.update(json.load(fh))
                result["failed"] = min(call.ops, self.excluded)
                try:
                    artifacts += check_call(call, out, self.kept)
                except BenchError as exc:
                    self.problems.append(f"repeat {index}, {call.out}: {exc}")
                if traced:
                    spans = RESULTS / f"{self.name}-seed{self.seed}-rep{index}-{call.out}.spans.jsonl"
                    shutil.move(f"{result_path}.spans.jsonl", spans)
                    result["trace"] = tracing.load(spans)
            else:
                self.problems.append(f"repeat {index}, {call.out}: exit code {code}; "
                                     f"see {rep_dir / (call.out + '.log')}")
            calls.append(result)
        digest = artifacts_digest(artifacts, rep_dir)
        shutil.rmtree(rep_dir)
        return {"calls": calls, "digest": digest}


# Times `import vtapred.cli` as child.py does, without running a command.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import vtapred.cli; print(time.perf_counter() - t)")


def setup_sample() -> float:
    """Seconds to import vtapred.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return float(out)


def importtime() -> dict[str, float]:
    """Cumulative import seconds per vtapred module, from ``-X importtime``."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vtapred.cli"],
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
                         capture_output=True, text=True, timeout=60).stderr
    found = re.findall(r"import time:\s*\d+ \|\s*(\d+) \| +(vtapred\.\w+)\s*$", err, re.M)
    return {module: int(us) / 1e6 for us, module in found}


# --------------------------------------------------------------------------
# metrics


def repeat_wall(rep: dict) -> float:
    return sum(c.get("wall_s", 0.0) for c in rep["calls"])


def repeat_ops_per_s(rep: dict) -> float:
    done = sum(c["ops"] - c["failed"] for c in rep["calls"])
    wall = repeat_wall(rep)
    return done / wall if wall > 0 else 0.0


def summary(values: list[float]) -> dict:
    if not values:  # every call of the run failed
        return {"median": 0.0, "min": 0.0, "max": 0.0, "n": 0}
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(reps: list[dict], extra_imports: list[float]) -> dict[str, tuple[dict, str]]:
    imports = [c["import_s"] for rep in reps for c in rep["calls"] if "import_s" in c] + extra_imports
    attempted = sum(c["ops"] for rep in reps for c in rep["calls"])
    failed = sum(c["failed"] for rep in reps for c in rep["calls"])
    rss = [max(c.get("peak_rss_mb", 0.0) for c in rep["calls"]) for rep in reps]
    return {
        "ops_per_s": (summary([repeat_ops_per_s(rep) for rep in reps]), "1/s"),
        "setup_s": (summary(imports), "s"),
        "peak_rss_mb": (summary(rss), "MB"),
        "completed_ratio": (summary([1.0 - failed / attempted]), "ratio"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[dict, str]]:
    per_repeat = []
    for rep in traced:
        dumps = [c["trace"] for c in rep["calls"] if "trace" in c]
        per_repeat.append(tracing.layer_metrics(dumps, repeat_wall(rep)))
    out = {name: (summary([m[name][0] for m in per_repeat]), unit)
           for name, (_, unit) in per_repeat[0].items()}
    samples = [importtime() for _ in range(IMPORTTIME_SAMPLES)]
    for module in ("features", "evaluation"):
        out[f"{module}.import_s"] = (summary([s.get(f"vtapred.{module}", 0.0) for s in samples]), "s")
    overhead = statistics.median(map(repeat_wall, traced)) / statistics.median(map(repeat_wall, plain))
    out["trace.overhead_ratio"] = (summary([overhead]), "ratio")
    return out


# --------------------------------------------------------------------------
# environment and entry point


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        runner = Runner(name, seed, work, started + RUN_DEADLINE_S)
        recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(runner.cohort_seed))
        if recorded != runner.cohort:
            runner.problems.append(f"cohort digest {runner.cohort} != recorded {recorded} "
                                   f"for cohort seed {runner.cohort_seed}")

        t0 = time.monotonic()
        plain, traced = [], []
        while len(plain) < (1 if trace else MIN_REPEATS) or time.monotonic() - t0 < seconds:
            plain.append(runner.repeat(traced=False))
            if trace:
                traced.append(runner.repeat(traced=True))
            if time.monotonic() > started + RUN_DEADLINE_S / 2:
                break
        reps = plain + traced
        if len({rep["digest"] for rep in reps}) != 1:
            runner.problems.append("repeats are not byte-identical")
        if trace:
            metrics = per_layer(plain, traced)
        else:
            metrics = end_to_end(plain, [setup_sample() for _ in range(SETUP_SAMPLES)])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c["ops"] for rep in reps for c in rep["calls"])
    failed = sum(c["failed"] for rep in reps for c in rep["calls"])
    return {
        "workload": name, "seed": seed, "cohort_seed": runner.cohort_seed, "trace": trace, "seconds": seconds,
        "environment": environment(),
        "cohort_sha256": runner.cohort,
        "records": {"generated": runner.workload.n_records, "excluded": runner.excluded},
        "artifacts_sha256": reps[0]["digest"],
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "samples": [[{k: v for k, v in c.items() if k != "trace"} for c in rep["calls"]] for rep in reps],
        "problems": runner.problems,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {**s, "unit": unit} for k, (s, unit) in metrics.items()},
    }


def print_summary(result: dict) -> None:
    print(f"== {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"{result['repeats']['untraced']} untraced + {result['repeats']['traced']} traced repeats")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in result["environment"].items()))
    print(f"cohort seed {result['cohort_seed']}, sha256 {result['cohort_sha256']}")
    print(f"artifacts sha256 {result['artifacts_sha256']}")
    print(f"failed_ratio {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops failed)")
    zero = [name for name, m in result["metrics"].items() if m["max"] == 0]
    for name, m in result["metrics"].items():
        if name not in zero:
            print(f"  {name:<42} {m['median']:>12.6g} {m['unit']:<8} "
                  f"(median of n={m['n']}, min {m['min']:.6g}, max {m['max']:.6g})")
    if zero:
        print(f"  ({len(zero)} metrics read 0 on this workload: {', '.join(zero)})")
    if result["trace"]:
        top = sorted(((m["median"], k) for k, m in result["metrics"].items() if k.endswith(".self_s")
                      and not k.startswith("layer.")), reverse=True)[:5]
        print("largest self times: " + ", ".join(f"{k[:-7]} {v:.3g} s" for v, k in top))
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the `finally` clauses kill and
    # reap any running child and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "vtapred" / "__init__.py").is_file():
        print(f"error: no vtapred sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        print_summary(result)
        path = RESULTS / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    prefix = len(results) > 1
    print(json.dumps({
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": m["median"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
