"""The traced benchmark child still binds into the package and runs each command.

``bench/tracing.py`` wraps functions by name, so renaming or removing one of
them breaks every traced benchmark run; this runs the child as the benchmark
does, in a fresh interpreter, on the small synthetic dataset.  The benchmark
also reloads every checkpoint that ``train`` writes, and so does this test.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vtapred import load_checkpoint

ROOT = Path(__file__).resolve().parents[1]

# command -> (extra arguments, spans its traced run must contain)
# the spans of one training epoch; their tracer counters bind these functions' arguments by name
EPOCH_SPANS = {"network.draw_dropout_masks", "network.forward", "network.backward", "optim.adadelta_step"}
COMMANDS = {
    "features": ([], {"cli.cmd_features", "features.extract", "features.write_feature_matrix"}),
    "train": (["--epochs", "2"], {"cli.cmd_train", "evaluation.build_examples", "optim.train", *EPOCH_SPANS}),
    "ablate": (["--epochs", "2", "--k-folds", "3", "--seeds", "1"],
               {"cli.cmd_ablate", "evaluation.build_examples", "network.predict", *EPOCH_SPANS}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_traced_child_runs(command, tacho_dataset, tmp_path):
    tacho_dir, metadata = tacho_dataset
    extra, expected_spans = COMMANDS[command]
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(ROOT / "src"), str(result), "trace",
         "--", command, "--data-dir", str(tacho_dir), "--metadata", str(metadata),
         "--out", str(tmp_path / "out"), *extra],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit_code"] == 0
    spans = Path(f"{result}.spans.jsonl").read_text().splitlines()[1:]  # line 1 holds the counters
    assert expected_spans <= {json.loads(line)["name"] for line in spans}
    if command == "train":
        params, header = load_checkpoint(tmp_path / "out")
        assert params.tensors.flat.dtype == np.float32 and header["dtype"] == "float32"
