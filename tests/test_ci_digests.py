"""The CI check that a change moves exactly the benchmark digests its CHANGES.md entry declares."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "compare_digests.py"
spec = importlib.util.spec_from_file_location("compare_digests", SCRIPT)
compare_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_digests)

BASE_DIGESTS = {"cv_grid": "a" * 64, "extract_long": "b" * 64, "train_large": "c" * 64}
OLD_ENTRIES = "Entry 1: a change. Digests moved: cv_grid\nFOUND: something\n"


def tree(path: Path, digests: dict, changes: str) -> Path:
    """A checkout with the benchmark's seed-0 result files and a CHANGES.md."""
    results = path / ".bench_work" / "results"
    results.mkdir(parents=True)
    for name, digest in digests.items():
        (results / f"{name}-seed0-trace0.json").write_text(json.dumps({"artifacts_sha256": digest}))
        (results / f"{name}-seed0-trace1.json").write_text(json.dumps({"artifacts_sha256": "traced"}))
    (path / "CHANGES.md").write_text(changes)
    return path


@pytest.mark.parametrize("moved, declaration, problems", [
    ({}, "Digests moved: none.", 0),
    ({"cv_grid": "d" * 64}, "Digests moved: cv_grid.", 0),
    ({"cv_grid": "d" * 64, "train_large": "e" * 64}, "Digests moved: cv_grid, train_large; rest", 0),
    ({"cv_grid": "d" * 64}, "Digests moved: none.", 1),          # moved, declared unmoved
    ({}, "Digests moved: extract_long.", 1),                   # declared, did not move
    ({"cv_grid": "d" * 64}, "Digests moved: train_large.", 2),  # both directions at once
    ({}, "Digests moved: grid.", 1),                           # not a workload
    ({}, "no declaration at all", 1),
    ({}, "Digests moved: none. Digests moved: cv_grid", 1),    # two declarations
])
def test_declared_set_must_equal_moved_set(tmp_path, moved, declaration, problems):
    base = tree(tmp_path / "base", BASE_DIGESTS, OLD_ENTRIES)
    head = tree(tmp_path / "head", {**BASE_DIGESTS, **moved}, OLD_ENTRIES + f"Entry 2: this change. {declaration}\n")
    found = compare_digests.check(base, head)
    assert len(found) == problems, found
    assert compare_digests.main([str(base), str(head)]) == (1 if problems else 0)


def test_old_declarations_do_not_count(tmp_path):
    # the base's entries already hold a declaration; only the lines the change adds are read
    base = tree(tmp_path / "base", BASE_DIGESTS, OLD_ENTRIES)
    head = tree(tmp_path / "head", BASE_DIGESTS, OLD_ENTRIES + "Entry 2: docs only.\n")
    assert compare_digests.check(base, head) == [
        "the new CHANGES.md lines hold 0 'Digests moved:' declarations, not one: "
        "write 'Digests moved: none' or list the workloads whose digests move"]


def test_a_workload_on_one_side_only_moved(tmp_path):
    base = tree(tmp_path / "base", BASE_DIGESTS, OLD_ENTRIES)
    head = tree(tmp_path / "head", {**BASE_DIGESTS, "new_load": "f" * 64},
                OLD_ENTRIES + "Entry 2: Digests moved: new_load\n")
    assert compare_digests.check(base, head) == []


def test_missing_results_fail(tmp_path):
    base = tree(tmp_path / "base", {}, OLD_ENTRIES)
    head = tree(tmp_path / "head", BASE_DIGESTS, OLD_ENTRIES + "Digests moved: none\n")
    assert compare_digests.main([str(base), str(head)]) == 1
