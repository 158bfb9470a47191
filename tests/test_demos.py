"""Every script in ``demos/`` runs to completion against the package in ``src/``.

The demos call the library directly (``load_dataset``, ``detect_ectopic``,
``run_ablation`` ...), so a renamed function or a changed signature breaks
them; each runs in a fresh interpreter, as a reader would run it.  What
they and README's Library-use block import from ``vtapred`` is what the
package exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vtapred

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXCEPTIONS = {"DatasetError", "FeatureError", "NetworkError", "TrainingError", "EvaluationError"}


def package_imports(source: str) -> set[str]:
    """Names that ``source`` imports with ``from vtapred import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "vtapred" for alias in node.names}


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_package_exports_what_readme_and_demos_import():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    from_readme = package_imports(block)
    from_demos = set().union(*(package_imports(demo.read_text(encoding="utf-8")) for demo in DEMOS))
    assert from_readme and from_demos
    assert from_readme <= set(vtapred.__all__)
    assert from_demos <= set(vtapred.__all__)
    assert sorted(vtapred.__all__) == sorted(from_readme | from_demos | EXCEPTIONS | {"__version__"})
    for name in vtapred.__all__:
        assert hasattr(vtapred, name), name
    for name in EXCEPTIONS:
        assert issubclass(getattr(vtapred, name), Exception), name
