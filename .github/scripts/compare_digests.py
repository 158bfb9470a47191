"""Check that a change moves exactly the benchmark digests its CHANGES.md entry declares.

    python3 .github/scripts/compare_digests.py BASE_TREE HEAD_TREE

Each tree is a checkout in which ``python3 bench/run_bench.py --workload all
--seed 0 --seconds 1`` has run, so that it holds
``.bench_work/results/<workload>-seed0-trace0.json``.  A workload's digest
moved when its ``artifacts_sha256`` differs between the trees, or when only
one tree has it.

The lines that HEAD_TREE's CHANGES.md adds to BASE_TREE's must hold exactly
one declaration, ``Digests moved: none`` or ``Digests moved: cv_grid,
train_large`` (workload names, comma-separated).  The check fails when the
declared set differs from the set that moved, in either direction, or when
the declaration is missing, repeated or names an unknown workload.  Exit
code 0 is a pass and 1 a failure.
"""

import json
import re
import sys
from collections import Counter
from pathlib import Path

RESULT = "-seed0-trace0.json"
DECLARATION = re.compile(r"Digests moved: (none|[a-z0-9_]+(?:, [a-z0-9_]+)*)")


def digests(tree: Path) -> dict[str, str]:
    """Workload name -> its artifacts digest, from the tree's seed-0 untraced results."""
    results = tree / ".bench_work" / "results"
    return {path.name[:-len(RESULT)]: json.loads(path.read_text(encoding="utf-8"))["artifacts_sha256"]
            for path in sorted(results.glob("*" + RESULT))}


def added_lines(base: Path, head: Path) -> list[str]:
    """The lines of head's CHANGES.md that base's does not hold (as many times as head adds them)."""
    def lines(tree: Path) -> list[str]:
        path = tree / "CHANGES.md"
        return path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
    return list((Counter(lines(head)) - Counter(lines(base))).elements())


def declared(lines: list[str]) -> set[str]:
    """The workloads that the one ``Digests moved:`` declaration among ``lines`` names."""
    found = [match.group(1) for line in lines for match in DECLARATION.finditer(line)]
    if len(found) != 1:
        raise ValueError(f"the new CHANGES.md lines hold {len(found)} 'Digests moved:' declarations, "
                         "not one: write 'Digests moved: none' or list the workloads whose digests move")
    return set() if found[0] == "none" else set(found[0].split(", "))


def check(base: Path, head: Path) -> list[str]:
    """Every way the change's declaration and its digests disagree; empty when they agree."""
    before, after = digests(base), digests(head)
    if not before or not after:
        return [f"no {RESULT} results under {tree}/.bench_work/results" for tree, found in
                ((base, before), (head, after)) if not found]
    moved = {name for name in before.keys() | after.keys() if before.get(name) != after.get(name)}
    try:
        claimed = declared(added_lines(base, head))
    except ValueError as exc:
        return [str(exc)]
    problems = [f"declared workload {name!r} is not a benchmark workload"
                for name in sorted(claimed - before.keys() - after.keys())]
    problems += [f"{name}: digest moved ({before.get(name)} -> {after.get(name)}) but is not declared"
                 for name in sorted(moved - claimed)]
    problems += [f"{name}: declared as moved but its digest {before[name]} did not move"
                 for name in sorted(claimed - moved) if name in before.keys() | after.keys()]
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    base, head = map(Path, argv)
    problems = check(base, head)
    before = digests(base)
    for name, digest in sorted(digests(head).items()):
        print(f"{name}: base {before.get(name)}, head {digest}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("digests agree with the declaration" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
