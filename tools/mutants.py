"""The standing mutant catalogue: every mutant must be caught by its tests.

    python3 tools/mutants.py [NAME ...]

Each entry of ``tools/mutants.json`` names a file, an exact old text, the
new text that replaces it and the pytest ids that must catch the change.
The runner copies the tree to a temporary directory, checks that the
named tests pass there unmutated, then applies one mutant at a time and
requires every one of its tests to fail (an error in collection or a
test id that names nothing does not count).  An entry whose old text does not occur exactly
once fails the run before anything else is run, so a refactor must
update the catalogue and cannot drop a mutant silently.  Give names to
run only those entries.  Exits 0 when every mutant is caught, 1 when one
survives and 2 when the catalogue or the clean tree is broken.
Stdlib only; runs outside the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = Path(__file__).with_name("mutants.json")
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_out", "*.egg-info")


def load(names):
    """The catalogue's entries, or only those named; raises SystemExit with
    every problem found if an entry is malformed or its old text does not
    occur exactly once."""
    entries = json.loads(CATALOGUE.read_text())
    problems = []
    seen = [entry["name"] for entry in entries]
    problems += [f"duplicate name {n!r}" for n in sorted({n for n in seen if seen.count(n) > 1})]
    problems += [f"no entry named {n!r}" for n in names if n not in seen]
    for entry in entries:
        missing = {"name", "file", "old", "new", "tests"} - set(entry)
        if missing or not entry["tests"] or entry["old"] == entry["new"]:
            problems.append(f"{entry.get('name')!r}: needs distinct old and new texts and "
                            f"at least one test (missing {sorted(missing)})")
            continue
        count = (ROOT / entry["file"]).read_text().count(entry["old"])
        if count != 1:
            problems.append(f"{entry['name']!r}: old text occurs {count} times in {entry['file']}")
    if problems:
        print("mutants: catalogue is stale:\n  " + "\n  ".join(problems), file=sys.stderr)
        raise SystemExit(2)
    return [entry for entry in entries if not names or entry["name"] in names]


def pytest(tree, tests):
    """pytest's exit code for ``tests`` run in ``tree``, the ids of those
    that failed and its last line.  No bytecode is written: a mutant and
    the clean file can share a size and an mtime second, and a cached one
    would stand in for the other."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = (done.stdout + done.stderr).strip().splitlines()
    failed = {line[len("FAILED "):].split(" - ")[0] for line in lines if line.startswith("FAILED ")}
    return done.returncode, failed, lines[-1] if lines else ""


def main(names):
    entries = load(names)
    with tempfile.TemporaryDirectory(prefix="delaybs-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        tests = sorted({test for entry in entries for test in entry["tests"]})
        code, _, last = pytest(tree, tests)
        if code != 0:
            print(f"mutants: the named tests fail on the clean tree (exit {code}): {last}")
            return 2
        survived = 0
        for entry in entries:
            path = tree / entry["file"]
            clean = path.read_text()
            path.write_text(clean.replace(entry["old"], entry["new"]))
            start = time.perf_counter()
            code, failed, last = pytest(tree, entry["tests"])
            path.write_text(clean)
            passed = sorted(set(entry["tests"]) - failed)
            caught = code == 1 and not passed
            survived += not caught
            print(f"{'caught' if caught else 'SURVIVED'} {entry['name']} "
                  f"({time.perf_counter() - start:.1f} s, exit {code}): {last}")
            for test in passed:
                print(f"  not failed: {test}")
        print(f"mutants: {len(entries) - survived} of {len(entries)} caught")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
