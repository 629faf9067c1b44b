"""Delete the `fail(...)` calls of `verify_derivation` one at a time and
check that the test suite notices each deletion.

    python tests/verify_mutants.py [PYTEST_ARG ...]

Every check in `tiers.verify_derivation` ends in a `fail(...)` call.  For
each one, a mutant replaces that call by `pass`, so the check can no
longer reject anything.  The mutant lives in a copy of the checkout (the
package sources, `tests/`, `perfbench/` and `pyproject.toml`) in a
temporary directory, and pytest runs there until its first failure.  By
default it runs the whole suite without criterion 3, which never verifies
a derivation; PYTEST_ARGs are passed on after that.

Prints one line per mutant, with the source line of the deleted call and
the first test that failed, or SURVIVED.  Exits 1 if any mutant survives.
Takes about half a minute per mutant.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIERS = Path("src") / "tierlang" / "tiers.py"
DEFAULT_ARGS = [
    "-x", "-q", "-p", "no:cacheprovider",
    "--deselect", "tests/test_acceptance.py::test_criterion_3_exhaustive_small_programs",
]


def fail_calls(source: str) -> list[ast.Expr]:
    """The `fail(...)` statements inside `verify_derivation`, in order."""
    func = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == "verify_derivation")
    return sorted((node for node in ast.walk(func)
                   if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                   and getattr(node.value.func, "id", None) == "fail"),
                  key=lambda node: node.lineno)


def without(source: str, call: ast.Expr) -> str:
    """`source` with the statement `call` replaced by `pass`."""
    lines = source.splitlines(keepends=True)
    first, last = call.lineno - 1, call.end_lineno - 1
    head = lines[first][:call.col_offset]
    tail = lines[last][call.end_col_offset:]
    return "".join(lines[:first] + [head + "pass" + tail] + lines[last + 1:])


def first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return None


def main(argv: list[str]) -> int:
    source = (ROOT / TIERS).read_text()
    calls = fail_calls(source)
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "out", ".hypothesis")
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        for call in calls:
            (copy / TIERS).write_text(without(source, call))
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", *DEFAULT_ARGS, *argv],
                cwd=copy, env=env, capture_output=True, text=True)
            killer = first_failure(proc.stdout)
            where = f"{TIERS}:{call.lineno}: {ast.get_source_segment(source, call)}"
            if killer is None:
                survivors += 1
                print(f"SURVIVED  {where}", flush=True)
            else:
                print(f"killed    {where}\n          by {killer}", flush=True)
    print(f"{len(calls) - survivors} of {len(calls)} deletions fail the suite")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
