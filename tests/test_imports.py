"""Every module of the package imports at its top, never inside a function.

An import inside a function hides a layering problem (usually an import
cycle) and costs a lookup on every call.  The one exception is listed
with its reason.
"""

import ast
from pathlib import Path

import tierlang

PACKAGE = Path(tierlang.__file__).resolve().parent

# (module, function, imported from, names) of each import allowed inside a
# function.  `infer` imports `derive` from `tiers`, which imports
# `inference`.  The benchmark's tracer times `derive`'s calls to
# `build_derivation` and `verify_derivation` under `inference.infer`, so
# its spans pin this layering; moving `derive` waits on ROADMAP items 1
# (the tracer reads a stats recorder instead of patching) and 11 (the
# layering of `tiers` and `inference`).
ALLOWED = {("inference.py", "infer", ".tiers", ("derive",))}


def _imports_in_functions(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.Import):
                yield function.name, None, tuple(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = "." * node.level + (node.module or "")
                yield function.name, source, tuple(a.name for a in node.names)


def test_no_imports_inside_functions():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "syntax.py" in modules
    found = {
        (str(path.relative_to(PACKAGE)), *site)
        for path in modules
        for site in _imports_in_functions(path)
    }
    assert found == ALLOWED
