"""Every module of the package imports at its top, never inside a function,
and only modules below it in one fixed layering.

An import inside a function hides a layering problem (usually an import
cycle) and costs a lookup on every call.  The one exception is listed
with its reason.  A module's top-level imports name only modules earlier
in `LAYERS`, so a new import that would close a cycle fails here rather
than being moved into a function.  The underscore names one module takes
from another are listed too, each with its reason, so a new leak across a
module boundary fails here.
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

# The package's modules, each importing only modules before it.
LAYERS = ("operators", "syntax", "inference", "tiers", "semantics", "analysis",
          "corpus", "bruteforce", "bulkcheck", "cli", "__init__")


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


def _layer(path: Path) -> str:
    """The entry of `LAYERS` for a module: a subpackage counts as one."""
    parts = path.relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else path.stem


def _top_level_imports(path: Path):
    """The layers of the package modules that ``path`` imports at its top
    level; ``from . import analysis`` imports `analysis`."""
    package = path.relative_to(PACKAGE).parent.parts
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) + 1 - node.level]
            if node.module:
                yield (*base, *node.module.split("."))[0]
            else:
                yield from ((*base, a.name)[0] for a in node.names)


def test_modules_import_only_earlier_layers():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {_layer(path) for path in modules} == set(LAYERS)
    found = {
        (_layer(path), imported)
        for path in modules
        for imported in _top_level_imports(path)
        if LAYERS.index(imported) >= LAYERS.index(_layer(path))
    }
    assert found == set()


# (module, imported from, name) of each private name a package module takes
# from a sibling, with its reason.
PRIVATE = {
    ("tiers", "syntax", "_PARTS"):
        "verify_derivation and the audit read a subject's parts from the one"
        " shape table",
    ("tiers", "syntax", "_same_tree"):
        "Derivation.__eq__ compares subjects with the memo the trees' own =="
        " uses, so equal trees compare in linear time",
    ("tiers", "inference", "_MODES"):
        "check tries the modes in inference's order when no triple fixes one",
    ("tiers", "inference", "_solve"): "check goes through the one mode loop",
    ("tiers", "inference", "_solution"):
        "check reads the solved tiers out as least_tiers does",
    ("semantics", "operators", "_BUILTINS"):
        "the compiler writes the builtins' code inline",
    ("semantics", "operators", "_Constant"):
        "the compiler writes a constant's word inline",
}


def _private_imports(path: Path):
    """(module, imported module, name) of each underscore name ``path``
    imports from a sibling module, at any depth of its code."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.startswith("_"):
                    module = (node.module or alias.name).split(".")[0]
                    yield _layer(path), module, alias.name


def test_private_names_cross_modules_only_where_listed():
    found = {
        site
        for path in sorted(PACKAGE.rglob("*.py"))
        for site in _private_imports(path)
    }
    assert found == set(PRIVATE)
