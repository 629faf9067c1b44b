"""The code the compiled interpreter writes for a guard.

A guard made of a builtin predicate (`gt0`, `eq`, `geq`) becomes a Python
condition and is never stuck, so its code holds no `StuckGuard`.  Any
other guard is a word, and `_Emitter.guard` writes its one stuck check.
Each case reads the source `_compile` passes to `compile`, at `_LEVELS` 16
and at 1, where every compound command below the top one is a function
of its own.
"""

from __future__ import annotations

from unittest import mock

import pytest

from tierlang import semantics
from tierlang.operators import DEFAULT_REGISTRY
from tierlang.syntax import parse

LEVELS = pytest.mark.parametrize("levels", [semantics._LEVELS, 1])

PREDICATE_GUARDS = """
if (gt0(x)) {
  while (eq(x, y)) { x := pred(x); if (geq(y, x)) { y := pred(y) } else { skip } }
} else {
  while (gt0(z)) { z := pred(z) }
}
return x
"""

# Four word guards: a variable, a builtin that is not a predicate, a
# constant and an oracle call, and one predicate guard among them.
WORD_GUARDS = """
if (x) {
  while (pred(x)) { x := pred(x); if (1) { skip } else { skip } }
} else {
  while (phi(x | y)) { y := pred(y); if (gt0(y)) { skip } else { skip } }
}
return x
"""


def compiled_source(source: str, levels: int) -> str:
    """The source that `_compile` hands to `compile` for ``source``."""
    seen = []

    def spy(text, *args):
        seen.append(text)
        return compile(text, *args)

    with mock.patch.object(semantics, "_LEVELS", levels), \
            mock.patch.object(semantics, "compile", spy, create=True):
        semantics._compile(parse(source), DEFAULT_REGISTRY)
    (text,) = seen
    return text


def functions(text: str) -> int:
    return sum(line.startswith("def ") for line in text.splitlines())


@LEVELS
def test_predicate_guards_are_never_stuck(levels):
    text = compiled_source(PREDICATE_GUARDS, levels)
    assert "StuckGuard" not in text
    assert functions(text) == (4 if levels == 1 else 1)


@LEVELS
def test_each_word_guard_has_one_stuck_check(levels):
    text = compiled_source(WORD_GUARDS, levels)
    assert text.count("raise StuckGuard") == 4
    assert functions(text) == (5 if levels == 1 else 1)
