"""Work that grows linearly with program size, counted, not timed.

`trace_events` counts the line and call events that `sys.settrace`
reports for code under `src/tierlang` while one call runs.  Counts are
exact and the same on every machine, so a stage that turns quadratic
shows as a log2 ratio near 2 per doubling of the input, where wall time on
a shared machine is too noisy to tell.  Call events count each resumption
of a generator, so a recursive generator, which passes every node up
through all its ancestors' frames, shows too.  Neither sees work done in
C: string copies, list and dict growth, `sorted`.  A stage that turns
quadratic only there, such as a walk that copies its stack per node with
`stack = stack + [...]`, passes this test.

The families are `;` chains and `while` nests, kept below the parser's
nesting limit.  Each program's last statement holds its one oracle call,
so a walk that looks for a call visits every node.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

import tierlang
from tierlang.syntax import (
    assigned_vars,
    has_oracle_call,
    parse,
    program_size,
    program_to_json,
    variables_of,
)

_PACKAGE = str(Path(tierlang.__file__).parent)

CHAINS = (60, 120, 240, 480)
NESTS = (30, 60, 120, 240)


def trace_events(fn, *args) -> int:
    """The number of line and call events in `tierlang` code while
    ``fn(*args)`` runs.  Each resumption of a generator is a call event."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        nonlocal count
        if not frame.f_code.co_filename.startswith(_PACKAGE):
            return None
        count += 1
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def doubling_ratios(stage, family, sizes) -> list[float]:
    """log2 of the growth in traced events from each size to the next,
    which doubles it: about 1 for linear work, 2 for quadratic."""
    inputs = [family(n) for n in sizes]
    counts = [trace_events(stage, x) for x in inputs]
    return [math.log2(b / a) for a, b in zip(counts, counts[1:])]


def chain(n: int) -> str:
    return "x := suc1(pred(y)); y := x; " * (n // 2 - 1) + (
        "x := pred(y); y := phi(x | y) return y")


def nest(n: int) -> str:
    return "while (gt0(x)) { " * n + "y := phi(x | y)" + " }" * n + " return y"


STAGES = {
    "program_size": program_size,
    "variables_of": variables_of,
    "assigned_vars": lambda p: assigned_vars(p.body),
    "has_oracle_call": has_oracle_call,
    "oracle_name": lambda p: p.oracle_name,
    "program_to_json": program_to_json,
    "==": lambda pair: pair[0] == pair[1],
    "hash": hash,
}


@pytest.mark.parametrize("family,sizes", [(chain, CHAINS), (nest, NESTS)],
                         ids=["chain", "nest"])
@pytest.mark.parametrize("name", STAGES)
def test_syntax_queries_do_linear_work(name, family, sizes):
    if name == "==":
        # Two separately parsed copies, so that no part is shared.
        def make(n):
            return parse(family(n)), parse(family(n))
    else:
        def make(n):
            return parse(family(n))
    ratios = doubling_ratios(STAGES[name], make, sizes)
    # Above 1.1 the work grows faster than the program; below 0.5 the
    # family does not make the stage walk the whole tree.
    assert all(0.5 < r <= 1.1 for r in ratios), ratios
