"""Work that grows linearly with program size, counted, not timed.

`work_counter.trace_events` counts the line and call events of
`tierlang` code while one call runs, so a stage that turns quadratic
shows as a log2 ratio near 2 per doubling of the input.  It does not see
work done in C: string copies, list and dict growth, `sorted`.  A stage
that turns quadratic only there, such as a walk that copies its stack
per node with `stack = stack + [...]`, passes this test.

The families are `;` chains and `while` nests, kept below the parser's
nesting limit.  Each program's last statement holds its one oracle call,
so a walk that looks for a call visits every node.  The chains type and
the nests do not, so the solver runs to a typing on one and to a failure,
in both modes, on the other; a nest of countdown loops without the call
types, and its derivation is built, verified and audited.
"""

from __future__ import annotations

import math

import pytest

from tierlang.inference import _constraints, infer, least_tiers
from tierlang.syntax import (
    assigned_vars,
    has_oracle_call,
    parse,
    pretty,
    program_size,
    program_to_json,
    variables_of,
)
from tierlang.tiers import audit_derivation, derive, verify_derivation

from .work_counter import trace_events

CHAINS = (60, 120, 240, 480)
NESTS = (30, 60, 120, 240)


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


def typable_nest(n: int) -> str:
    return "while (gt0(x)) { " * n + "x := pred(x)" + " }" * n + " return x"


def both_modes(p):
    return [least_tiers(p, outer_zero=mode) for mode in (True, False)]


def inferred(source: str):
    result = infer(parse(source))
    return result.derivation, result.gamma


def solved(source: str):
    return least_tiers(parse(source))


# What each solver stage takes, made from a family's source text.
PIPELINE = {
    "parse": (parse, str),
    "_constraints": (lambda p: _constraints(p, None, None, None, None, None), parse),
    "least_tiers": (both_modes, parse),
    "derive": (lambda solution: derive(solution, solution.triple), solved),
    "verify_derivation": (lambda pair: verify_derivation(*pair), inferred),
    "infer": (infer, parse),
    "audit_derivation": (lambda pair: audit_derivation(*pair), inferred),
    "pretty": (pretty, parse),
}


@pytest.mark.parametrize("name,family,sizes", [
    pytest.param(name, family, sizes, id=f"{name}-{family.__name__}")
    for names, family, sizes in [
        (PIPELINE, chain, CHAINS),
        (("parse", "_constraints", "least_tiers", "pretty"), nest, NESTS),
        (("derive", "verify_derivation", "infer", "audit_derivation"), typable_nest,
         NESTS),
    ] for name in names
])
def test_solver_stages_do_linear_work(name, family, sizes):
    stage, make = PIPELINE[name]
    ratios = doubling_ratios(stage, lambda n: make(family(n)), sizes)
    assert all(0.5 < r <= 1.1 for r in ratios), ratios


def test_the_chains_type_and_the_nests_do_not():
    for n in (CHAINS[0], CHAINS[-1]):
        assert None not in both_modes(parse(chain(n)))
    for n in (NESTS[0], NESTS[-1]):
        assert both_modes(parse(nest(n))) == [None, None]
        assert infer(parse(typable_nest(n))) is not None
