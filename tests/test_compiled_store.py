"""The compiled interpreter's final store and generated names, against the
reference tree walker.

A compiled run keeps each variable in a Python local and writes back at
its end only the variables it assigned, so these cases pin the final
store's bound set, names that the generated code also uses, a program
with thousands of variables, and errors raised inside a generated
function of its own.  Each case runs at `_LEVELS` 16 and at 1, where every
compound command below the top one is such a function.
"""

from __future__ import annotations

from unittest import mock

import pytest

from tierlang import semantics
from tierlang.semantics import (
    FuelExhausted, OracleRequired, StuckGuard, TableOracle, run_program,
)
from tierlang.syntax import parse

from .reference_semantics import reference_run

LEVELS = pytest.mark.parametrize("levels", [semantics._LEVELS, 1])


def outcome(run, p, inputs, oracle, fuel):
    try:
        r = run(p, inputs, oracle, fuel)
    except Exception as exc:
        return type(exc), str(exc)
    return r.value, r.store.bindings(), r.trace.steps, r.trace.queries


def agree(source: str, inputs: dict, levels: int, oracle=None):
    """Compile ``source`` at ``levels`` and compare it with the reference
    at every fuel up to the end of the run; return the outcome."""
    with mock.patch.object(semantics, "_LEVELS", levels):
        p = parse(source)
        fuel = 0
        while True:
            expect = outcome(reference_run, p, inputs, oracle, fuel)
            assert outcome(run_program, p, inputs, oracle, fuel) == expect, fuel
            if expect[0] is not FuelExhausted:
                assert outcome(run_program, p, inputs, oracle, None) == expect
                return expect
            fuel += 1


@LEVELS
def test_a_target_of_a_loop_that_never_runs_stays_unbound(levels):
    source = "while (gt0(x)) { x := pred(x); if (gt0(x)) { y := x } else { skip } } return y"
    assert agree(source, {}, levels)[:2] == ("", {})
    assert agree(source, {"z": "0"}, levels)[:2] == ("", {"z": "0"})


@LEVELS
@pytest.mark.parametrize("value", ["pred(x)", "x", '""', "0"])
def test_an_unbound_variable_assigned_the_empty_word_is_bound(value, levels):
    source = f"if (eq(x, x)) {{ y := {value} }} else {{ skip }} return y"
    assert agree(source, {}, levels)[:2] == ("", {"y": ""})


@LEVELS
def test_an_input_never_assigned_keeps_its_value(levels):
    source = "while (gt0(x)) { y := suc1(y); x := pred(x) } return y"
    inputs = {"x": "11", "z": "101", "y": "0"}
    assert agree(source, inputs, levels)[:2] == ("110", {"x": "", "y": "110", "z": "101"})


# Names the generated code gives its own locals, arguments and globals.
CODE_NAMES = ("v0", "a0", "t0", "s", "L", "d", "get", "ans", "rec", "FuelExhausted")


@LEVELS
def test_variables_named_like_the_generated_code(levels):
    v0, a0, t0, s, L, d, get, ans, rec, fuel = CODE_NAMES
    source = f"""
    {v0} := suc1({a0});
    {t0} := {v0};
    while (gt0({s})) {{
      {s} := pred({s});
      {L} := suc0({L});
      if (eq({L}, {get})) {{ {d} := phi({t0} | {rec}) }} else {{ {ans} := {d} }}
    }};
    {fuel} := maxlen({ans}, {s})
    return {fuel}
    """
    oracle = TableOracle(default=("echo-length", None))
    inputs = {s: "111", get: "00", a0: "1", rec: "1", L: "0"}
    value, bindings, *_ = agree(source, inputs, levels, oracle)
    assert set(bindings) == set(CODE_NAMES)
    assert (value, bindings[d]) == ("11", "11")


def test_a_chain_of_thousands_of_variables_runs():
    # At the default recursion limit; the reference walker recurses on `;`.
    n = 3000
    source = "x0 := 1; " + "".join(f"x{i} := suc1(x{i - 1}); " for i in range(1, n))
    r = run_program(parse(source + f"y := x{n - 1} return y"))
    assert r.value == "1" * n
    assert r.store.bindings() == {"y": "1" * n, **{f"x{i}": "1" * (i + 1) for i in range(n)}}
    # Two steps for `x0 := 1` and for `y := x2999`, three for each other
    # assignment, one per `;` and one for the program.
    assert r.trace.steps == 2 + 3 * (n - 1) + 2 + n + 1


@LEVELS
@pytest.mark.parametrize("source,inputs,error", [
    ("while (gt0(x)) { if (gt0(x)) { x := pred(x); y := suc1(y) } else { skip } }"
     " return y", {"x": "111"}, None),
    ("if (gt0(x)) { if (x) { skip } else { y := 1 } } else { skip } return y",
     {"x": "11"}, StuckGuard),
    ("while (gt0(x)) { x := pred(x); if (gt0(x)) { y := phi(x | y) } else { skip } }"
     " return y", {"x": "11"}, OracleRequired),
], ids=["fuel", "stuck", "oracle"])
def test_errors_inside_a_generated_function_agree(source, inputs, error, levels):
    # At every fuel below the run's end, FuelExhausted comes out of the
    # innermost function; at the end, the run's own error, or none.
    result = agree(source, inputs, levels)
    assert result[0] == (error or "111")
