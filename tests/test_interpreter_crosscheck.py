"""The compiled interpreter against the slow reference tree walker.

Both must agree on everything a run exposes: the value, the final
bindings, the step total, the query trace and m, or the type and message
of the exception raised, at every fuel limit up to one past the step
total.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from tierlang import semantics
from tierlang.analysis import random_table_oracle
from tierlang.operators import (
    DEFAULT_REGISTRY, Neutral, OperatorSpec, Registry, builtin_registry,
)
from tierlang.semantics import (
    FuelExhausted, OracleRequired, PaddedOracle, StuckGuard, TableOracle, run_program,
)
from tierlang.syntax import (
    Assign, OpApp, OracleCall, Program, Seq, Var, While, has_oracle_call,
    literal_op_name, parse, variables_of,
)

from .conftest import time_bound
from .reference_semantics import reference_run
from .strategies import VAR_NAMES, programs, words

# Fuel limits swept per program; runs that go on past it are compared
# only up to it.
CAP = 300

inputs = st.dictionaries(st.sampled_from(VAR_NAMES), words, max_size=3)
tables = st.builds(
    TableOracle,
    st.lists(st.tuples(words, words), max_size=4).map(tuple),
    st.one_of(st.builds(lambda w: ("constant", w), words),
              st.just(("echo-length", None))),
)
oracles = st.one_of(st.none(), tables, tables.map(PaddedOracle))


def _outcome(run, p, inputs, oracle, fuel, registry=None):
    try:
        with time_bound():
            r = run(p, inputs, oracle, fuel, registry)
    except Exception as exc:
        return type(exc), str(exc)
    t = r.trace
    return r.value, r.store.bindings(), t.steps, t.queries, t.m


def _assert_agree(p, inputs, oracle, registry=None):
    """Agree at every fuel up to the end of the run; return its outcome."""
    for fuel in range(CAP + 1):
        expect = _outcome(reference_run, p, inputs, oracle, fuel, registry)
        assert _outcome(run_program, p, inputs, oracle, fuel, registry) == expect, fuel
        if expect[0] is not FuelExhausted:
            # The run ended within `fuel` steps: one more step of fuel,
            # or no limit at all, changes nothing.
            for more in (fuel + 1, None):
                for run in (reference_run, run_program):
                    assert _outcome(run, p, inputs, oracle, more, registry) == expect
            return expect


@given(programs(), inputs)
def test_compiled_matches_reference(p, inputs):
    _assert_agree(p, inputs, None)


@given(programs(allow_oracle=True), inputs, oracles)
def test_compiled_matches_reference_with_oracle(p, inputs, oracle):
    _assert_agree(p, inputs, oracle)


def test_compiled_matches_reference_one_level_per_function(corpus):
    # Every compound command below the top one runs in a generated
    # function of its own, as those of deep programs do.  Each program is
    # parsed afresh, so it compiles under the patch.
    with mock.patch.object(semantics, "_LEVELS", 1):
        for name, entry in corpus.items():
            p = entry.program()
            oracle = None
            if has_oracle_call(p):
                oracle = random_table_oracle(random.Random(name))
            for scale in (0, 1, 3):
                _assert_agree(p, {v: "1" * scale for v in variables_of(p)}, oracle)


def test_compiled_matches_reference_on_corpus(corpus):
    for name, entry in corpus.items():
        p = entry.program()
        oracle_views = [None]
        if has_oracle_call(p):
            table = random_table_oracle(random.Random(name))
            oracle_views += [table, PaddedOracle(table)]
        for scale in range(7):
            inputs = {v: "1" * scale for v in variables_of(p)}
            for oracle in oracle_views:
                expect = _outcome(reference_run, p, inputs, oracle, None)
                got = _outcome(run_program, p, inputs, oracle, None)
                assert got == expect, (name, scale, oracle)


def _boom(w):
    raise ArithmeticError(f"boom on {w!r}")


RAISING = builtin_registry().extended(
    OperatorSpec("boom", 1, Neutral(), _boom),
    OperatorSpec("bad", 1, Neutral(), lambda w: w + "2"))


@pytest.mark.parametrize("src,error", [
    # Builtin ticks, charged together, then a custom operator that raises
    # or returns a non-word.
    ("while (gt0(x)) { x := pred(x); y := suc1(suc0(y)) };"
     " z := boom(lmin(y, x)) return z", ArithmeticError),
    ("y := maxlen(x, suc1(x)) ; z := bad(pred(y)) return z", ValueError),
    # An oracle call with no oracle, inside a loop and after builtins.
    ("while (gt0(x)) { x := pred(x); y := phi(suc1(x) | eq(x, y)) } return y",
     OracleRequired),
    # Stuck guards, on a branch and on a loop, after builtin ticks.
    ("x := suc1(x) ; if (suc0(pred(x))) { skip } else { skip } return x",
     StuckGuard),
    ("y := 1 ; while (lmin(y, suc1(x))) { x := pred(x); y := x } return y",
     StuckGuard),
])
def test_raising_steps_agree_at_every_fuel(src, error):
    p = parse(src, RAISING)
    assert _assert_agree(p, {"x": "111", "y": "1"}, None, RAISING)[0] is error


def test_names_that_look_like_code_stay_names():
    # Names that would break out of a quoted literal, or start a new
    # line, if they were written into the compiled source.
    x, y = "x'); raise SystemExit('injected'); ('", 'y"\n z = 1 #'
    quoted = "q'\"\\op"
    registry = builtin_registry().extended(
        OperatorSpec(quoted, 2, Neutral(), lambda a, b: a + b))
    body = Seq(Assign(y, OpApp(quoted, (Var(x), OpApp(literal_op_name("10"))))),
               While(OpApp("gt0", (Var(x),)),
                     Seq(Assign(x, OpApp("pred", (Var(x),))),
                         Assign(y, OracleCall(Var(y), Var(x), name="o'\n")))))
    p = Program(body, y)
    oracle = TableOracle(default=("echo-length", None))
    expect = _assert_agree(p, {x: "11"}, oracle, registry)
    assert expect[:2] == ("1", {x: "", y: "1"})
    p = Program(Assign(y, OracleCall(Var(x), Var(x), name="o'\n")), y)
    with pytest.raises(OracleRequired, match="oracle \"o'\\\\n\""):
        run_program(p)


def test_a_custom_pred_is_called_not_inlined():
    calls = []

    def pred(w):  # drops the last symbol, not the first
        calls.append(w)
        return w[:-1]

    kept = tuple(DEFAULT_REGISTRY.lookup(name) for name in ("gt0", "suc1"))
    registry = Registry(kept + (OperatorSpec("pred", 1, Neutral(), pred),))
    p = parse("while (gt0(x)) { y := suc1(pred(y)); x := pred(x) } return y",
              registry)
    inputs = {"x": "11", "y": "1011"}
    expect = _outcome(reference_run, p, inputs, None, None, registry)
    calls.clear()
    assert _outcome(run_program, p, inputs, None, None, registry) == expect
    assert expect[0] == "1110" and len(calls) == 4
    assert run_program(p, inputs).value == "1011"  # the builtin pred
