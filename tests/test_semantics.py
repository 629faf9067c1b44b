"""Interpreter tests: truncate-pad, step accounting, oracles, failure modes."""

import copy
import gc
import os
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, strategies as st

from tierlang import semantics
from tierlang.operators import (
    DEFAULT_REGISTRY,
    Neutral,
    OperatorSpec,
    UnknownOperator,
    builtin_registry,
)
from tierlang.semantics import (
    ExecutionTrace,
    FuelExhausted,
    Oracle,
    OracleRequired,
    PaddedOracle,
    Store,
    StuckGuard,
    TableOracle,
    run_program,
    truncate_pad,
)
from tierlang.syntax import (
    Assign,
    If,
    OpApp,
    Program,
    Seq,
    Skip,
    Var,
    While,
    literal_op_name,
    parse,
    pretty,
    program_to_json,
)

from .conftest import time_bound
from .reference_semantics import reference_run
from .strategies import words


ADD = parse("""
while (gt0(x)) {
  x := pred(x);
  y := suc1(y)
}
return y
""")


# Hand-computed reference points for the padding rule.
@pytest.mark.parametrize("v,bound,expect", [
    ("1001", "", "1"),
    ("1001", "0", "11"),
    ("1001", "00", "101"),
    ("1001", "000000", "1001100"),
])
def test_truncate_pad_reference_values(v, bound, expect):
    assert truncate_pad(v, bound) == expect


@given(words, words)
def test_truncate_pad_length_law(v, bound):
    out = truncate_pad(v, bound)
    assert len(out) == len(bound) + 1
    assert "1" in out


@given(words, words)
def test_truncate_pad_marker_recovers_short_inputs(v, bound):
    out = truncate_pad(v, bound)
    if len(v) <= len(bound):
        assert out[:out.rfind("1")] == v


def test_add_unary():
    res = run_program(ADD, {"x": "111", "y": "11"})
    assert res.value == "11111"
    assert res.trace.steps == 37
    assert res.trace.initial_store_size == 5


def test_add_step_count_is_affine():
    # one guard re-check when x is empty, plus a constant tail
    for n in range(6):
        res = run_program(ADD, {"x": "1" * n})
        assert res.trace.steps == 11 * n + 4


def test_store_defaults_to_empty_word():
    res = run_program(parse("y := suc1(x) return y"))
    assert res.value == "1"
    store = Store({"a": "01"})
    assert store.get("missing") == ""


def test_store_rejects_non_words():
    with pytest.raises(ValueError):
        Store({"x": "012"})


def test_trace_m_tracks_longest_answer():
    p = parse("y := phi(x | x) return y")
    oracle = TableOracle(default=("constant", "110110"))
    res = run_program(p, {"x": "11"}, oracle)
    assert res.trace.m == 6
    assert res.trace.queries == [("111", "110110")]


def test_trace_m_falls_back_to_store_size():
    res = run_program(ADD, {"x": "1111", "y": "1"})
    assert res.trace.m == 5


def test_oracle_table_entries_win_over_default():
    oracle = TableOracle(entries=(("01", "111"),), default=("constant", "0"))
    assert oracle.answer("01") == "111"
    assert oracle.answer("10") == "0"


def test_echo_length_default():
    oracle = TableOracle(default=("echo-length", None))
    assert oracle.answer("0010") == "1111"
    assert oracle.answer("") == ""


def test_table_oracle_json_round_trip(tmp_path):
    oracle = TableOracle(entries=(("1", "00"),), default=("echo-length", None))
    path = tmp_path / "oracle.json"
    path.write_text(__import__("json").dumps(oracle.to_json()))
    assert TableOracle.load(str(path)) == oracle


def test_padded_oracle_strips_marker():
    inner = TableOracle(entries=(("10", "111"),), default=("constant", ""))
    padded = PaddedOracle(inner)
    assert padded.answer(truncate_pad("10", "0000")) == "111"
    assert padded.answer("0000") == ""  # no marker, default rule


def test_oracle_program_requires_oracle():
    p = parse("y := phi(x | x) return y")
    with pytest.raises(Exception):
        run_program(p, {"x": "1"})


def test_stuck_guard_reports_value():
    p = parse('x := "10" ; if (x) { skip } else { skip } return x')
    with pytest.raises(StuckGuard):
        run_program(p)


def test_guard_must_be_a_single_symbol():
    p = parse('if (x) { y := "1" } else { y := "0" } return y')
    with pytest.raises(StuckGuard):
        run_program(p)  # empty word is not a truth value
    assert run_program(p, {"x": "1"}).value == "1"
    assert run_program(p, {"x": "0"}).value == "0"


def test_fuel_exhaustion():
    p = parse("while (gt0(suc1(x))) { x := suc1(x) } return x")
    with pytest.raises(FuelExhausted), time_bound():
        run_program(p, fuel=500)
    # the same program runs fine under a generous budget cut short
    res = run_program(ADD, {"x": "11"}, fuel=26)
    assert res.trace.steps == 26


def test_negative_fuel_is_rejected_before_the_run():
    with pytest.raises(ValueError, match="negative fuel -1"):
        run_program(ADD, {"x": "11"}, fuel=-1)
    with pytest.raises(FuelExhausted):
        run_program(ADD, {"x": "11"}, fuel=0)


def test_runs_are_deterministic():
    first = run_program(ADD, {"x": "1111", "y": "10"})
    second = run_program(ADD, {"x": "1111", "y": "10"})
    assert first.value == second.value
    assert first.trace.steps == second.trace.steps


@given(st.integers(0, 8), st.integers(0, 8))
def test_add_computes_unary_sum(a, b):
    res = run_program(ADD, {"x": "1" * a, "y": "1" * b})
    assert res.value == "1" * (a + b)


@pytest.mark.parametrize("result", ["12", 12, None])
def test_custom_operator_results_are_checked(result):
    reg = builtin_registry().extended(
        OperatorSpec("bad", 1, Neutral(), lambda w: result))
    p = parse("y := bad(x) return y", reg)
    with pytest.raises(ValueError, match="returned a non-word"):
        run_program(p, {"x": "1"}, registry=reg)


def test_custom_operator_words_pass_through():
    reg = builtin_registry().extended(
        OperatorSpec("head", 1, Neutral(), lambda w: w[:1]))
    p = parse("y := head(x) return y", reg)
    assert run_program(p, {"x": "01"}, registry=reg).value == "0"


FALSE = OpApp(literal_op_name("0"))
TRUE = OpApp(literal_op_name("1"))
UNKNOWN = Assign("y", OpApp("frobnicate"))
WRONG_ARITY = Assign("y", OpApp("pred", (Var("x"), Var("x"))))


@pytest.mark.parametrize("bad", [UNKNOWN, WRONG_ARITY])
def test_bad_operators_in_untaken_code_do_not_raise(bad):
    for body in (If(FALSE, bad, Skip()), If(TRUE, Skip(), bad), While(FALSE, bad)):
        res = run_program(Program(body, "y"))
        assert res.value == ""


@pytest.mark.parametrize("bad,error", [(UNKNOWN, UnknownOperator),
                                        (WRONG_ARITY, ValueError)])
def test_bad_operators_raise_when_reached(bad, error):
    # The guard and the operator's arguments tick before the operator
    # fails, so a smaller budget runs out first.
    p = Program(If(TRUE, bad, Skip()), "y")
    before = 1 + len(bad.value.args) + 1
    with pytest.raises(error):
        run_program(p, {"x": "1"})
    with pytest.raises(error):
        run_program(p, {"x": "1"}, fuel=before)
    with pytest.raises(FuelExhausted):
        run_program(p, {"x": "1"}, fuel=before - 1)


def test_table_oracle_first_row_wins():
    oracle = TableOracle(entries=(("01", "1"), ("01", "00")),
                         default=("constant", "111"))
    assert oracle.answer("01") == "1"
    res = run_program(parse("y := phi(x | x) return y"), {"x": "0"}, oracle)
    assert res.trace.queries == [("01", "1")]
    assert PaddedOracle(oracle).answer(truncate_pad("01", "00")) == "1"


def test_table_oracle_index_stays_out_of_equality():
    rows = (("1", "0"), ("1", "11"))
    assert TableOracle(rows) == TableOracle(rows)
    assert hash(TableOracle(rows)) == hash(TableOracle(rows))
    assert TableOracle(rows) != TableOracle(rows[::-1])
    assert "_index" not in repr(TableOracle(rows))


def test_long_straight_line_program_runs():
    # Built as an AST: parsing a chain this long still recurses per
    # statement (ROADMAP item 4).
    n = 10_000
    body = Assign("x", OpApp("suc1", (Var("x"),)))
    for _ in range(n - 1):
        body = Seq(Assign("x", OpApp("suc1", (Var("x"),))), body)
    res = run_program(Program(body, "x"))
    assert res.value == "1" * n
    # three rules per assignment, n - 1 seq rules, one program rule
    assert res.trace.steps == 3 * n + (n - 1) + 1


@pytest.mark.parametrize("nest", ["while", "if"])
def test_a_deep_nest_runs(nest):
    # Built as an AST: the parser recurses per nesting level (ROADMAP
    # item 2).  Compiled with a Python call per level, it would pass the
    # default recursion limit.
    depth = 2_000
    body = Seq(Assign("x", OpApp("pred", (Var("x"),))),
               Assign("y", OpApp("suc1", (Var("y"),))))
    for _ in range(depth):
        guard = OpApp("gt0", (Var("x"),))
        body = While(guard, body) if nest == "while" else If(guard, body, Skip())
    res = run_program(Program(body, "y"), {"x": "1"})
    assert (res.value, res.store.bindings()) == ("1", {"x": "", "y": "1"})
    # Innermost: 2 guard + 1 loop + 7 body + 1 seq, then 3 for the exit;
    # each level above adds 2 + 1 + 1 + 3.  An if adds 2 + 1 per level
    # around 2 + 7 + 1.  One program rule.
    steps = 7 * depth + 8 if nest == "while" else 3 * depth + 8
    assert res.trace.steps == steps


def test_a_run_leaves_no_reference_cycles():
    p = parse("y := phi(x | x) ; while (gt0(x)) { x := pred(x) } return y")
    oracle = PaddedOracle(TableOracle(default=("echo-length", None)))
    gc.collect()
    gc.disable()
    try:
        run_program(p, {"x": "111"}, oracle)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- One compiled program, many runs --------------------------------------


def _seen(res):
    return res.value, res.store.bindings(), res.trace.steps, res.trace.queries


def test_a_run_cut_short_leaves_the_program_ready_for_the_next():
    src = "while (gt0(x)) { x := pred(x); y := suc1(y) } return y"
    p = parse(src)
    with pytest.raises(FuelExhausted):
        run_program(p, {"x": "111"}, fuel=3)
    assert _seen(run_program(p, {"x": "111"})) == _seen(
        run_program(parse(src), {"x": "111"}))


def test_the_oracle_is_looked_for_in_each_run():
    p = parse("y := psi(x | x) return y")
    # The data, the bound and the call's own tick come before the check.
    with pytest.raises(FuelExhausted):
        run_program(p, {"x": "1"}, fuel=2)
    with pytest.raises(OracleRequired) as missing:
        run_program(p, {"x": "1"}, fuel=3)
    assert missing.value.name == "psi"
    res = run_program(p, {"x": "1"}, TableOracle(default=("constant", "0")))
    assert (res.value, res.trace.queries) == ("0", [("11", "0")])
    with pytest.raises(OracleRequired, match="oracle 'psi'"):
        run_program(p, {"x": "1"})


class _Reentrant(Oracle):
    """Answers a query by running the program again on a shorter input."""

    def __init__(self, program, run):
        self.program, self.run = program, run

    def answer(self, query: str) -> str:
        if len(query) <= 2:
            return query
        return self.run(self.program, {"x": query[2:]}, self).value


def test_an_oracle_may_run_the_program_it_answers():
    p = parse("y := phi(x | pred(x)) ; while (gt0(x)) { x := pred(x); z := suc1(z) } ;"
              " y := suc0(y) ; z := phi(y | z) return z")
    for x in ("", "1", "1011", "1" * 9):
        assert _seen(run_program(p, {"x": x}, _Reentrant(p, run_program))) == _seen(
            reference_run(p, {"x": x}, _Reentrant(p, reference_run)))


class _Dict(dict):
    pass


class _List(list):
    pass


class _WeakStore(Store):
    """A store whose dict, unlike a plain one, takes weak references."""

    __slots__ = ()

    def __init__(self, bindings=None):
        super().__init__(bindings)
        self._data = _Dict(self._data)


class _WeakTrace(ExecutionTrace):
    """A trace that, with its query list, takes weak references."""

    def __init__(self, **fields):
        super().__init__(**fields)
        self.queries = _List()


class _WeakOracle(Oracle):
    def answer(self, query: str) -> str:
        return query


def test_a_pooled_runner_keeps_nothing_of_its_last_run(monkeypatch):
    monkeypatch.setattr(semantics, "Store", _WeakStore)
    monkeypatch.setattr(semantics, "ExecutionTrace", _WeakTrace)
    p = parse("y := phi(x | x) ; while (gt0(x)) { x := pred(x) } return y")
    oracle = _WeakOracle()
    gc.collect()
    gc.disable()
    try:
        res = run_program(p, {"x": "11"}, oracle)
        assert res.value == "111"
        refs = [weakref.ref(o) for o in (res.store._data, res.trace,
                                         res.trace.queries, oracle)]
        del res, oracle
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_each_registry_gets_its_own_compilation():
    bad = lambda w: w + "2" if w == "0" else w + w  # noqa: E731
    p = parse("if (b) { y := twice(x) } else { skip } return y",
              DEFAULT_REGISTRY.extended(OperatorSpec("twice", 1, Neutral(), bad)))
    assert run_program(p, {"b": "0", "x": "1"}).value == ""
    with pytest.raises(UnknownOperator):
        run_program(p, {"b": "1", "x": "1"})
    reg = DEFAULT_REGISTRY.extended(OperatorSpec("twice", 1, Neutral(), bad))
    assert run_program(p, {"b": "0", "x": "1"}, registry=reg).value == ""
    assert run_program(p, {"b": "1", "x": "1"}, registry=reg).value == "11"
    with pytest.raises(ValueError, match="returned a non-word: '02'"):
        run_program(p, {"b": "1", "x": "0"}, registry=reg)
    with pytest.raises(UnknownOperator):
        run_program(p, {"b": "1", "x": "1"})


def test_the_runner_pool_is_not_part_of_the_program():
    src = "while (gt0(x)) { x := pred(x) } return x"
    p, fresh = parse(src), parse(src)
    shown = repr(p), hash(p), pretty(p), program_to_json(p)
    run_program(p, {"x": "11"})
    assert p == fresh and (repr(p), hash(p), pretty(p), program_to_json(p)) == shown
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and vars(twin).keys() == vars(fresh).keys()
        assert run_program(twin, {"x": "11"}).trace.steps == run_program(
            p, {"x": "11"}).trace.steps


def test_threads_running_one_program_never_share_a_runner():
    p = parse("while (gt0(x)) { x := pred(x); y := suc1(y) } return y")
    failures = []

    def work(k: int) -> None:
        try:
            start.wait()
            for n in range(200):
                x = "1" * ((k + n) % 17)
                res = run_program(p, {"x": x, "y": "1"})
                if (res.value, res.trace.steps) != ("1" + x, 11 * len(x) + 4):
                    failures.append((k, n, res.value, res.trace.steps))
        except Exception as exc:  # a thread's error would not fail the test
            failures.append((k, repr(exc)))

    workers = [threading.Thread(target=work, args=(k,))
               for k in range(min(os.cpu_count() or 1, 7) + 1)]
    start = threading.Barrier(len(workers), timeout=60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert failures == []
