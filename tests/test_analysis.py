"""Dynamic analysis tests: revision counting, step sweeps, interference."""

import math
import random

import pytest

from tierlang.analysis import (
    count_lookahead_revisions,
    fit_loglog_slope,
    noninterference_test,
    random_table_oracle,
    sweep,
    unary_inputs,
)
from tierlang.operators import random_word
from tierlang.semantics import ExecutionTrace, TableOracle
from tierlang.syntax import parse

ADD = parse("while (gt0(x)) { x := pred(x); y := suc1(y) } return y")


def trace_with_queries(*queries: str) -> ExecutionTrace:
    return ExecutionTrace(steps=1, initial_store_size=0,
                          queries=[(q, "1") for q in queries])


def test_first_query_is_a_revision():
    assert count_lookahead_revisions(trace_with_queries("")) == 1
    assert count_lookahead_revisions(trace_with_queries("101")) == 1


def test_only_strictly_longer_queries_revise():
    t = trace_with_queries("1", "11", "10", "0", "0110")
    assert count_lookahead_revisions(t) == 3


def test_no_queries_no_revisions():
    assert count_lookahead_revisions(ExecutionTrace()) == 0


def test_random_word_is_seeded():
    a = [random_word(random.Random(5), 10) for _ in range(20)]
    b = [random_word(random.Random(5), 10) for _ in range(20)]
    assert a == b


def test_random_table_oracle_deterministic():
    a = random_table_oracle(random.Random(1))
    b = random_table_oracle(random.Random(1))
    assert a == b
    assert isinstance(a, TableOracle)


def test_unary_inputs():
    gen = unary_inputs("x", "y")
    assert gen(3) == {"x": "111", "y": "111"}
    assert gen(0) == {"x": "", "y": ""}


def test_sweep_reports_linear_growth_for_add():
    report = sweep(ADD, unary_inputs("x"), None, range(1, 33))
    assert report.max_lr == 0
    assert report.slope == pytest.approx(1.0, abs=0.15)
    for point in report.points:
        assert point.steps == 11 * point.scale + 4


def test_sweep_orders_scales():
    report = sweep(ADD, unary_inputs("x"), None, [8, 2, 4])
    assert [p.scale for p in report.points] == [2, 4, 8]


def test_sweep_serialization():
    report = sweep(ADD, unary_inputs("x"), None, [1, 2, 4])
    doc = report.to_json()
    assert len(doc["points"]) == 3
    tsv = report.to_tsv()
    assert len(tsv.strip().splitlines()) >= 3


def test_fit_loglog_slope_degenerate_cases():
    assert fit_loglog_slope([3, 3, 3], [10, 10, 10]) is None
    slope = fit_loglog_slope([2, 4, 8], [4, 16, 64])
    assert slope == pytest.approx(2.0, abs=1e-9)


def test_quadratic_program_has_slope_two():
    p = parse("""
    while (gt0(x)) {
      x := pred(x);
      z := y;
      while (gt0(z)) { z := pred(z); u := suc1(u) }
    }
    return u
    """)

    def gen(n):
        return {"x": "1" * n, "y": "1" * n}

    report = sweep(p, gen, None, [2 ** k for k in range(1, 7)])
    assert report.slope == pytest.approx(2.0, abs=0.25)


def test_noninterference_holds_for_add():
    report = noninterference_test(ADD, {"x": 1, "y": 0}, level=1, trials=200)
    assert report.ok
    assert report.trials == 200


def test_noninterference_detects_a_leak():
    # downward copy mislabelled as upward: the harness must catch it
    leak = parse("y := x return y")
    report = noninterference_test(leak, {"x": 0, "y": 1}, level=1, trials=50)
    assert not report.ok
    first = report.failures[0]
    assert first.variable == "y"
    assert first.first != first.second


def test_noninterference_uses_one_oracle_for_both_runs():
    p = parse("y := phi(y | y) return y")
    # answer depends only on high input, so runs must agree
    report = noninterference_test(p, {"y": 1}, level=1, trials=100)
    assert report.ok


def test_negative_trial_count_is_rejected():
    with pytest.raises(ValueError, match="negative trial count -3"):
        noninterference_test(ADD, {"x": 1, "y": 0}, level=1, trials=-3)
    assert noninterference_test(ADD, {"x": 1, "y": 0}, level=1, trials=0).ok


def test_negative_fuel_is_rejected_by_sweeps_and_trials():
    with pytest.raises(ValueError, match="negative fuel"):
        sweep(ADD, unary_inputs("x"), None, [1, 2], fuel=-1)
    with pytest.raises(ValueError, match="negative fuel"):
        noninterference_test(ADD, {"x": 1, "y": 0}, level=1, trials=1, fuel=-1)


def test_noninterference_report_json():
    doc = noninterference_test(ADD, {"x": 1, "y": 0}, 1, trials=10).to_json()
    assert doc["ok"] is True and doc["trials"] == 10


def test_slope_tolerates_constant_programs():
    p = parse("x := 1 return x")
    report = sweep(p, unary_inputs("y"), None, [1, 2, 4, 8])
    assert report.slope is None or report.slope == pytest.approx(0.0, abs=0.3)


def test_a_flat_series_has_slope_plus_zero():
    # Fitted as it stands, this series rounds to a slope of about -5e-32.
    slope = fit_loglog_slope([2, 4, 8], [18, 18, 18])
    assert slope == 0.0 and math.copysign(1.0, slope) == 1.0
