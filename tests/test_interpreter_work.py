"""The interpreter's work per step, counted, not timed.

`work_counter.trace_events` counts the line and call events of the
package and of a program's generated code during one run.  Per
interpreter step that count must stay level as the input grows, and a
compound command compiled into a function of its own must cost the same
per step however many other variables the program names.  The counter
does not see work done in C: the copy of a whole word that `pred` or
`suc1` makes on a word not held in place, and the passing of arguments
to a generated function.  The second is pinned here by the generated
functions' parameter counts, and the first by the time of `add` on long
words, which must grow with its steps.  `work_counter.package_calls`
pins the Python calls that a query and a run's input bindings make.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from tierlang import semantics
from tierlang.semantics import TableOracle, run_program
from tierlang.syntax import parse

from .work_counter import package_calls, trace_events

SIZES = (256, 512, 1024, 2048)


def events_and_steps(p, inputs) -> tuple[int, int]:
    steps = run_program(p, inputs).trace.steps  # compiles outside the count
    return trace_events(run_program, p, inputs), steps


@pytest.mark.parametrize("name,inputs", [
    ("add", lambda n: {"x": "1" * n}),
    ("nested_copy", lambda n: {"x": "1" * n, "y": "1" * 8}),
], ids=["add", "nested_copy"])
def test_events_per_step_stay_level(name, inputs, corpus):
    p = corpus[name].program()
    per_step = [events / steps for events, steps in
                (events_and_steps(p, inputs(n)) for n in SIZES)]
    assert all(abs(r / per_step[0] - 1) <= 0.05 for r in per_step), per_step
    # Reading and writing the store's dict at every step cost about one
    # event per step; variables held in locals cost about three quarters.
    assert per_step[0] < 0.8, per_step


def deep_loop(unrelated: int) -> str:
    """A loop whose body nests ifs past `_LEVELS`, after assignments to
    ``unrelated`` variables that the loop never names."""
    prefix = "".join(f"u{i} := 1; " for i in range(unrelated))
    depth = semantics._LEVELS + 2
    return (prefix + "while (gt0(x)) { x := pred(x); " + "if (gt0(x)) { " * depth
            + "y := suc1(y)" + " } else { skip }" * depth + " } return y")


def test_a_deep_nest_costs_the_same_beside_unrelated_variables():
    def per_extra_step(p) -> float:
        (e1, s1), (e2, s2) = (events_and_steps(p, {"x": "1" * n}) for n in SIZES[:2])
        return (e2 - e1) / (s2 - s1)

    alone, beside = parse(deep_loop(0)), parse(deep_loop(200))
    assert run_program(beside, {"x": "11"}).value == "1"
    assert per_extra_step(beside) == per_extra_step(alone)
    # The loop calls a generated function at every iteration; it takes
    # the step count, fuel, oracle and query log, and the local and flag
    # of x and y, but nothing of the unrelated variables.
    compiled = beside.__dict__[semantics._COMPILED][1]
    inner = [fn for name, fn in compiled.__globals__.items()
             if name.startswith("f") and callable(fn)]
    assert inner and all(fn.__code__.co_argcount == 4 + 2 * 2 for fn in inner)


def test_a_query_on_a_table_miss_makes_one_call():
    # The generated code builds and checks the query in line; only the
    # oracle's own `answer` runs in the package, and answers a miss by
    # its default rule in the same frame.
    oracle = TableOracle((("0", "1"),), ("echo-length", None))
    asking, not_asking = parse("y := phi(x | x) return y"), parse("y := x return y")
    inputs = {"x": "11"}
    assert run_program(asking, inputs, oracle).trace.queries == [("111", "111")]
    run_program(not_asking, inputs, oracle)  # both compile outside the count
    calls = package_calls(run_program, asking, inputs, oracle)
    calls.subtract(package_calls(run_program, not_asking, inputs, oracle))
    assert +calls == Counter({"TableOracle.answer": 1})


def test_a_run_makes_as_many_calls_with_one_input_as_with_fifty():
    p = parse("y := suc1(x) return y")
    one = {"x": "1"}
    fifty = {"x": "1", **{f"u{i}": "01" for i in range(49)}}
    run_program(p, one)
    assert package_calls(run_program, p, fifty) == package_calls(run_program, p, one)


# The lengths of x at which `add` is timed, 4x apart, and the bound on the
# ratio of their times.  Steps grow 4x; a run that copies its words at
# every step takes about 16x as long.
ADD_LENGTHS = (50_000, 200_000)
ADD_TIME_RATIO = 6


def test_add_time_follows_its_steps_on_long_words(corpus):
    p = corpus["add"].program()

    def best_of_three(n: int) -> float:
        inputs = {"x": "1" * n}
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run_program(p, inputs)
            times.append(time.perf_counter() - start)
        return min(times)

    short, long = (best_of_three(n) for n in ADD_LENGTHS)
    assert long / short < ADD_TIME_RATIO, (short, long)
