"""The compiled interpreter against the slow reference tree walker.

Both must agree on everything a run exposes: the value, the final
bindings, the step total, the query trace and m, or the type and message
of the exception raised, at every fuel limit up to one past the step
total.
"""

import random

from hypothesis import given, strategies as st

from tierlang.analysis import random_table_oracle
from tierlang.semantics import FuelExhausted, PaddedOracle, TableOracle, run_program
from tierlang.syntax import has_oracle_call, variables_of

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


def _outcome(run, p, inputs, oracle, fuel):
    try:
        r = run(p, inputs, oracle, fuel)
    except Exception as exc:
        return type(exc), str(exc)
    t = r.trace
    return r.value, r.store.bindings(), t.steps, t.queries, t.m


def _assert_agree(p, inputs, oracle):
    for fuel in range(CAP + 1):
        expect = _outcome(reference_run, p, inputs, oracle, fuel)
        assert _outcome(run_program, p, inputs, oracle, fuel) == expect, fuel
        if expect[0] is not FuelExhausted:
            # The run ended within `fuel` steps: one more step of fuel,
            # or no limit at all, changes nothing.
            for more in (fuel + 1, None):
                assert _outcome(reference_run, p, inputs, oracle, more) == expect
                assert _outcome(run_program, p, inputs, oracle, more) == expect
            return


@given(programs(), inputs)
def test_compiled_matches_reference(p, inputs):
    _assert_agree(p, inputs, None)


@given(programs(allow_oracle=True), inputs, oracles)
def test_compiled_matches_reference_with_oracle(p, inputs, oracle):
    _assert_agree(p, inputs, oracle)


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
