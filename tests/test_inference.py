"""Constraint generator, least-tiers solver and 2-SAT export tests.

`least_tiers` (longest paths over difference constraints) is cross-checked
against the clause pipeline, `decode(solve_2sat(encode(...)))`, on random
programs with random caps and pins, and `typable` against the clause
pipeline's verdict.  The clauses are expanded from the same constraint
graph the solver uses, so the pipeline checks the solving, not the rules.
`solve_2sat`, a greatest-model solver for implicational 2-CNF that shares
no code with `least_tiers`, is itself cross-checked against exhaustive
assignment search on small random implicational instances.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tierlang import inference
from tierlang.inference import (
    ClauseSet,
    decode,
    encode,
    infer,
    least_tiers,
    solve_2sat,
    to_dimacs,
    typable,
)
from tierlang.syntax import parse, program_size, variables_of
from tierlang.tiers import check

from .strategies import programs


def brute_sat(clause_set: ClauseSet):
    n = clause_set.num_vars
    for bits in itertools.product([False, True], repeat=n):
        model = list(bits)
        if all(
            any(model[abs(l) - 1] == (l > 0) for l in clause)
            for clause in clause_set.clauses
        ):
            yield model


def random_instance(rng) -> ClauseSet:
    """Implications between variables (mixed-sign pairs) and unit clauses,
    the only instances `solve_2sat` accepts."""
    n = rng.randint(1, 8)
    cs = ClauseSet(num_vars=n)
    for _ in range(rng.randint(0, 14)):
        if rng.random() < 0.8:
            cs.add(rng.randint(1, n), -rng.randint(1, n))
        else:
            cs.add(rng.choice([1, -1]) * rng.randint(1, n))
    return cs


def test_solver_agrees_with_exhaustive_search():
    rng = random.Random(7)
    for trial in range(300):
        cs = random_instance(rng)
        models = list(brute_sat(cs))
        got = solve_2sat(cs)
        if not models:
            assert got is None, f"trial {trial}: solver found a bogus model"
        else:
            assert got is not None, f"trial {trial}: solver missed all models"
            assert got in models
            assert all(
                g or not m for model in models for m, g in zip(model, got)
            ), f"trial {trial}: a model sets a bit the solver left false"


def test_same_sign_binary_clause_is_rejected():
    for clause in [(1, 2), (-1, -2), (1, 1)]:
        cs = ClauseSet(num_vars=2)
        cs.add(1, -2)
        cs.add(*clause)
        with pytest.raises(ValueError, match="not an implication"):
            solve_2sat(cs)


def test_implicational_instances_get_the_greatest_model():
    rng = random.Random(9)
    checked = 0
    for _ in range(300):
        cs = random_instance(rng)
        got = solve_2sat(cs)
        if got is None:
            continue
        for model in brute_sat(cs):
            assert all(not m or g for m, g in zip(model, got))
        checked += 1
    assert checked > 50


def test_unit_conflict_is_unsat():
    cs = ClauseSet(num_vars=1)
    cs.add(1)
    cs.add(-1)
    assert solve_2sat(cs) is None


def test_empty_instance_is_sat():
    assert solve_2sat(ClauseSet(num_vars=3)) == [True, True, True]


ADD_SRC = """
while (gt0(x)) { x := pred(x); y := suc1(y) }
return y
"""

BLOWUP_SRC = """
while (gt0(x)) { x := pred(x); y := suc1(suc1(y)); x := maxlen(x, y) }
return y
"""


def test_add_infers_minimal_typing():
    result = infer(parse(ADD_SRC))
    assert result is not None
    assert result.gamma == {"x": 1, "y": 0}
    assert result.triple == (1, 1, 0)
    assert result.outer_zero


def test_growing_loop_is_untypable():
    p = parse(BLOWUP_SRC)
    assert infer(p) is None
    assert not typable(p)


def test_corpus_verdicts_and_typings(corpus):
    for entry in corpus.values():
        result = infer(entry.program(), t_max=entry.t_max)
        if entry.typable:
            assert result is not None, entry.name
            assert result.gamma == entry.gamma, entry.name
            assert result.triple == entry.triple, entry.name
        else:
            assert result is None, entry.name


def test_tier_budget_can_squeeze_out_typings(corpus):
    p = corpus["three_tiers"].program()
    assert infer(p, t_max=2) is not None
    assert infer(p, t_max=1) is None
    assert typable(p, t_max=2) and not typable(p, t_max=1)


def test_shared_bound_needs_open_outer_channel(corpus):
    result = infer(corpus["shared_bound"].program())
    assert result is not None
    assert not result.outer_zero
    assert result.triple[2] >= 1


def test_pinned_gamma_changes_the_verdict():
    p = parse(ADD_SRC)
    enc = encode(p, gamma={"x": 1, "y": 0}, triple=(1, 1, 0))
    assert solve_2sat(enc.clause_set) is not None
    enc = encode(p, gamma={"x": 0, "y": 0}, triple=(1, 1, 0))
    assert solve_2sat(enc.clause_set) is None


def test_negative_gamma_tiers_are_rejected():
    p = parse(ADD_SRC)
    gamma = {"x": -1, "y": 0}
    with pytest.raises(ValueError, match="negative tier"):
        encode(p, gamma=gamma)
    with pytest.raises(ValueError, match="negative tier"):
        least_tiers(p, gamma=gamma)
    with pytest.raises(ValueError, match="negative tier"):
        check(p, gamma, (1, 1, 0))


def test_negative_tier_cap_is_rejected():
    p = parse(ADD_SRC)
    with pytest.raises(ValueError, match="negative tier cap"):
        encode(p, t_max=-1)
    with pytest.raises(ValueError, match="negative tier cap"):
        infer(p, t_max=-1)
    with pytest.raises(ValueError, match="negative tier cap"):
        typable(p, t_max=-1)


def test_decode_reports_node_and_var_tiers():
    p = parse(ADD_SRC)
    enc = encode(p)
    model = solve_2sat(enc.clause_set)
    sol = decode(enc, model)
    assert sol.var_tiers == {"x": 1, "y": 0}
    assert sol.triple == (1, 1, 0)
    assert sol.root_tier == 1  # the root command's record


def test_infer_result_json_shape():
    doc = infer(parse(ADD_SRC)).to_json()
    assert doc["typable"] is True
    assert doc["gamma"] == {"x": 1, "y": 0}
    assert doc["triple"] == [1, 1, 0]


def test_dimacs_header_matches_instance():
    enc = encode(parse(ADD_SRC))
    text = to_dimacs(enc)
    lines = text.splitlines()
    header = next(l for l in lines if l.startswith("p cnf"))
    _, _, nvars, nclauses = header.split()
    assert int(nvars) == enc.clause_set.num_vars
    body = [l for l in lines if l and not l.startswith(("c", "p"))]
    assert len(body) == int(nclauses) == len(enc.clause_set.clauses)
    assert all(l.endswith(" 0") for l in body)


def test_strict_and_plain_edges_to_one_record_both_expand():
    # In a sealed loop's body the loop record is both channels, so the
    # oracle call gets a strict edge (inner) and a plain one (outer) to it.
    enc = encode(parse("while (gt0(x)) { y := phi(x | y) } return y"), t_max=1)
    names = enc.record_names
    loop, call = names.index("while at root"), names.index("oracle at body/value")
    bit, clauses = enc.bit, enc.clause_set.clauses
    assert clauses.count((-bit(loop, 1), bit(call, 0))) == 1  # strict
    assert clauses.count((-bit(loop, 0), bit(call, 0))) == 1  # plain
    assert clauses.count((-bit(loop, 1), bit(call, 1))) == 1  # plain


@pytest.mark.parametrize("outer_zero", [True, False])
def test_legend_names_records_by_variable_rule_and_path(outer_zero):
    # Both loop rules are named `while`; the top-level loop here is sealed
    # only in the outer-zero mode.
    p = parse("x := phi(x | y); if (gt0(y)) { skip } else"
              " { while (gt0(x)) { x := pred(x) } } return y")
    assert encode(p, outer_zero=outer_zero).record_names == [
        "var x", "var y", "root inner channel", "root outer channel",
        "seq at root", "assign x at first", "oracle at first/value", "if at rest",
        "op gt0 at rest/guard", "skip at rest/then", "while at rest/else",
        "op gt0 at rest/else/guard", "assign x at rest/else/body",
        "op pred at rest/else/body/value",
    ]


def test_clause_growth_is_quadratic_at_worst(corpus):
    # clause count stays within 50 * n^2 * t_max across the whole corpus
    for entry in corpus.values():
        p = entry.program()
        enc = encode(p, t_max=entry.t_max)
        n = program_size(p)
        t = entry.t_max if entry.t_max is not None else n
        assert len(enc.clause_set.clauses) <= 50 * n * n * t, entry.name


def clause_pipeline(p, **knobs):
    enc = encode(p, **knobs)
    model = solve_2sat(enc.clause_set)
    return None if model is None else decode(enc, model)


@given(programs(allow_oracle=True))
@settings(max_examples=120)
def test_fast_verdict_matches_clause_pipeline(p):
    expected = any(
        clause_pipeline(p, outer_zero=outer_zero) is not None
        for outer_zero in (True, False)
    )
    assert typable(p) == expected


tiers_drawn = st.integers(0, 4)


@given(programs(allow_oracle=True), st.data())
@settings(max_examples=200)
def test_least_tiers_matches_clause_pipeline(p, data):
    # Pins are drawn blind, so many are too low or contradict each other
    # and exercise the rejection paths.
    t_max = data.draw(st.none() | tiers_drawn, label="t_max")
    gamma = data.draw(
        st.dictionaries(st.sampled_from(variables_of(p)), tiers_drawn),
        label="gamma",
    )
    triple = data.draw(
        st.none() | st.tuples(tiers_drawn, tiers_drawn, tiers_drawn),
        label="triple",
    )
    for outer_zero in (True, False):
        knobs = dict(t_max=t_max, gamma=gamma, triple=triple, outer_zero=outer_zero)
        assert least_tiers(p, **knobs) == clause_pipeline(p, **knobs)


def test_reported_sizes_match_the_threshold_instance(corpus):
    for entry in corpus.values():
        p = entry.program()
        for outer_zero in (True, False):
            graph, _, _ = inference._constraints(
                p, t_max=entry.t_max, registry=None, gamma=None, triple=None,
                outer_zero=outer_zero,
            )
            enc = encode(p, t_max=entry.t_max, outer_zero=outer_zero)
            assert graph.clause_count == len(enc.clause_set), entry.name
            assert graph.num_bool_vars == enc.clause_set.num_vars, entry.name
        result = infer(p, t_max=entry.t_max)
        if result is not None:
            enc = encode(p, t_max=entry.t_max, outer_zero=result.outer_zero)
            assert result.clause_count == len(enc.clause_set), entry.name
            assert result.num_bool_vars == enc.clause_set.num_vars, entry.name


def test_inference_scales_down_with_explicit_t_max():
    p = parse(ADD_SRC)
    small = infer(p, t_max=2)
    assert small is not None and small.gamma == {"x": 1, "y": 0}
