"""Rule-by-rule reference checker, program enumerator, and the vectorized
typability engine, cross-checked against each other and the solver."""

import itertools
import random

from tierlang.bruteforce import (
    derivable,
    enumerate_family,
    expr_tiers,
    program_derivable,
    typable_bounded,
    typing_table,
)
from tierlang.bulkcheck import BulkTyping
from tierlang.inference import typable
from tierlang.operators import builtin_registry
from tierlang.syntax import (
    OpApp,
    OracleCall,
    Var,
    parse,
    pretty,
    program_size,
    variables_of,
)

REG = builtin_registry()


def test_expr_tiers_var_is_its_gamma_tier():
    assert expr_tiers(Var("x"), {"x": 2}, inner=3, outer=0,
                      registry=REG) == frozenset({2})


def test_expr_tiers_neutral_op_descends():
    e = OpApp("pred", (Var("x"),))
    assert expr_tiers(e, {"x": 2}, inner=2, outer=0,
                      registry=REG) == frozenset({0, 1, 2})
    # argument above the inner channel shuts the operator off
    assert expr_tiers(e, {"x": 3}, inner=2, outer=0, registry=REG) == frozenset()


def test_expr_tiers_positive_op_stays_below_channel():
    e = OpApp("suc1", (Var("x"),))
    assert expr_tiers(e, {"x": 2}, inner=2, outer=0, registry=REG) == \
        frozenset({0, 1})


def test_expr_tiers_oracle_needs_matching_bound():
    e = OracleCall(Var("x"), Var("b"))
    # bound tier must equal the outer channel, data strictly below inner
    assert expr_tiers(e, {"x": 0, "b": 1}, inner=1, outer=1,
                      registry=REG) == frozenset({0})
    assert expr_tiers(e, {"x": 0, "b": 0}, inner=1, outer=1,
                      registry=REG) == frozenset()


def test_derivable_add_reference_points():
    body = parse("while (gt0(x)) { x := pred(x); y := suc1(y) } return y").body
    assert derivable(body, {"x": 1, "y": 0}, 1, 1, 0, REG)
    assert not derivable(body, {"x": 0, "y": 0}, 1, 1, 0, REG)
    assert not derivable(body, {"x": 1, "y": 1}, 1, 1, 0, REG)


def test_program_derivable_takes_a_triple():
    p = parse("while (gt0(x)) { x := pred(x); y := suc1(y) } return y")
    assert program_derivable(p, {"x": 1, "y": 0}, (1, 1, 0))
    assert not program_derivable(p, {"x": 0, "y": 0}, (1, 1, 0))


def test_typable_bounded_matches_solver_on_family():
    for p in enumerate_family(7):
        cap = program_size(p)
        assert typable_bounded(p, cap) == typable(p), pretty(p)


def test_family_counts_are_stable():
    # canonical-form counts; a change here means the enumerator moved
    assert [len(enumerate_family(s)) for s in range(2, 9)] == \
        [1, 1, 5, 15, 60, 233, 955]


def test_family_members_are_canonical():
    stock = ("x", "y", "z")
    seen = set()
    for p in enumerate_family(8):
        assert program_size(p) <= 8
        assert p.return_var == "x"
        used = tuple(dict.fromkeys(n for n in variables_of(p)))
        assert used == stock[:len(used)]
        assert p not in seen
        seen.add(p)


def test_bulk_engine_matches_reference_pointwise():
    import numpy as np

    rng = random.Random(3)
    sample = rng.sample(enumerate_family(8), 40)
    cap = 2
    engine = BulkTyping(cap)
    shape = tuple([cap + 1] * (len(engine.vars) + 3))
    for p in sample:
        mask = np.broadcast_to(engine.cmd_mask(p.body), shape)
        for idx in itertools.product(range(cap + 1), repeat=len(shape)):
            gamma = dict(zip(engine.vars, idx))
            t, i, o = idx[-3], idx[-2], idx[-1]
            want = derivable(p.body, gamma, t, i, o, REG)
            assert bool(mask[idx]) == want, (pretty(p), idx)


def test_typing_table_lists_every_success():
    p = parse("x := suc1(y) return x")
    table = typing_table(p, cap=1)
    for gx, gy in itertools.product(range(2), repeat=2):
        for triple in itertools.product(range(2), repeat=3):
            gamma = (("x", gx), ("y", gy))
            expected = derivable(p.body, dict(gamma), *triple, REG)
            assert ((gamma, triple) in table) == expected


def test_bulk_memo_outlives_the_programs_it_typed():
    # The engine memoizes by node identity.  Programs are parsed afresh and
    # dropped each round, so a memo entry that did not keep its node alive
    # could be hit by an unrelated node that reuses the address.
    loop = "while (gt0(x)) { x := pred(x); y := suc1(y) }"
    spin = "while (gt0(x)) { x := pred(x); x := suc1(x) }"
    add = f"{loop} return y"
    engine = BulkTyping(2)
    for i in range(200):
        variant = f"{loop}; {'x := suc1(x); ' * (i % 7)}{spin} return y"
        assert engine.typable(parse(add)), i
        assert not engine.typable(parse(variant)), i
    assert typable(parse(add), t_max=2)
    assert not typable(parse(variant), t_max=2)
