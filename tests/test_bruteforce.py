"""Rule-by-rule reference checker, program enumerator, and the vectorized
typability engine, cross-checked against each other and the solver."""

import itertools
import random

import pytest

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
    Assign,
    If,
    OpApp,
    OracleCall,
    Seq,
    Var,
    While,
    parse,
    pretty,
    program_size,
    variables_of,
)

from . import reference_family

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


def test_typable_bounded_agrees_with_typing_table():
    for p in enumerate_family(6):
        for cap in (1, 2):
            assert typable_bounded(p, cap) == bool(typing_table(p, cap)), pretty(p)


def test_family_counts_are_stable():
    # canonical-form counts; a change here means the enumerator moved
    assert [len(enumerate_family(s)) for s in range(2, 9)] == \
        [1, 1, 5, 15, 60, 233, 955]


@pytest.mark.parametrize("size, stock, count", [
    (10, {}, 17208),
    (9, {"var_names": ("x", "y"), "op_names": ("pred", "eps", "lmin")}, 3128),
], ids=["default-stock", "nullary-and-binary"])
def test_family_matches_the_build_everything_reference(size, stock, count):
    # Same programs in the same order as building every candidate and
    # walking each one with `variables_of`.
    family = enumerate_family(size, **stock)
    reference = reference_family.enumerate_family(size, **stock)
    assert len(family) == len(reference) == count
    for i, (p, q) in enumerate(zip(family, reference)):
        assert p == q, (i, pretty(p), pretty(q))


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


@pytest.mark.parametrize("cap, per_kind", [(2, 20), (3, 10)], ids=["cap2", "cap3"])
def test_bulk_engine_matches_reference_pointwise(cap, per_kind):
    import numpy as np

    # A seeded sample from the size-9 family with every root rule in it.
    rng = random.Random(3)
    by_root: dict[type, list] = {}
    for p in enumerate_family(9):
        by_root.setdefault(type(p.body), []).append(p)
    assert {Assign, Seq, If, While} <= by_root.keys()
    sample = [p for kind in (Assign, Seq, If, While)
              for p in rng.sample(by_root[kind], per_kind)]
    engine = BulkTyping(cap)
    n = len(engine.vars)
    shape = (cap + 1,) * (n + 3)
    tiers = range(cap + 1)
    for p in sample:
        mask = np.broadcast_to(engine.cmd_mask(p.body), shape)
        for env in itertools.product(tiers, repeat=n):
            gamma = dict(zip(engine.vars, env))
            memo: dict = {}
            expr_memo: dict = {}
            for triple in itertools.product(tiers, repeat=3):
                want = derivable(p.body, gamma, *triple, REG, memo, expr_memo)
                assert bool(mask[env + triple]) == want, (pretty(p), env, triple)


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
