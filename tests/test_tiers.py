"""Derivation construction, verification and safety audits."""

import dataclasses
import itertools

import pytest
from hypothesis import given

from tierlang.bruteforce import typing_table
from tierlang.operators import Positive, builtin_registry
from tierlang.syntax import parse, variables_of
from tierlang.tiers import (
    Derivation,
    DerivationError,
    TypedTriple,
    admissible_op_type,
    audit_derivation,
    check,
    check_any,
    verify_derivation,
)

from .strategies import programs


ADD = parse("while (gt0(x)) { x := pred(x); y := suc1(y) } return y")


def test_check_accepts_known_typing():
    d = check(ADD, {"x": 1, "y": 0}, (1, 1, 0))
    assert d is not None
    assert d.triple == TypedTriple(1, 1, 0)
    verify_derivation(d, {"x": 1, "y": 0})


def test_check_rejects_wrong_typing():
    assert check(ADD, {"x": 0, "y": 0}, (1, 1, 0)) is None
    assert check(ADD, {"x": 1, "y": 1}, (1, 1, 0)) is None


def test_check_accepts_lifted_typing():
    # the same program types one tier up with everything shifted
    d = check(ADD, {"x": 2, "y": 0}, (2, 2, 0))
    assert d is not None
    verify_derivation(d, {"x": 2, "y": 0})


def test_check_any_finds_a_triple():
    found = check_any(ADD, {"x": 1, "y": 0})
    assert found is not None
    triple, derivation = found
    assert triple == (1, 1, 0)
    assert derivation.rule in {"while", "while-zero", "lift"}


def test_check_any_gives_up_on_bad_gamma():
    assert check_any(ADD, {"x": 0, "y": 1}) is None


def _tamper(d: Derivation) -> Derivation:
    bumped = TypedTriple(d.triple.tier + 1, d.triple.inner, d.triple.outer)
    return dataclasses.replace(d, triple=bumped)


def test_verify_rejects_tampered_root():
    d = check(ADD, {"x": 1, "y": 0}, (1, 1, 0))
    with pytest.raises(DerivationError):
        verify_derivation(_tamper(d), {"x": 1, "y": 0})


def test_verify_rejects_tampered_leaf():
    d = check(ADD, {"x": 1, "y": 0}, (1, 1, 0))

    def deep_tamper(node: Derivation) -> Derivation:
        if not node.children:
            return _tamper(node)
        kids = (deep_tamper(node.children[0]),) + node.children[1:]
        return dataclasses.replace(node, children=kids)

    with pytest.raises(DerivationError):
        verify_derivation(deep_tamper(d), {"x": 1, "y": 0})


def test_verify_rejects_mislabelled_rule():
    d = check(ADD, {"x": 1, "y": 0}, (1, 1, 0))
    with pytest.raises(DerivationError):
        verify_derivation(dataclasses.replace(d, rule="skip"),
                          {"x": 1, "y": 0})


def test_audits_pass_on_corpus_trees(corpus):
    for entry in corpus.values():
        if not entry.typable:
            continue
        p = entry.program()
        d = check(p, entry.gamma, entry.triple, t_max=entry.t_max)
        assert d is not None, entry.name
        report = audit_derivation(d, entry.gamma)
        assert report.ok, (entry.name, report.violations)


def test_audit_flags_read_below_write():
    # y at tier 1 copied from x at tier 0: a write-up violation by hand
    p = parse("y := x return y")
    expr = Derivation("var", p.body.value, TypedTriple(0, 1, 0))
    root = Derivation("assign", p.body, TypedTriple(0, 1, 0), (expr,))
    report = audit_derivation(root, {"x": 0, "y": 1})
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "write-up" in kinds or "read-down" in kinds


def test_lift_nodes_step_by_exactly_one():
    d = check(ADD, {"x": 2, "y": 0}, (2, 2, 0), t_max=3)
    lifts = [n for n in d.walk() if n.rule == "lift"]
    for node in lifts:
        child = node.children[0]
        assert node.triple.tier == child.triple.tier + 1


def test_walk_is_preorder():
    def preorder(d):
        yield d
        for kid in d.children:
            yield from preorder(kid)

    d = check(ADD, {"x": 2, "y": 0}, (3, 2, 0), t_max=3)
    assert list(map(id, d.walk())) == list(map(id, preorder(d)))


def test_long_lift_chains_verify_and_audit():
    # Tier 3000 is reached by 3000 lift steps over one skip; verify and
    # audit walk the chain without the Python stack.
    d = check(parse("skip return x"), {"x": 0}, (3000, 0, 0))
    assert d is not None
    assert sum(1 for _ in d.walk()) == 3001
    assert audit_derivation(d, {"x": 0}).ok


def test_admissible_op_type_neutral_unary():
    reg = builtin_registry()
    pred = reg.lookup("pred")
    assert admissible_op_type(pred, (2,), 2, inner=2)
    assert admissible_op_type(pred, (2,), 0, inner=2)
    assert not admissible_op_type(pred, (2,), 2, inner=1)  # arg above channel
    assert not admissible_op_type(pred, (1,), 2, inner=2)  # result above arg


def test_admissible_op_type_positive_needs_slack():
    reg = builtin_registry()
    suc = reg.lookup("suc1")
    assert isinstance(suc.classification, Positive)
    assert admissible_op_type(suc, (1,), 0, inner=2)
    assert not admissible_op_type(suc, (2,), 2, inner=2)  # no room to grow


def test_check_matches_exhaustive_table():
    # solver-backed check vs direct rule search, every (gamma, triple), cap 2
    sources = [
        "while (gt0(x)) { x := pred(x); y := suc1(y) } return y",
        "if (gt0(x)) { y := suc1(x) } else { y := x } return y",
        "x := y; while (gt0(y)) { y := pred(y) } return x",
        "while (gt0(x)) { while (gt0(y)) { y := pred(y) } ; x := pred(x) } return x",
    ]
    cap = 2
    for src in sources:
        p = parse(src)
        names = sorted(variables_of(p))
        table = typing_table(p, cap)
        for tiers in itertools.product(range(cap + 1), repeat=len(names)):
            gamma = dict(zip(names, tiers))
            for triple in itertools.product(range(cap + 1), repeat=3):
                expected = (tuple(sorted(gamma.items())), triple) in table
                got = check(p, gamma, triple, t_max=cap) is not None
                assert got == expected, (src, gamma, triple)


def test_oracle_side_condition_enforced():
    p = parse("y := phi(x | z) return y")
    # oracle data must sit strictly below the inner channel
    assert check(p, {"x": 0, "y": 0, "z": 0}, (0, 0, 0)) is None
    assert check(p, {"x": 0, "y": 0, "z": 0}, (0, 1, 0)) is not None


@given(programs(allow_oracle=True))
def test_check_matches_exhaustive_table_on_random_programs(p):
    # every rule shape, oracle calls included: each (gamma, triple) at cap 1,
    # and each derivation found passes the audit
    cap = 1
    names = sorted(variables_of(p))
    table = typing_table(p, cap)
    for tiers in itertools.product(range(cap + 1), repeat=len(names)):
        gamma = dict(zip(names, tiers))
        for triple in itertools.product(range(cap + 1), repeat=3):
            d = check(p, gamma, triple, t_max=cap)
            expected = (tuple(sorted(gamma.items())), triple) in table
            assert (d is not None) == expected, (gamma, triple)
            if d is not None:
                report = audit_derivation(d, gamma)
                assert report.ok, report.violations
