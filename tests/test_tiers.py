"""Derivation construction, verification and safety audits."""

import copy
import dataclasses
import itertools
import sys
import time

import pytest
from hypothesis import given

from tierlang.bruteforce import typing_table
from tierlang.inference import infer
from tierlang.operators import Positive, builtin_registry
from tierlang.semantics import OracleRequired, run_program
from tierlang.syntax import (
    Assign,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
    parse,
    pretty,
    program_to_json,
    variables_of,
)
from tierlang.tiers import (
    AuditViolation,
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


# Every node of this derivation is judged at (0, 0, 0) under x and y at
# tier 0, so premises can be swapped without breaking a tier condition.
FORGE = "if (eq(x, y)) { x := pred(x); y := x } else { skip } return y"
ZERO = TypedTriple(0, 0, 0)


def _swap_in(d: Derivation, old: Derivation, new: Derivation) -> Derivation:
    if d is old:
        return new
    return dataclasses.replace(d, children=tuple(_swap_in(k, old, new)
                                                 for k in d.children))


def _edit_premises(rule, edit):
    """FORGE's derivation with the premises of its first `rule` node edited."""
    d = check(parse(FORGE), {"x": 0, "y": 0}, ZERO)
    node = next(n for n in d.walk() if n.rule == rule)
    return _swap_in(d, node, dataclasses.replace(node, children=edit(node.children)))


def _equal_copy(kids):
    # The first argument judged on a copy of the variable, not the variable.
    copied = copy.deepcopy(kids[0].subject)
    assert copied == kids[0].subject and copied is not kids[0].subject
    return (dataclasses.replace(kids[0], subject=copied),) + kids[1:]


X0 = Var("x")


@pytest.mark.parametrize("forge", [
    lambda: _edit_premises("seq", lambda kids: kids[::-1]),
    lambda: _edit_premises("if", lambda kids: (kids[0], kids[2], kids[1])),
    lambda: _edit_premises("op", lambda kids: kids[::-1]),
    lambda: _edit_premises("seq", lambda kids: kids[:1]),
    lambda: _edit_premises("seq", lambda kids: kids + kids[1:]),
    lambda: _edit_premises("op", _equal_copy),
    lambda: _edit_premises("op", lambda kids: (
        dataclasses.replace(kids[0], triple=TypedTriple(0, 1, 0)),) + kids[1:]),
    lambda: Derivation("lift", X0, TypedTriple(1, 0, 0), (Derivation("var", X0, ZERO),)),
    lambda: Derivation("skip", X0, ZERO),
    lambda: Derivation("frob", Skip(), ZERO),
], ids=["seq-swapped", "branches-swapped", "arguments-swapped", "premise-dropped",
        "premise-added", "equal-copy", "channels-differ", "lifted-expression",
        "wrong-class", "unknown-rule"])
def test_verify_rejects_structural_forgeries(forge):
    with pytest.raises(DerivationError):
        verify_derivation(forge(), {"x": 0, "y": 0})


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
    assert report.violations == (
        AuditViolation("write-up", "assign y := x", "assigns y at tier 1 from tier 0"),
    )


def _unary(expr, triple):
    # a unary operator over one variable, e.g. gt0(x)
    return Derivation("op", expr, triple, (Derivation("var", expr.args[0], triple),))


def _loop(body_rule, body_triple, *, rule="while"):
    # while (gt0(x)) { skip } at (1, 1, 1), its body judged as given
    w = parse("while (gt0(x)) { skip } return x").body
    body = Derivation(body_rule, w.body, body_triple)
    return Derivation(rule, w, TypedTriple(1, 1, 1),
                      (_unary(w.guard, TypedTriple(1, 1, 1)), body))


def _read_down():
    p = parse("y := x return y")
    var = Derivation("var", p.body.value, TypedTriple(1, 1, 0))
    return Derivation("assign", p.body, TypedTriple(0, 1, 0), (var,))


def _shrink():
    seq = parse("skip; skip return x").body
    return Derivation("seq", seq, TypedTriple(0, 0, 0), (
        Derivation("skip", seq.first, TypedTriple(1, 0, 0)),
        Derivation("skip", seq.rest, TypedTriple(0, 0, 0)),
    ))


def _seal_inside_loop():
    outer = parse("while (gt0(x)) { while (gt0(x)) { skip } } return x").body
    inner = outer.body
    one = TypedTriple(1, 1, 1)
    inner_d = Derivation("while-zero", inner, one, (
        _unary(inner.guard, one), Derivation("skip", inner.body, one)))
    return Derivation("while", outer, one, (_unary(outer.guard, one), inner_d))


@pytest.mark.parametrize("forge, gamma, violation", [
    (_read_down, {"x": 0, "y": 0},
     ("read-down", "var x", "reads x at tier 0 from tier 1")),
    (_shrink, {"x": 0},
     ("shrink", "seq seq", "subcommand tier 1 above 0")),
    (lambda: _loop("skip", TypedTriple(1, 2, 1)), {"x": 1},
     ("inner-cap", "skip skip", "inner channel 2 above loop tier 1")),
    (lambda: _loop("skip", TypedTriple(1, 1, 0)), {"x": 1},
     ("outer-floor", "skip skip", "outer channel 0 below loop tier 1")),
    (_seal_inside_loop, {"x": 1},
     ("seal-placement", "while-zero while (gt0(x))", "sealing rule inside a loop")),
], ids=["read-down", "shrink", "inner-cap", "outer-floor", "seal-placement"])
def test_audit_flags_each_lemma(forge, gamma, violation):
    assert audit_derivation(forge(), gamma).violations == (AuditViolation(*violation),)


def test_messages_print_the_programs_oracle():
    p = parse("y := psi(x | z) return y")
    gamma = {"x": 0, "y": 0, "z": 0}
    d = check(p, gamma, (0, 1, 0))
    with pytest.raises(DerivationError, match=r"assign node for y := psi\(x \| z\)"):
        verify_derivation(_tamper(d), gamma)
    report = audit_derivation(d, {**gamma, "y": 1})
    assert [v.where for v in report.violations] == ["assign y := psi(x | z)"]


def test_a_built_call_prints_its_own_symbol():
    x, z = Var("x"), Var("z")
    p = Program(Assign("y", OracleCall(x, z, "psi")), "y")
    assert OracleCall(x, z, "psi") != OracleCall(x, z)
    assert pretty(p) == "y := psi(x | z)\nreturn y\n"
    assert p.oracle_name == program_to_json(p)["oracle"] == "psi"
    assert Program(Skip(), "y").oracle_name == "phi"
    gamma = {"x": 0, "y": 0, "z": 0}
    d = check(p, gamma, (0, 1, 0))
    assert [n.rule for n in d.walk()] == ["assign", "oracle", "var", "var"]
    tree = d.to_json()
    assert tree["subject"] == "y := psi(x | z)"
    assert tree["children"][0]["subject"] == "psi(x | z)"
    with pytest.raises(DerivationError, match=r"assign node for y := psi\(x \| z\)"):
        verify_derivation(_tamper(d), gamma)
    report = audit_derivation(d, {**gamma, "y": 1})
    assert [v.where for v in report.violations] == ["assign y := psi(x | z)"]
    with pytest.raises(OracleRequired, match="oracle 'psi'"):
        run_program(p, {"x": "1", "z": "1"})


def test_deep_derivations_compare_and_hash_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    a, b = (check(parse("skip return x"), {"x": 0}, (3000, 0, 0)) for _ in range(2))
    assert a.subject is not b.subject
    assert a == b and not a != b and hash(a) == hash(b)
    nodes = list(b.walk())
    assert len(nodes) == 3001
    changed = Derivation("skip", nodes[-1].subject, TypedTriple(0, 0, 1))
    for d in reversed(nodes[:-1]):
        changed = Derivation(d.rule, d.subject, d.triple, (changed,))
    assert a != changed and not a == changed
    one = TypedTriple(0, 0, 0)
    assert Derivation("var", Var("x"), one) == Derivation("var", Var("x"), one)
    assert Derivation("var", Var("x"), one) != Derivation("var", Var("y"), one)
    assert Derivation("skip", Skip(), one) != Derivation("skip", Skip(), one, (a,))


def test_derivations_of_separately_parsed_chains_compare_in_linear_time():
    assert sys.getrecursionlimit() <= 1000
    src = " ; ".join(["x := pred(x)"] * 800) + " return x"
    a, b = (infer(parse(src)).derivation for _ in range(2))
    assert a.subject is not b.subject
    start = time.perf_counter()
    assert a == b
    assert time.perf_counter() - start < 0.5
    c = infer(parse(src[:src.rindex("pred(x)")] + "pred(y) return x")).derivation
    # Only the last leaf's subject tells the two trees apart.
    assert [(d.rule, d.triple) for d in c.walk()] == [(d.rule, d.triple) for d in a.walk()]
    assert a != c and not a == c


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


# Scale trees are built with loops: `check` would recurse on them in `_rules`.
# Every node is judged at (1, 1, 1) under x at tier 1.
ONE = TypedTriple(1, 1, 1)
X = Var("x")


def _decrement():
    a = Assign("x", OpApp("pred", (X,)))
    return a, Derivation("assign", a, ONE, (_unary(a.value, ONE),))


def _while(body, body_d):
    w = While(OpApp("gt0", (X,)), body)
    return w, Derivation("while", w, ONE, (_unary(w.guard, ONE), body_d))


def _chain(n):
    # x := pred(x) alternating with while (gt0(x)) { x := pred(x) }
    cmd, d = _while(*_decrement())
    for i in range(n - 1):
        first, first_d = _while(*_decrement()) if i % 2 else _decrement()
        cmd = Seq(first, cmd)
        d = Derivation("seq", cmd, ONE, (first_d, d))
    return d


def _nest(depth):
    cmd, d = _decrement()
    for _ in range(depth):
        cmd, d = _while(cmd, d)
    return d


def _lifted_loop(k):
    # k - 1 lift steps over one loop, all with inner channel k: a lift step
    # is not strictly inside the lift steps above it
    d = check(parse("while (gt0(x)) { x := pred(x) } return x"), {"x": 1}, (k, k, 0))
    assert [n.rule for n in d.walk()][k - 2:k] == ["lift", "while-zero"]
    return d


@pytest.mark.parametrize("build", [
    lambda: _chain(10_000), lambda: _nest(2000),
    lambda: _lifted_loop(3000), lambda: _lifted_loop(20_000),
], ids=["chain-10000", "nest-2000", "lift-3000", "lift-20000"])
def test_audit_is_one_pass_at_the_default_recursion_limit(build):
    assert sys.getrecursionlimit() <= 1000
    d = build()
    verify_derivation(d, {"x": 1})
    start = time.perf_counter()
    report = audit_derivation(d, {"x": 1})
    assert time.perf_counter() - start < 0.5
    assert report.ok, report.violations[:3]


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
