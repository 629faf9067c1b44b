"""The one-pass audit against the slow reference audit, on forged trees.

Valid derivations are forged by editing a judgement's tier or channel, a
variable's tier in the environment, or by swapping a node's rule among
`while`, `while-zero` and `lift`.  Both audits must report the same
violations, compared as multisets: the one-pass audit lists them in node
preorder, the reference loop by loop.
"""

import dataclasses
import random
from collections import Counter

from hypothesis import assume, given, strategies as st

from tierlang.inference import infer
from tierlang.syntax import parse
from tierlang.tiers import Derivation, TypedTriple, audit_derivation, check

from .reference_audit import audit_derivation as reference_audit
from .strategies import programs

LOOP_RULES = ("while", "while-zero", "lift")
KINDS = {"read-down", "write-up", "shrink", "inner-cap", "outer-floor",
         "seal-placement"}


def _replace(d: Derivation, target: Derivation, new: Derivation) -> Derivation:
    """`d` with the node `target` (by identity) replaced by `new`."""
    if d is target:
        return new
    kids = tuple(_replace(kid, target, new) for kid in d.children)
    if all(a is b for a, b in zip(kids, d.children)):
        return d
    return dataclasses.replace(d, children=kids)


def _forge(d, gamma, edits):
    """Apply edits (kind, node index, slot, value) in turn."""
    gamma = dict(gamma)
    for kind, index, slot, value in edits:
        nodes = list(d.walk())
        node = nodes[index % len(nodes)]
        if kind == "tier":
            triple = list(node.triple)
            triple[slot % 3] = value
            edited = dataclasses.replace(node, triple=TypedTriple(*triple))
            d = _replace(d, node, edited)
        elif kind == "gamma" and gamma:
            gamma[sorted(gamma)[slot % len(gamma)]] = value
        elif kind == "rule":
            loops = [n for n in nodes if n.rule in LOOP_RULES]
            if loops:
                node = loops[index % len(loops)]
                others = [r for r in LOOP_RULES if r != node.rule]
                d = _replace(d, node, dataclasses.replace(node, rule=others[slot % 2]))
    return d, gamma


def _assert_same(d, gamma):
    got = audit_derivation(d, gamma)
    expect = reference_audit(d, gamma)
    assert Counter(got.violations) == Counter(expect.violations)
    assert got.ok == expect.ok
    return expect


def test_audit_matches_reference_on_corpus_mutants(corpus):
    rng = random.Random(2021)
    forged = flagged = 0
    kinds = set()
    for entry in corpus.values():
        if not entry.typable:
            continue
        d = check(entry.program(), entry.gamma, entry.triple, t_max=entry.t_max)
        assert _assert_same(d, entry.gamma).ok, entry.name
        for _ in range(130):
            edits = [
                (rng.choice(("tier", "tier", "gamma", "rule")), rng.randrange(10**6),
                 rng.randrange(6), rng.randint(0, 4))
                for _ in range(rng.randint(1, 3))
            ]
            report = _assert_same(*_forge(d, entry.gamma, edits))
            forged += 1
            flagged += not report.ok
            kinds.update(v.kind for v in report.violations)
    assert forged >= 1000
    assert flagged >= forged // 4
    assert kinds == KINDS


edits = st.lists(
    st.tuples(st.sampled_from(("tier", "gamma", "rule")), st.integers(0, 10**6),
              st.integers(0, 5), st.integers(0, 3)),
    min_size=1, max_size=4,
)


@given(programs(allow_oracle=True), edits)
def test_audit_matches_reference_on_forged_random_derivations(p, edits):
    result = infer(p, t_max=2)
    assume(result is not None)
    assert _assert_same(result.derivation, result.gamma).ok
    _assert_same(*_forge(result.derivation, result.gamma, edits))


def test_audit_matches_reference_on_odd_forgeries():
    # Trees no edit above produces: an expression rule on an assignment
    # (its target counts as read), a loop rule on a sequence (it floors outer
    # channels but caps no inner one), and a loop's subject repeated below a
    # node of another subject (still not strictly inside the loop).
    T = TypedTriple
    assign = parse("y := x return y").body
    seq = parse("x := pred(x); y := x return y").body
    loop = parse("while (gt0(x)) { skip } return x").body
    forged = [
        (Derivation("var", assign, T(1, 0, 0)), {"x": 1, "y": 0},
         [("read-down", "var y := x", "reads y at tier 0 from tier 1")]),
        (Derivation("while", seq, T(1, 1, 1), (
            Derivation("assign", seq.first, T(0, 2, 0)),
            Derivation("assign", seq.rest, T(0, 2, 0)),
        )), {"x": 0, "y": 0},
         [("outer-floor", "assign x := pred(x)", "outer channel 0 below loop tier 1"),
          ("outer-floor", "assign y := x", "outer channel 0 below loop tier 1")]),
        (Derivation("while", loop, T(1, 1, 1), (
            Derivation("skip", loop.body, T(1, 1, 1), (
                Derivation("while-zero", loop, T(1, 2, 0)),
            )),
        )), {"x": 1},
         [("seal-placement", "while-zero while (gt0(x))",
           "sealing rule inside a loop")]),
    ]
    for d, gamma, expected in forged:
        report = _assert_same(d, gamma)
        assert [(v.kind, v.where, v.detail) for v in report.violations] == expected
