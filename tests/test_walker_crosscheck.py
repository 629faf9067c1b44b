"""The iterative AST walkers against the recursive reference walkers.

`program_size`, `variables_of`, `assigned_vars`, `has_oracle_call` and
`pretty` must give what the recursive walkers in `reference_walkers` give,
on every node of random programs, of the corpus and of the small family;
and they must take a 10,000-statement chain and a 2,000-deep loop nest at
the default recursion limit.  So must structural `==` and `hash`, which are
checked against `reference_walkers.tree_key` on random programs and their
one-edit mutants.
"""

import dataclasses
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tierlang import syntax
from tierlang.bruteforce import enumerate_family
from tierlang.syntax import (
    Assign,
    Cmd,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
)

from . import reference_walkers as ref
from .strategies import programs


def _subnodes(node):
    """Every node below `node`, itself included, found by plain recursion."""
    yield node
    for field in vars(node).values():
        for part in field if isinstance(field, tuple) else (field,):
            if isinstance(part, (syntax.Expr, Cmd)):
                yield from _subnodes(part)


def _assert_walkers_match(p: Program):
    assert syntax.program_size(p) == ref.program_size(p)
    assert syntax.pretty(p) == ref.pretty(p)
    for node in (p, *_subnodes(p.body)):
        assert syntax.variables_of(node) == ref.variables_of(node), node
        assert syntax.has_oracle_call(node) == ref.has_oracle_call(node), node
        if isinstance(node, Cmd):
            assert syntax.assigned_vars(node) == ref.assigned_vars(node), node


@given(programs(allow_oracle=True))
def test_walkers_match_reference_on_random_programs(p):
    _assert_walkers_match(p)


def test_walkers_match_reference_on_the_corpus(corpus):
    for entry in corpus.values():
        _assert_walkers_match(entry.program())


def test_walkers_match_reference_on_the_small_family():
    family = enumerate_family(8)
    assert len(family) == 955
    for p in family:
        _assert_walkers_match(p)


def _chain(n, bound="z"):
    """n assignments, the last one an oracle call, folded with a loop."""
    cmds = [Assign(f"x{i % 7}", OpApp("suc1", (Var(f"x{(i + 3) % 5}"),)))
            for i in range(n - 1)]
    cmds.append(Assign("y", OracleCall(Var("x0"), Var(bound))))
    body = cmds.pop()
    while cmds:
        body = Seq(cmds.pop(), body)
    names = [name for i in range(n - 1) for name in (f"x{i % 7}", f"x{(i + 3) % 5}")]
    names += ["y", "x0", bound, "r"]
    size = (n - 1) * 4 + 5 + (n - 1) + 1
    written = {f"x{i}" for i in range(7)} | {"y"}
    return Program(body, "r"), size, tuple(dict.fromkeys(names)), written


def _nest(depth, bound="z"):
    """`depth` loops around one oracle assignment, built from the inside."""
    body = Assign("y", OracleCall(Var("x"), Var(bound)))
    for i in range(depth):
        body = While(OpApp("gt0", (Var(f"c{i}"),)), body)
    names = [f"c{i}" for i in reversed(range(depth))] + ["y", "x", bound, "r"]
    return Program(body, "r"), depth * 3 + 5 + 1, tuple(names), {"y"}


@pytest.mark.parametrize("build", [lambda: _chain(10_000), lambda: _nest(2000)],
                         ids=["chain-10000", "nest-2000"])
def test_walkers_take_long_and_deep_programs_at_the_default_recursion_limit(build):
    assert sys.getrecursionlimit() <= 1000
    p, size, names, written = build()
    checks = [
        (syntax.program_size, p, size),
        (syntax.variables_of, p, names),
        (syntax.assigned_vars, p.body, written),
        (syntax.has_oracle_call, p, True),
    ]
    for walker, node, expected in checks:
        start = time.perf_counter()
        assert walker(node) == expected, walker.__name__
        assert time.perf_counter() - start < 0.5, walker.__name__


def test_pretty_prints_a_long_chain_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    p = _chain(10_000)[0]
    start = time.perf_counter()
    text = syntax.pretty(p)
    assert time.perf_counter() - start < 0.5
    lines = text.splitlines()
    assert len(lines) == 10_001
    assert lines[0] == "x0 := suc1(x3);"
    assert lines[-2:] == ["y := phi(x0 | z)", "return r"]
    assert syntax.parse(text) == p


def _fields_holding_parts(node):
    return [f.name for f in dataclasses.fields(node)
            if isinstance(getattr(node, f.name), (tuple, syntax.Expr, Cmd))]


def _copy_editing(node, target, edit):
    """A fresh copy of the tree `node`, with `edit` applied to the node
    `target` (found by identity)."""
    if node is target:
        return edit(node)
    changes = {}
    for name in _fields_holding_parts(node):
        value = getattr(node, name)
        if isinstance(value, tuple):
            changes[name] = tuple(_copy_editing(v, target, edit) for v in value)
        else:
            changes[name] = _copy_editing(value, target, edit)
    return dataclasses.replace(node, **changes)


def _rename(node):
    own = [f.name for f in dataclasses.fields(node)
           if isinstance(getattr(node, f.name), str)]
    if not own:
        return node
    return dataclasses.replace(node, **{own[0]: getattr(node, own[0]) + "2"})


def _swap_parts(node):
    if isinstance(node, OpApp):
        return dataclasses.replace(node, args=node.args[::-1])
    names = _fields_holding_parts(node)
    if len(names) < 2:
        return node
    a, b = names[-2:]
    return dataclasses.replace(node, **{a: getattr(node, b), b: getattr(node, a)})


def _drop_part(node):
    if isinstance(node, OpApp):
        return dataclasses.replace(node, args=node.args[:-1])
    names = _fields_holding_parts(node)
    return getattr(node, names[0]) if names else node


def _to_leaf(node):
    return Skip() if isinstance(node, Cmd) else Var("x")


EDITS = {"copy": lambda node: node, "rename": _rename, "swap": _swap_parts,
         "drop": _drop_part, "leaf": _to_leaf}


@given(programs(allow_oracle=True), st.integers(0, 10**6),
       st.sampled_from(sorted(EDITS)))
def test_equality_and_hash_match_reference_on_one_edit_mutants(p, index, edit):
    nodes = [p, *_subnodes(p.body)]
    mutant = _copy_editing(p, nodes[index % len(nodes)], EDITS[edit])
    same = ref.tree_key(mutant) == ref.tree_key(p)
    assert (mutant == p) is same
    assert (mutant != p) is not same
    if same:
        assert hash(mutant) == hash(p)
    copy = _copy_editing(p, None, None)
    assert copy == p and hash(copy) == hash(p)


@pytest.mark.parametrize("build", [_chain, _nest], ids=["chain-10000", "nest-2000"])
def test_equality_and_hash_take_long_and_deep_programs(build):
    assert sys.getrecursionlimit() <= 1000
    size = 10_000 if build is _chain else 2000
    a, b, other = build(size)[0], build(size)[0], build(size, bound="w")[0]
    checks = [
        (lambda: a == b, True), (lambda: a != b, False),
        (lambda: a == other, False), (lambda: a != other, True),
        (lambda: hash(a) == hash(b), True),
    ]
    for check, expected in checks:
        start = time.perf_counter()
        assert check() is expected
        assert time.perf_counter() - start < 0.5
