"""Reference implementations of typability by direct enumeration.

This module re-derives tier typability straight from the typing rules,
without clauses or solvers, so it can serve as an independent cross-check
for the encoding in `inference`.  It is exponential in places and meant for
small programs only.

`derivable` decides one judgement by structural recursion, absorbing the
tier-lifting rule into a "some introduction tier below" search.
`typable_bounded` quantifies over every environment and triple up to a tier
cap.  `enumerate_family` builds every program up to a size bound over a
fixed stock of variables and operators, one representative per variable
renaming class.

The family is built bottom up, by size.  Each expression and command
carries its variables in order of first occurrence, the order
`variables_of` gives, merged from its parts' orders through a memo.  A
program is kept when that order is a prefix of the stock.  Candidates of
the largest size are built only when they will be kept; smaller ones are
all built, since larger programs use them as parts.  No candidate is
walked after it is built.

`derivable` and `expr_tiers` recurse once per nesting level and once per
`;` link, as the rules are written.  At the default recursion limit they
take about 990 levels of commands and about 490 of nested operator
applications; the families they check are far smaller.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import partial

from .operators import DEFAULT_REGISTRY, Positive, Registry
from .syntax import (
    Assign,
    Cmd,
    Expr,
    If,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
    variables_of,
)


def expr_tiers(
    e: Expr,
    gamma: dict[str, int],
    inner: int,
    outer: int,
    registry: Registry,
    memo: dict | None = None,
) -> frozenset[int]:
    """All tiers at which the expression types under the given channels."""
    if memo is None:
        memo = {}
    key = (id(e), inner, outer)
    hit = memo.get(key)
    if hit is not None:
        return hit

    if isinstance(e, Var):
        out = frozenset({gamma[e.name]})
    elif isinstance(e, OpApp):
        spec = registry.lookup(e.op)
        positive = isinstance(spec.classification, Positive)
        tiers: set[int] = set()
        arg_sets = [
            expr_tiers(a, gamma, inner, outer, registry, memo) for a in e.args
        ]
        if spec.arity == 0:
            top = inner - 1 if positive else inner
            tiers.update(range(top + 1))
        else:
            for combo in itertools.product(*arg_sets):
                if max(combo) > inner:
                    continue
                top = min(combo)
                if positive:
                    top = min(top, inner - 1)
                tiers.update(range(top + 1))
        out = frozenset(tiers)
    elif isinstance(e, OracleCall):
        data = expr_tiers(e.data, gamma, inner, outer, registry, memo)
        bound = expr_tiers(e.bound, gamma, inner, outer, registry, memo)
        if outer in bound:
            out = frozenset(t for t in data if t < inner and t <= outer)
        else:
            out = frozenset()
    else:
        raise TypeError(f"not an expression: {e!r}")

    memo[key] = out
    return out


def derivable(
    c: Cmd,
    gamma: dict[str, int],
    tier: int,
    inner: int,
    outer: int,
    registry: Registry | None = None,
    _memo: dict | None = None,
    _expr_memo: dict | None = None,
) -> bool:
    """Is the judgement (tier, inner, outer) derivable for this command?

    Tier lifting is folded in: a judgement holds when some rule introduces
    the command at a tier at most `tier`.
    """
    if registry is None:
        registry = DEFAULT_REGISTRY
    if _memo is None:
        _memo = {}
    if _expr_memo is None:
        _expr_memo = {}
    if tier < 0:
        return False
    key = (id(c), tier, inner, outer)
    hit = _memo.get(key)
    if hit is not None:
        return hit

    def guard_tiers(e: Expr, out_channel: int) -> frozenset[int]:
        return expr_tiers(e, gamma, inner, out_channel, registry, _expr_memo)

    if isinstance(c, Skip):
        ans = True
    elif isinstance(c, Assign):
        target = gamma[c.target]
        value = expr_tiers(c.value, gamma, inner, outer, registry, _expr_memo)
        ans = target <= tier and any(target <= tv for tv in value)
    elif isinstance(c, Seq):
        ans = derivable(
            c.first, gamma, tier, inner, outer, registry, _memo, _expr_memo
        ) and derivable(
            c.rest, gamma, tier, inner, outer, registry, _memo, _expr_memo
        )
    elif isinstance(c, If):
        guard = guard_tiers(c.guard, outer)
        ans = any(
            t in guard
            and derivable(c.then, gamma, t, inner, outer, registry, _memo, _expr_memo)
            and derivable(c.orelse, gamma, t, inner, outer, registry, _memo, _expr_memo)
            for t in range(tier + 1)
        )
    elif isinstance(c, While):
        # The two loop rules split on the conclusion's outer tier: sealing
        # concludes outer 0, the plain rule keeps outer >= the loop tier, so
        # strictly inside any loop body (outer >= 1) only the plain rule
        # fires and sealing never nests.
        ans = False
        for t in range(1, tier + 1):
            if outer == 0:
                ok = t in guard_tiers(c.guard, t) and derivable(
                    c.body, gamma, t, t, t, registry, _memo, _expr_memo
                )
            else:
                ok = (
                    t <= outer
                    and t in guard_tiers(c.guard, outer)
                    and derivable(
                        c.body, gamma, t, t, outer, registry, _memo, _expr_memo
                    )
                )
            if ok:
                ans = True
                break
    else:
        raise TypeError(f"not a command: {c!r}")

    _memo[key] = ans
    return ans


def program_derivable(
    program: Program,
    gamma: dict[str, int],
    triple: tuple[int, int, int],
    registry: Registry | None = None,
) -> bool:
    tier, inner, outer = triple
    return derivable(program.body, gamma, tier, inner, outer, registry)


def _judgements(
    program: Program,
    cap: int,
    registry: Registry | None,
    cmd_tiers: range,
):
    """Each (environment, triple) with tiers <= cap and the command tier in
    `cmd_tiers` that types the program, one environment at a time."""
    if registry is None:
        registry = DEFAULT_REGISTRY
    names = variables_of(program)
    channels = range(cap + 1)
    for values in itertools.product(channels, repeat=len(names)):
        gamma = dict(zip(names, values))
        memo: dict = {}
        expr_memo: dict = {}
        for triple in itertools.product(cmd_tiers, channels, channels):
            if derivable(program.body, gamma, *triple, registry, memo, expr_memo):
                yield gamma, triple


def typable_bounded(
    program: Program,
    cap: int,
    registry: Registry | None = None,
) -> bool:
    """Does any environment and triple with tiers <= cap type the program?

    Only command tier `cap` is tried: lifting makes it the most permissive."""
    return any(_judgements(program, cap, registry, range(cap, cap + 1)))


def typing_table(
    program: Program,
    cap: int,
    registry: Registry | None = None,
) -> frozenset[tuple[tuple[tuple[str, int], ...], tuple[int, int, int]]]:
    """Every (environment, triple) pair with tiers <= cap that types the
    program.  Environments are rendered as sorted item tuples."""
    return frozenset(
        (tuple(sorted(gamma.items())), triple)
        for gamma, triple in _judgements(program, cap, registry, range(cap + 1))
    )


def enumerate_family(
    max_size: int,
    var_names: tuple[str, ...] = ("x", "y", "z"),
    op_names: tuple[str, ...] = ("pred", "suc1", "gt0"),
    registry: Registry | None = None,
) -> list[Program]:
    """Every program of size <= max_size over the given stock, up to
    variable renaming.

    Size is the node count from `program_size`.  The return variable is
    always the first stock name, and only programs whose variables appear
    in stock order are kept, so each renaming class shows up once.  The
    list runs by body size, and within a size by constructor (assignment,
    loop, sequence, conditional), then by part.

    Each candidate carries its variables in order of first occurrence, as
    `variables_of` lists them, merged from its parts' orders.  Candidates
    of the largest size are built only when that order is a prefix of the
    stock; smaller ones are all built, since they are parts of larger ones.
    """
    if registry is None:
        registry = DEFAULT_REGISTRY
    specs = [registry.lookup(name) for name in op_names]
    body_max = max_size - 1
    if body_max < 1:
        return []
    canonical = {var_names[:k] for k in range(len(var_names) + 1)}
    merged: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[str, ...]] = {}

    def merge(head: tuple[str, ...], tail: tuple[str, ...]) -> tuple[str, ...]:
        """The order of a node whose parts have these orders, left to right."""
        key = (head, tail)
        order = merged.get(key)
        if order is None:
            order = merged[key] = head + tuple(v for v in tail if v not in head)
        return order

    # (node, order) pairs by size.  The largest expression any command
    # takes, a value or a guard, has size body_max - 2.
    exprs: dict[int, list] = defaultdict(list)
    exprs[1] = [(Var(v), (v,)) for v in var_names]
    exprs[1] += [(OpApp(spec.name), ()) for spec in specs if spec.arity == 0]
    for size in range(2, body_max - 1):
        for spec in specs:
            if spec.arity == 0:
                continue
            for parts in _compositions(size - 1, spec.arity):
                for args in itertools.product(*(exprs[p] for p in parts)):
                    order: tuple[str, ...] = ()
                    for _, part_order in args:
                        order = merge(order, part_order)
                    node = OpApp(spec.name, tuple(arg for arg, _ in args))
                    exprs[size].append((node, order))

    cmds: dict[int, list] = {1: [(Skip(), ())], 2: []}
    plain: dict[int, list] = {1: cmds[1], 2: []}  # not a Seq: first parts
    for size in range(3, body_max + 1):
        last = size == body_max
        built: list = []

        def attach(make, head: tuple[str, ...], tails: list) -> None:
            """Build make(tail) for each tail, whose order follows head's;
            at the largest size, only the canonical ones."""
            if not last:
                built.extend((make(tail), merge(head, o)) for tail, o in tails)
            elif head in canonical:  # else no merge with head can be
                for tail, o in tails:
                    order = merge(head, o)
                    if order in canonical:
                        built.append((make(tail), order))

        for v in var_names:
            attach(partial(Assign, v), (v,), exprs[size - 2])
        for gsize, bsize in _compositions(size - 1, 2):
            for guard, order in exprs[gsize]:
                attach(partial(While, guard), order, cmds[bsize])
        for first_size, rest_size in _compositions(size - 1, 2):
            for first, order in plain[first_size]:
                attach(partial(Seq, first), order, cmds[rest_size])
        for gsize, tsize, esize in _compositions(size - 1, 3):
            for guard, order in exprs[gsize]:
                for then, then_order in cmds[tsize]:
                    attach(partial(If, guard, then), merge(order, then_order),
                           cmds[esize])
        cmds[size] = built
        plain[size] = [pair for pair in built if not isinstance(pair[0], Seq)]

    return [
        Program(body, var_names[0])
        for built in cmds.values()
        for body, order in built
        if order in canonical
    ]


def _compositions(total: int, parts: int):
    """Ways to write total as an ordered sum of `parts` positive integers."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
