"""The family enumerator that builds every candidate, kept only as the
reference for the tests.

This is `bruteforce.enumerate_family` as it was before it carried each
candidate's first-occurrence variable order and stopped building
non-canonical programs of the largest size.  It builds every command up to
the size bound and then keeps a program only when a `variables_of` walk
finds its variables in stock order.  The tests require the canonical build
to return the same programs, in the same order.
"""

from __future__ import annotations

import itertools

from tierlang.operators import DEFAULT_REGISTRY, Registry
from tierlang.syntax import (
    Assign,
    Cmd,
    Expr,
    If,
    OpApp,
    Program,
    Seq,
    Skip,
    Var,
    While,
    variables_of,
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
    in stock order are kept, so each renaming class shows up once.
    """
    if registry is None:
        registry = DEFAULT_REGISTRY
    specs = [registry.lookup(name) for name in op_names]
    body_max = max_size - 1

    exprs: dict[int, list[Expr]] = {s: [] for s in range(1, body_max + 1)}
    for v in var_names:
        exprs[1].append(Var(v))
    for spec in specs:
        if spec.arity == 0:
            exprs[1].append(OpApp(spec.name))
    for size in range(2, body_max + 1):
        for spec in specs:
            if spec.arity == 0:
                continue
            for parts in _compositions(size - 1, spec.arity):
                for args in itertools.product(*(exprs[p] for p in parts)):
                    exprs[size].append(OpApp(spec.name, args))

    cmds: dict[int, list[Cmd]] = {s: [] for s in range(1, body_max + 1)}
    plain: dict[int, list[Cmd]] = {s: [] for s in range(1, body_max + 1)}

    def register(size: int, c: Cmd) -> None:
        cmds[size].append(c)
        if not isinstance(c, Seq):
            plain[size].append(c)

    register(1, Skip())
    for size in range(3, body_max + 1):
        for v in var_names:
            for e in exprs[size - 2]:
                register(size, Assign(v, e))
        for gsize, bsize in _compositions(size - 1, 2):
            for guard in exprs[gsize]:
                for body in cmds[bsize]:
                    register(size, While(guard, body))
        for first_size, rest_size in _compositions(size - 1, 2):
            for first in plain[first_size]:
                for rest in cmds[rest_size]:
                    register(size, Seq(first, rest))
        if size >= 4:
            for gsize, tsize, esize in _compositions(size - 1, 3):
                for guard in exprs[gsize]:
                    for then in cmds[tsize]:
                        for orelse in cmds[esize]:
                            register(size, If(guard, then, orelse))

    out: list[Cmd] = []
    programs = []
    for size in range(1, body_max + 1):
        out.extend(cmds[size])
    for body in out:
        p = Program(body, var_names[0])
        used = variables_of(p)
        if used == var_names[: len(used)]:
            programs.append(p)
    return programs


def _compositions(total: int, parts: int):
    """Ways to write total as an ordered sum of `parts` positive integers."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
