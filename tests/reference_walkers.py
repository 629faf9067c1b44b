"""Recursive AST walkers, kept only as the reference for the tests.

These are the walkers `tierlang.syntax` had before `program_size`,
`variables_of`, `assigned_vars` and `has_oracle_call` became loops over
`syntax.children`, the printer of `;` chains before it became a loop, and
`tree_key`, the comparison that the dataclass-generated `__eq__` made before
structural equality became a loop.
Each recurses once per nesting level and once per chain link, so they only
take inputs within the recursion limit.  The tests require the iterative
walkers and `syntax.pretty` to give the same results on every program.
"""

from __future__ import annotations

import dataclasses

from tierlang.syntax import (
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
    pretty_expr,
)


def program_size(p: Program) -> int:
    """AST node count.

    Every command node, operator application, oracle call, and variable
    occurrence (including assignment targets and the return variable)
    counts one.  ``skip return x`` has size 2.
    """
    return _cmd_size(p.body) + 1


def _expr_size(e: Expr) -> int:
    if isinstance(e, Var):
        return 1
    if isinstance(e, OpApp):
        return 1 + sum(_expr_size(a) for a in e.args)
    if isinstance(e, OracleCall):
        return 1 + _expr_size(e.data) + _expr_size(e.bound)
    raise TypeError(f"not an expression: {e!r}")


def _cmd_size(c: Cmd) -> int:
    if isinstance(c, Skip):
        return 1
    if isinstance(c, Assign):
        return 2 + _expr_size(c.value)
    if isinstance(c, Seq):
        return 1 + _cmd_size(c.first) + _cmd_size(c.rest)
    if isinstance(c, If):
        return 1 + _expr_size(c.guard) + _cmd_size(c.then) + _cmd_size(c.orelse)
    if isinstance(c, While):
        return 1 + _expr_size(c.guard) + _cmd_size(c.body)
    raise TypeError(f"not a command: {c!r}")


def variables_of(node: Program | Cmd | Expr) -> tuple[str, ...]:
    """All variable names, in order of first occurrence."""
    seen: dict[str, None] = {}

    def walk_expr(e: Expr) -> None:
        if isinstance(e, Var):
            seen.setdefault(e.name)
        elif isinstance(e, OpApp):
            for a in e.args:
                walk_expr(a)
        elif isinstance(e, OracleCall):
            walk_expr(e.data)
            walk_expr(e.bound)

    def walk_cmd(c: Cmd) -> None:
        if isinstance(c, Assign):
            seen.setdefault(c.target)
            walk_expr(c.value)
        elif isinstance(c, Seq):
            walk_cmd(c.first)
            walk_cmd(c.rest)
        elif isinstance(c, If):
            walk_expr(c.guard)
            walk_cmd(c.then)
            walk_cmd(c.orelse)
        elif isinstance(c, While):
            walk_expr(c.guard)
            walk_cmd(c.body)

    if isinstance(node, Program):
        walk_cmd(node.body)
        seen.setdefault(node.return_var)
    elif isinstance(node, Cmd):
        walk_cmd(node)
    else:
        walk_expr(node)
    return tuple(seen)


def assigned_vars(c: Cmd) -> frozenset[str]:
    """Variables written by the command (assignment targets)."""
    if isinstance(c, Assign):
        return frozenset({c.target})
    if isinstance(c, Seq):
        return assigned_vars(c.first) | assigned_vars(c.rest)
    if isinstance(c, If):
        return assigned_vars(c.then) | assigned_vars(c.orelse)
    if isinstance(c, While):
        return assigned_vars(c.body)
    return frozenset()


def has_oracle_call(node: Program | Cmd | Expr) -> bool:
    if isinstance(node, Program):
        return has_oracle_call(node.body)
    if isinstance(node, OracleCall):
        return True
    if isinstance(node, OpApp):
        return any(has_oracle_call(a) for a in node.args)
    if isinstance(node, Seq):
        return has_oracle_call(node.first) or has_oracle_call(node.rest)
    if isinstance(node, Assign):
        return has_oracle_call(node.value)
    if isinstance(node, If):
        return (has_oracle_call(node.guard) or has_oracle_call(node.then)
                or has_oracle_call(node.orelse))
    if isinstance(node, While):
        return has_oracle_call(node.guard) or has_oracle_call(node.body)
    return False


def pretty_cmd(c: Cmd, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(c, Skip):
        return f"{pad}skip"
    if isinstance(c, Assign):
        return f"{pad}{c.target} := {pretty_expr(c.value)}"
    if isinstance(c, Seq):
        return (f"{pretty_cmd(c.first, indent)};\n"
                f"{pretty_cmd(c.rest, indent)}")
    if isinstance(c, If):
        return (f"{pad}if ({pretty_expr(c.guard)}) {{\n"
                f"{pretty_cmd(c.then, indent + 1)}\n"
                f"{pad}}} else {{\n"
                f"{pretty_cmd(c.orelse, indent + 1)}\n"
                f"{pad}}}")
    if isinstance(c, While):
        return (f"{pad}while ({pretty_expr(c.guard)}) {{\n"
                f"{pretty_cmd(c.body, indent + 1)}\n"
                f"{pad}}}")
    raise TypeError(f"not a command: {c!r}")


def pretty(p: Program) -> str:
    return f"{pretty_cmd(p.body)}\nreturn {p.return_var}\n"


def tree_key(node) -> tuple:
    """A node as nested tuples of its class and field values; two trees are
    equal exactly when their keys are."""
    values = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, tuple):
            value = tuple(map(tree_key, value))
        elif isinstance(value, (Expr, Cmd)):
            value = tree_key(value)
        values.append(value)
    return (type(node), *values)
