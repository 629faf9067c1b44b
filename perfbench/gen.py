"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain data: source
text for the programs under test, together with the syntax tree the
source is expected to parse to, unary scales, and oracle tables.  The
program under test only ever sees the generated source, words and
tables; the trees built here are used to check its output.

Sizes and scales are drawn by stratified sampling (one draw per stratum
of a fixed range), so two seeds give inputs of the same mix and nearly
the same total cost, while the inputs themselves differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tierlang.syntax import (
    Assign,
    If,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
    literal_op_name,
)

UNARY_OPS = ("pred", "suc0", "suc1", "gt0")
BINARY_OPS = ("lmin", "maxlen", "eq", "geq")
LITERALS = ("", "0", "1", "01")


def stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws from [lo, hi), one uniform draw in each of k equal strata."""
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


def random_word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


# --- Rendering -------------------------------------------------------------


def render_expr(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, OracleCall):
        return f"phi({render_expr(e.data)} | {render_expr(e.bound)})"
    if e.op.startswith("lit:"):
        return '"' + e.op[4:] + '"'
    return f"{e.op}({', '.join(render_expr(a) for a in e.args)})"


def render(p: Program) -> str:
    """Source text of a program.  Commands are expanded from an explicit
    stack, so long chains and deep nests render without recursion."""
    out: list[str] = []
    stack: list = [f"\nreturn {p.return_var}\n", p.body]
    while stack:
        c = stack.pop()
        if isinstance(c, str):
            out.append(c)
        elif isinstance(c, Seq):
            stack += [c.rest, ";\n", c.first]
        elif isinstance(c, Skip):
            out.append("skip")
        elif isinstance(c, Assign):
            out.append(f"{c.target} := {render_expr(c.value)}")
        elif isinstance(c, If):
            out.append(f"if ({render_expr(c.guard)}) {{\n")
            stack += ["\n}", c.orelse, "\n} else {\n", c.then]
        elif isinstance(c, While):
            out.append(f"while ({render_expr(c.guard)}) {{\n")
            stack += ["\n}", c.body]
        else:
            raise TypeError(f"not a command: {c!r}")
    return "".join(out)


def same_tree(a, b) -> bool:
    """Structural equality of two syntax trees, without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Program):
            if (x.return_var, x.oracle_name) != (y.return_var, y.oracle_name):
                return False
            stack.append((x.body, y.body))
        elif isinstance(x, Var):
            if x.name != y.name:
                return False
        elif isinstance(x, OpApp):
            if x.op != y.op or len(x.args) != len(y.args):
                return False
            stack += zip(x.args, y.args)
        elif isinstance(x, OracleCall):
            stack += [(x.data, y.data), (x.bound, y.bound)]
        elif isinstance(x, Assign):
            if x.target != y.target:
                return False
            stack.append((x.value, y.value))
        elif isinstance(x, Seq):
            stack += [(x.first, y.first), (x.rest, y.rest)]
        elif isinstance(x, If):
            stack += [(x.guard, y.guard), (x.then, y.then), (x.orelse, y.orelse)]
        elif isinstance(x, While):
            stack += [(x.guard, y.guard), (x.body, y.body)]
        elif not isinstance(x, Skip):
            raise TypeError(f"not a syntax tree: {x!r}")
    return True


def seq(cmds: list) -> object:
    """Right-nested sequence, as the parser builds it."""
    body = cmds[-1]
    for c in reversed(cmds[:-1]):
        body = Seq(c, body)
    return body


def tree_size(p: Program) -> int:
    """AST node count as `program_size` defines it, walking commands with
    an explicit stack so that long programs do not hit the recursion
    limit."""

    def expr(e) -> int:
        if isinstance(e, Var):
            return 1
        if isinstance(e, OracleCall):
            return 1 + expr(e.data) + expr(e.bound)
        return 1 + sum(expr(a) for a in e.args)

    total = 1
    stack = [p.body]
    while stack:
        c = stack.pop()
        total += 1
        if isinstance(c, Assign):
            total += 1 + expr(c.value)
        elif isinstance(c, Seq):
            stack += [c.first, c.rest]
        elif isinstance(c, If):
            total += expr(c.guard)
            stack += [c.then, c.orelse]
        elif isinstance(c, While):
            total += expr(c.guard)
            stack.append(c.body)
    return total


# --- Random programs -------------------------------------------------------


@dataclass(frozen=True)
class ProgramClass:
    """One family of random programs: its variable stock and features."""

    name: str
    variables: tuple[str, ...]
    binary: bool
    oracle: bool
    max_depth: int
    loop_weight: float


PROGRAM_CLASSES = (
    ProgramClass("plain", ("x", "y", "z"), False, False, 1, 0.25),
    ProgramClass("nested", ("x", "y", "z", "w"), False, False, 3, 0.45),
    ProgramClass("binary", ("x", "y", "z"), True, False, 2, 0.3),
    ProgramClass("oracle", ("x", "y", "z"), False, True, 2, 0.3),
)


class _ProgramGen:
    def __init__(self, rng: random.Random, cls: ProgramClass) -> None:
        self.rng = rng
        self.cls = cls

    def var(self) -> Var:
        return Var(self.rng.choice(self.cls.variables))

    def expr(self, size: int):
        rng = self.rng
        if size <= 1:
            if rng.random() < 0.85:
                return self.var()
            return OpApp(literal_op_name(rng.choice(LITERALS)))
        roll = rng.random()
        if self.cls.oracle and size >= 3 and roll < 0.35:
            return OracleCall(self.expr(size - 2), self.var())
        if self.cls.binary and size >= 3 and roll < 0.5:
            left = rng.randint(1, size - 2)
            return OpApp(rng.choice(BINARY_OPS),
                         (self.expr(left), self.expr(size - 1 - left)))
        return OpApp(rng.choice(UNARY_OPS), (self.expr(size - 1),))

    def guard(self):
        rng = self.rng
        if self.cls.binary and rng.random() < 0.3:
            return OpApp(rng.choice(("eq", "geq")), (self.var(), self.expr(2)))
        return OpApp("gt0", (self.expr(rng.choice((1, 1, 2))),))

    def block(self, budget: int, depth: int) -> list:
        """Statements of roughly `budget` nodes in all, at least one."""
        cmds = []
        while budget > 0 or not cmds:
            cmd, used = self.statement(budget, depth)
            cmds.append(cmd)
            budget -= used + 1
        return cmds

    def statement(self, budget: int, depth: int):
        rng = self.rng
        roll = rng.random()
        if depth < self.cls.max_depth and budget >= 8 and roll < self.cls.loop_weight:
            # Countdown loop: the body ends by shrinking the guard variable.
            v = self.var()
            inner = rng.randint(3, max(3, budget // 2))
            body = self.block(inner - 4, depth + 1)
            body.append(Assign(v.name, OpApp("pred", (v,))))
            return While(OpApp("gt0", (v,)), seq(body)), inner + 3
        if depth < self.cls.max_depth and budget >= 10 and roll < self.cls.loop_weight + 0.15:
            half = rng.randint(2, max(2, budget // 4))
            then = seq(self.block(half, depth + 1))
            orelse = seq(self.block(half, depth + 1))
            return If(self.guard(), then, orelse), 2 * half + 3
        size = rng.randint(1, 4)
        return Assign(self.var().name, self.expr(size)), size + 2


def random_program(rng: random.Random, cls: ProgramClass, size: int) -> Program:
    """A program of the given class within 5 % (at least 1 node) of `size`
    AST nodes: drafts are drawn until one fits, so every seed gives the
    same size mix."""
    gen = _ProgramGen(rng, cls)
    slack = max(1, size // 20)
    while True:
        p = Program(seq(gen.block(size - 2, 0)), cls.variables[0])
        if abs(tree_size(p) - size) <= slack:
            return p


# --- Fixed-shape programs --------------------------------------------------


def countdown_ladder(blocks: int) -> Program:
    """The countdown ladder: `blocks` loops each draining v_i into w."""
    cmds = []
    for i in range(blocks):
        v = Var(f"v{i}")
        body = Seq(Assign(v.name, OpApp("pred", (v,))),
                   Assign("w", OpApp("suc1", (Var("w"),))))
        cmds.append(While(OpApp("gt0", (v,)), body))
    cmds.append(Assign("w", OpApp("suc1", (Var("w"),))))
    return Program(seq(cmds), "w")


def straight_line(statements: int) -> Program:
    """A loop-free chain of neutral assignments over a, b, c."""
    a, b, c = Var("a"), Var("b"), Var("c")
    shapes = (
        Assign("a", OpApp("pred", (b,))),
        Assign("b", OpApp("lmin", (a, c))),
        Assign("c", a),
        Assign("a", OpApp("maxlen", (c, b))),
    )
    return Program(seq([shapes[i % 4] for i in range(statements)]), "a")


def loop_nest(depth: int) -> Program:
    """`depth` nested countdown loops on x around one decrement."""
    x = Var("x")
    body = Assign("x", OpApp("pred", (x,)))
    for _ in range(depth):
        body = While(OpApp("gt0", (x,)), body)
    return Program(body, "x")


# --- Oracle tables ---------------------------------------------------------


def _spread(rng: random.Random, keys: list[str], slots: list) -> None:
    """Put `keys` into the empty slots, one per equal stratum of them, in
    random order, so any large subset of the keys sits on average
    mid-table."""
    free = [i for i, key in enumerate(slots) if key is None]
    order = keys[:]
    rng.shuffle(order)
    width = len(free) / len(order)
    for i, key in enumerate(order):
        slots[free[int(width * (i + rng.random()))]] = key


def oracle_table(rng: random.Random, rows: int, unary_hits: int,
                 cycle: int) -> list[tuple[str, str]]:
    """`rows` distinct table rows for the scanning corpus programs.

    Rows keyed 1^k for k = 1..unary_hits are the hits; filler rows have
    keys of 14 to 30 symbols that no unary-scale program asks for.  Keys
    1^1..1^cycle answer along one seeded cycle of unary words, so
    `iterate` started inside it visits every cycle row in turn; longer keys
    answer `0` or a unary word of at most `cycle` symbols.  Hits are spread
    one per stratum through the table, so the mean scan depth of the rows
    a program visits barely depends on the seed.
    """
    successor = list(range(1, cycle + 1))
    rng.shuffle(successor)
    answers = {}
    for i, k in enumerate(successor):
        answers["1" * k] = "1" * successor[(i + 1) % cycle]
    for k in range(cycle + 1, unary_hits + 1):
        answers["1" * k] = "0" if rng.random() < 0.2 else "1" * rng.randint(1, cycle)

    slots: list[str | None] = [None] * rows
    _spread(rng, ["1" * k for k in range(1, cycle + 1)], slots)
    _spread(rng, ["1" * k for k in range(cycle + 1, unary_hits + 1)], slots)
    for i, key in enumerate(slots):
        if key is None:
            while True:
                key = random_word(rng, 14, 30)
                if key not in answers:
                    break
            answers[key] = random_word(rng, 0, cycle)
            slots[i] = key
    return [(key, answers[key]) for key in slots]
