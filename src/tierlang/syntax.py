"""Abstract and concrete syntax for the tier language.

The language is a minimal imperative while-language over binary words.
Expressions are variables, operator applications, and oracle calls in the
truncate-pad form ``phi(data | bound)``; each call records its symbol, and
the parser keeps a program to one.  A program is a command followed by
``return x``.

Words are plain Python strings over the alphabet {0, 1}.  Integer
literals are sugar for unary words (``3`` means ``111``) and string
literals are raw words (``"101"``).  Both parse to nullary operator
applications so that the AST has exactly three expression forms.

The lexer is one regular expression walked with `finditer`.  Tokens are
`(kind, text, offset)` tuples; a `ParseError` turns the offset into a line
and column only when it is raised.  A `;` chain of any length is read with
a loop, so only nesting costs recursion.

`_PARTS` is the one statement of the tree's shape.  For each node class it
gives the node's JSON tag, its parts (its sub-expressions and
subcommands) in source order, their names as the JSON export and the
DIMACS legend spell them, and the fields that are not parts.  `children`,
`part_names` and the JSON export `node_to_json` read it, and so do the
derivation check and the audit in `tiers`.

`preorder` is the one walk of a tree: an explicit stack that yields each
node before its parts, in source order.  `program_size`, `assigned_vars`,
`has_oracle_call`, `Program.oracle_name` and `hash` are written on it.
`variables_of` keeps a loop of its own: typing calls it on every program,
and a version on `preorder` made `typable` slower.  `==` walks two trees
in step.  All of these, and the JSON export, take programs of any length
and depth; `pretty_cmd` prints a `;` chain with a loop.  What still
recurses: the parser and the printer on `if`/`while` nesting and on
expressions, the dataclass `repr`, and `json` itself on the exported
dicts, which it refuses past about 990 levels.  Outside this module,
constraint generation in `inference` recurses on the tree as the typing
rules are written.  The reference engines in `bruteforce` and `bulkcheck`
recurse as well; they are meant for small programs, and their docstrings
state the depth they take (about 490 or 990 levels at the default
recursion limit).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterator, NamedTuple

KEYWORDS = frozenset({"skip", "if", "else", "while", "return"})

LITERAL_PREFIX = "lit:"


def literal_op_name(word: str) -> str:
    """Registry name of the nullary operator denoting a word literal."""
    return LITERAL_PREFIX + word


def literal_word(op_name: str) -> str | None:
    """Inverse of literal_op_name, or None for ordinary operators."""
    if op_name.startswith(LITERAL_PREFIX):
        return op_name[len(LITERAL_PREFIX):]
    return None


class ParseError(Exception):
    """Syntax or arity error, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Node:
    """Structural equality and hashing without recursion: `==` walks both
    trees in step (`_same_tree`) and `hash` hashes `_preorder_keys`."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _same_tree(self, other, set())

    def __hash__(self) -> int:
        return hash(tuple(_preorder_keys(self)))


class Expr(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False)
class OpApp(Expr):
    op: str
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True, eq=False)
class OracleCall(Expr):
    """Oracle query name(data | bound): data truncate-padded to |bound|."""

    data: Expr
    bound: Expr
    name: str = "phi"


class Cmd(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Skip(Cmd):
    pass


@dataclass(frozen=True, eq=False)
class Assign(Cmd):
    target: str
    value: Expr


@dataclass(frozen=True, eq=False)
class Seq(Cmd):
    """Right-associated sequencing; `first` is never itself a Seq."""

    first: Cmd
    rest: Cmd


@dataclass(frozen=True, eq=False)
class If(Cmd):
    guard: Expr
    then: Cmd
    orelse: Cmd


@dataclass(frozen=True, eq=False)
class While(Cmd):
    guard: Expr
    body: Cmd


@dataclass(frozen=True, eq=False)
class Program(_Node):
    body: Cmd
    return_var: str

    def __getstate__(self) -> dict:
        # What other modules cache on a program under a private name (the
        # interpreter's compiled function) is not part of it, so copies and
        # pickles start without.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    @property
    def oracle_name(self) -> str:
        """The symbol of the first oracle call, or phi if there is none."""
        calls = (n.name for n in preorder(self.body) if isinstance(n, OracleCall))
        return next(calls, "phi")


class _Shape(NamedTuple):
    tag: str  # the node's "node" value in the JSON export
    parts: Callable[[Any], tuple]  # a node's parts, in source order
    names: tuple[str, ...] | None  # their names; None: by position
    own: tuple[str, ...]  # the fields that are not parts


# Parts are named as the JSON export and the DIMACS legend name them; an
# operator application's parts are its arguments.
_PARTS: dict[type, _Shape] = {
    Var: _Shape("var", lambda node: (), (), ("name",)),
    OpApp: _Shape("op", attrgetter("args"), None, ("op",)),
    OracleCall: _Shape("oracle", attrgetter("data", "bound"), ("data", "bound"),
                       ("name",)),
    Skip: _Shape("skip", lambda node: (), (), ()),
    Assign: _Shape("assign", lambda node: (node.value,), ("value",), ("target",)),
    Seq: _Shape("seq", attrgetter("first", "rest"), ("first", "rest"), ()),
    If: _Shape("if", attrgetter("guard", "then", "orelse"), ("guard", "then", "else"),
               ()),
    While: _Shape("while", attrgetter("guard", "body"), ("guard", "body"), ()),
    Program: _Shape("program", lambda node: (node.body,), ("body",), ("return_var",)),
}


def children(node: object) -> tuple:
    """The sub-expressions and subcommands of a node, in source order.

    A program's only child is its body; variables, skip and any object that
    is not a node have none.
    """
    shape = _PARTS.get(type(node))
    return shape.parts(node) if shape else ()


def part_names(node: object) -> tuple[str, ...]:
    """The names of a node's parts, in the order `children` lists them."""
    names = _PARTS[type(node)].names
    return tuple(map(str, range(len(node.args)))) if names is None else names


def preorder(node: _Node) -> Iterator[_Node]:
    """Every node of a tree, each before its parts, in source order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_PARTS[type(node)].parts(node)[::-1])


def _preorder_keys(node: _Node) -> Iterator[tuple]:
    """The class, part count and own fields of each node of a tree, in
    preorder."""
    for n in preorder(node):
        shape = _PARTS[type(n)]
        yield (type(n), len(shape.parts(n)), *(getattr(n, f) for f in shape.own))


def _same_tree(a: object, b: object, known: set[tuple[int, int]]) -> bool:
    """``a is b or a == b``, remembering which node pairs are equal.

    ``known`` holds the ``(id, id)`` pairs of nodes already found equal; the
    walk skips them without descending.  When the trees are equal, every
    pair visited joins ``known``, so the subtrees of equal trees compare in
    one lookup each.  The caller keeps both trees alive while ``known`` is
    in use, so the ids stay theirs.
    """
    if type(a) is not type(b) or type(a) not in _PARTS:
        return a is b or a == b
    visited = []
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        pair = (id(x), id(y))
        if x is y or pair in known:
            continue
        if type(x) is not type(y):
            return False
        shape = _PARTS[type(x)]
        xs, ys = shape.parts(x), shape.parts(y)
        if len(xs) != len(ys):
            return False
        for f in shape.own:
            if getattr(x, f) != getattr(y, f):
                return False
        visited.append(pair)
        stack.extend(zip(xs, ys))
    known.update(visited)
    return True


def program_size(p: Program) -> int:
    """AST node count.

    Every command node, operator application, oracle call, and variable
    occurrence (including assignment targets and the return variable)
    counts one.  ``skip return x`` has size 2.
    """
    # An assignment counts its target too; the program node counts as its
    # return variable.
    return sum(2 if isinstance(n, Assign) else 1 for n in preorder(p))


def variables_of(node: Program | Cmd | Expr) -> tuple[str, ...]:
    """All variable names, in order of first occurrence."""
    seen: dict[str, None] = {}
    stack: list = [node]
    while stack:
        part = stack.pop()
        if isinstance(part, Var):
            seen.setdefault(part.name)
            continue
        if isinstance(part, Assign):
            seen.setdefault(part.target)
        stack.extend(reversed(children(part)))
    if isinstance(node, Program):
        seen.setdefault(node.return_var)
    return tuple(seen)


def assigned_vars(c: Cmd) -> frozenset[str]:
    """Variables written by the command (assignment targets)."""
    return frozenset(n.target for n in preorder(c) if isinstance(n, Assign))


def has_oracle_call(node: Program | Cmd | Expr) -> bool:
    return any(isinstance(n, OracleCall) for n in preorder(node))


# --- Lexer ---------------------------------------------------------------

_SYMBOLS = {
    ":=": "ASSIGN",
    ";": "SEMI",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    ",": "COMMA",
    "|": "BAR",
}

# One match per token: blanks and comments, then one group, whose name is
# the token's kind.  OTHER takes any single character, so `finditer` walks
# the whole source.  \d is a Unicode decimal digit, as int() accepts; \w
# also admits non-letters such as "²" as a name's first character, which
# the lexer rejects.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*)*"
    r'(?:(?P<SYMBOL>:=|[;(){},|])|(?P<STRING>"[^"\n]*")|(?P<INT>\d+)'
    r"|(?P<NAME>\w+)|(?P<EOF>\Z)|(?P<OTHER>.))",
    re.DOTALL,
)

# A token is (kind, text, offset of its first character in the source).
Token = tuple[str, str, int]


def _error(source: str, message: str, offset: int) -> ParseError:
    """ParseError at a source offset, which is turned into line and column."""
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


def _tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        offset = m.start(kind)
        if kind == "SYMBOL":
            kind = _SYMBOLS[text]
        elif kind == "NAME":
            if not (text[0].isalpha() or text[0] == "_"):
                raise _error(source, f"unexpected character {text[0]!r}", offset)
            kind = "KEYWORD" if text in KEYWORDS else "IDENT"
        elif kind == "STRING":
            text = text[1:-1]
            if text.strip("01"):
                raise _error(source, f'word literal "{text}" has symbols outside 0/1',
                             offset)
        elif kind == "OTHER":
            raise _error(source, "unterminated word literal" if text == '"'
                         else f"unexpected character {text!r}", offset)
        toks.append((kind, text, offset))
        if kind == "EOF":
            break
    return toks


# --- Parser --------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, registry):
        self.source = source
        self.toks = _tokenize(source)
        self.pos = 0
        self.registry = registry
        self.oracle_name: str | None = None

    def peek(self) -> Token:
        return self.toks[self.pos]

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.toks[self.pos]
        if t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {t[1]!r}", t)
        self.pos += 1
        return t

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        """Error at a token, by default the next one."""
        if tok is None:
            tok = self.toks[self.pos]
        return _error(self.source, message, tok[2])

    def parse_program(self) -> Program:
        body = self.parse_cmd()
        self.expect("KEYWORD", "return")
        ret = self.expect("IDENT")
        self.expect("EOF")
        return Program(body, ret[1])

    def parse_cmd(self) -> Cmd:
        """A `;` chain, read with a loop and folded into right-nested Seqs."""
        cmds = [self.parse_simple_cmd()]
        while self.peek()[0] == "SEMI":
            self.pos += 1
            cmds.append(self.parse_simple_cmd())
        body = cmds.pop()
        while cmds:
            body = Seq(cmds.pop(), body)
        return body

    def parse_simple_cmd(self) -> Cmd:
        kind, text, _ = self.peek()
        if kind == "KEYWORD" and text == "skip":
            self.pos += 1
            return Skip()
        if kind == "KEYWORD" and text == "if":
            self.pos += 1
            self.expect("LPAREN")
            guard = self.parse_expr()
            self.expect("RPAREN")
            self.expect("LBRACE")
            then = self.parse_cmd()
            self.expect("RBRACE")
            self.expect("KEYWORD", "else")
            self.expect("LBRACE")
            orelse = self.parse_cmd()
            self.expect("RBRACE")
            return If(guard, then, orelse)
        if kind == "KEYWORD" and text == "while":
            self.pos += 1
            self.expect("LPAREN")
            guard = self.parse_expr()
            self.expect("RPAREN")
            self.expect("LBRACE")
            body = self.parse_cmd()
            self.expect("RBRACE")
            return While(guard, body)
        if kind == "IDENT":
            self.pos += 1
            self.expect("ASSIGN")
            return Assign(text, self.parse_expr())
        raise self.error(f"expected a command, found {text!r}")

    def parse_expr(self) -> Expr:
        name_tok = self.peek()
        kind, text, _ = name_tok
        if kind == "INT":
            self.pos += 1
            return OpApp(literal_op_name("1" * int(text)))
        if kind == "STRING":
            self.pos += 1
            return OpApp(literal_op_name(text))
        if kind == "IDENT":
            self.pos += 1
            if self.peek()[0] != "LPAREN":
                return Var(text)
            self.pos += 1
            if self.peek()[0] == "RPAREN":
                self.pos += 1
                return self._op_app(name_tok, ())
            first = self.parse_expr()
            if self.peek()[0] == "BAR":
                self.pos += 1
                bound = self.parse_expr()
                self.expect("RPAREN")
                return self._oracle_call(name_tok, first, bound)
            args = [first]
            while self.peek()[0] == "COMMA":
                self.pos += 1
                args.append(self.parse_expr())
            self.expect("RPAREN")
            return self._op_app(name_tok, tuple(args))
        raise self.error(f"expected an expression, found {text!r}")

    def _op_app(self, name_tok: Token, args: tuple[Expr, ...]) -> OpApp:
        name = name_tok[1]
        if name not in self.registry:
            raise self.error(f"unknown operator {name!r}", name_tok)
        spec = self.registry.lookup(name)
        if spec.arity != len(args):
            raise self.error(
                f"operator {name!r} expects {spec.arity} argument(s), got {len(args)}",
                name_tok)
        return OpApp(name, args)

    def _oracle_call(self, name_tok: Token, data: Expr, bound: Expr) -> OracleCall:
        name = name_tok[1]
        if self.oracle_name is None:
            self.oracle_name = name
        elif self.oracle_name != name:
            raise self.error(
                f"second oracle symbol {name!r}; the program already queries "
                f"{self.oracle_name!r}", name_tok)
        return OracleCall(data, bound, name)


def parse(source: str, registry=None) -> Program:
    """Parse a program, checking operator arities against the registry."""
    if registry is None:
        from .operators import DEFAULT_REGISTRY

        registry = DEFAULT_REGISTRY
    return _Parser(source, registry).parse_program()


# --- Pretty printer ------------------------------------------------------


def pretty_expr(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, OpApp):
        word = literal_word(e.op)
        if word is not None:
            if set(word) <= {"1"}:
                return str(len(word))
            return f'"{word}"'
        return f"{e.op}({', '.join(map(pretty_expr, e.args))})"
    if isinstance(e, OracleCall):
        return f"{e.name}({pretty_expr(e.data)} | {pretty_expr(e.bound)})"
    raise TypeError(f"not an expression: {e!r}")


def label(node: object) -> str:
    """A node in one line: an expression in full, a command by its head."""
    if isinstance(node, Expr):
        return pretty_expr(node)
    if isinstance(node, Assign):
        return f"{node.target} := {pretty_expr(node.value)}"
    if isinstance(node, If):
        return f"if ({pretty_expr(node.guard)})"
    if isinstance(node, While):
        return f"while ({pretty_expr(node.guard)})"
    return {Skip: "skip", Seq: "seq"}.get(type(node)) or str(node)


def pretty_cmd(c: Cmd, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(c, Seq):
        lines = []
        while isinstance(c, Seq):
            lines.append(pretty_cmd(c.first, indent))
            c = c.rest
        lines.append(pretty_cmd(c, indent))
        return ";\n".join(lines)
    if isinstance(c, (Skip, Assign)):
        return pad + label(c)
    if isinstance(c, If):
        return (f"{pad}{label(c)} {{\n{pretty_cmd(c.then, indent + 1)}\n"
                f"{pad}}} else {{\n{pretty_cmd(c.orelse, indent + 1)}\n{pad}}}")
    if isinstance(c, While):
        return f"{pad}{label(c)} {{\n{pretty_cmd(c.body, indent + 1)}\n{pad}}}"
    raise TypeError(f"not a command: {c!r}")


def pretty(p: Program) -> str:
    return f"{pretty_cmd(p.body)}\nreturn {p.return_var}\n"


# --- JSON export ---------------------------------------------------------


def node_to_json(node: Expr | Cmd) -> dict:
    """An expression or command as nested dicts.

    Each dict holds the node's tag under ``"node"``, then its own fields,
    then its parts under their `_PARTS` names, or under ``"args"`` for an
    operator application.  An oracle call leaves its symbol out: the
    program's ``"oracle"`` key carries it.  The dicts are built with an
    explicit stack.
    """
    root: dict = {}
    stack = [(node, root)]
    while stack:
        node, doc = stack.pop()
        shape = _PARTS[type(node)]
        doc["node"] = shape.tag
        own = () if type(node) is OracleCall else shape.own
        doc.update((f, getattr(node, f)) for f in own)
        parts = shape.parts(node)
        docs = [{} for _ in parts]
        if shape.names is None:
            doc["args"] = docs
        else:
            doc.update(zip(shape.names, docs))
        stack.extend(zip(parts, docs))
    return root


def program_to_json(p: Program) -> dict:
    return {"body": node_to_json(p.body), "return": p.return_var,
            "oracle": p.oracle_name}
