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

The lexer is one regular expression: one `findall` call gives the text of
every token, and the parser works on those strings.  It takes only
well-formed tokens, and finds a token's offset again, with `finditer`,
only to raise an error at it.  A parse that fails first looks for a
malformed token anywhere in the source and reports that one instead, as a
lexer run to the end before parsing would.  A `;` chain of any length is
read with a loop, so only nesting costs recursion.

`_PARTS` is the one statement of the tree's shape.  For each node class it
gives the node's JSON tag, its parts (its sub-expressions and
subcommands) in source order, their names as the JSON export and the
DIMACS legend spell them, and the fields that are not parts.
`part_names`, every walk below and the JSON export `node_to_json` read it,
and so do the derivation check and the audit in `tiers`.

`preorder` is the one walk of a tree: an explicit stack that yields each
node before its parts, in source order.  `program_size`, `assigned_vars`,
`has_oracle_call`, `Program.oracle_name` and `hash` are written on it.
`variables_of` keeps a stack loop of its own, with no generator: typing
calls it on every program.  (Typing reads the program size off its node
table instead of calling `program_size`.)  `==` walks two trees in step.
All of these, and the JSON export, take programs of any length and depth;
`pretty_cmd` prints a `;` chain with a loop.  What still
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
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, Iterator, NamedTuple

from .operators import DEFAULT_REGISTRY, is_word, literal_op_name, literal_word

KEYWORDS = frozenset({"skip", "if", "else", "while", "return"})

# The longest word a numeral may denote.  A word of 10^7 symbols takes
# 10 MB, and each builtin step copies a whole word, so a run over one that
# long already takes hours; a numeral of about 10^10 would end in
# MemoryError while its word is built.
MAX_WORD = 10_000_000


def unary_word(numeral: str) -> str:
    """The word 1^n for a decimal numeral n, refused without building it
    when n is above MAX_WORD."""
    if len(numeral.lstrip("0")) > len(str(MAX_WORD)):
        raise ValueError(f"numeral of {len(numeral)} digits is too large")
    n = int(numeral)
    if n > MAX_WORD:
        raise ValueError(f"numeral {n} is above the limit {MAX_WORD}")
    return "1" * n


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


def part_names(node: object) -> tuple[str, ...]:
    """The names of a node's parts, in the order `_PARTS` lists them."""
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
        cls = type(part)
        if cls is Var:
            seen[part.name] = None  # a name seen before keeps its place
            continue
        if cls is Assign:
            seen[part.target] = None
        shape = _PARTS.get(cls)  # what is not a node has no parts
        if shape:
            stack.extend(reversed(shape.parts(part)))
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

# How an error names the token it expected: a symbol by its kind, the end
# as EOF, a keyword as itself.
_EXPECTED = {**_SYMBOLS, "": "EOF"}

# One match per token: blanks and comments, then the token's text as the
# one group.  A word literal keeps its quotes, and the end of the source
# is the empty token.  The last alternative takes any single character, so
# the scan covers the whole source.  \d is a Unicode decimal digit, as
# int() accepts; \w also admits non-letters such as "²" as a name's first
# character, which makes a malformed token.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*)*"
    r'(:=|[;(){},|]|"[^"\n]*"|\d+|\w+|\Z|.)',
    re.DOTALL,
)


def _error(source: str, message: str, offset: int) -> ParseError:
    """ParseError at a source offset, which is turned into line and column."""
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


def is_name(text: str) -> bool:
    """Is the token a name that is not a keyword?  Of the tokens made of
    word characters, names are those that start with a letter or ``_``."""
    first = text[:1]
    return (first.isalpha() or first == "_") and text not in KEYWORDS


def _shown(text: str) -> str:
    """A token as errors quote it: a word literal without its quotes."""
    return text[1:-1] if text[:1] == '"' else text


def _malformed(source: str) -> ParseError | None:
    """The error for the first malformed token of the source, if any: a
    character no token starts with, or a word literal that is unterminated
    or holds symbols other than 0 and 1."""
    for m in _TOKEN_RE.finditer(source):
        text = m[1]
        first = text[:1]
        if not text:  # the end
            return None
        if first == '"':
            if len(text) == 1:
                message = "unterminated word literal"
            elif not is_word(text[1:-1]):
                message = f'word literal "{text[1:-1]}" has symbols outside 0/1'
            else:
                continue
        elif first.isalpha() or first == "_" or first.isdecimal() or text in _SYMBOLS:
            continue
        else:
            message = f"unexpected character {first!r}"
        return _error(source, message, m.start(1))
    return None


# --- Parser --------------------------------------------------------------


class _Parser:
    """Recursive descent over the token texts.

    The texts are kept in reverse, so the next token is the list's last
    item: ``toks[-1]`` looks at it and ``toks.pop()`` takes it.  A token's
    place, for an error, is the number of tokens left when it was next;
    its source offset is found again only when an error is raised.  Every
    branch takes only well-formed tokens, so a parse that succeeds has
    read no malformed one.
    """

    def __init__(self, source: str, registry):
        self.source = source
        toks = _TOKEN_RE.findall(source)
        if len(toks) > 1 and toks[-2] == "":
            toks.pop()  # blanks at the end leave a second empty match
        toks.reverse()
        self.toks = toks
        self.count = len(toks)
        self.registry = registry
        self.arities: dict[str, int] = {}  # each operator is looked up once
        self.oracle_name: str | None = None

    def expect(self, text: str) -> None:
        """Take the next token, which must be `text`."""
        toks = self.toks
        if toks[-1] != text:
            want = _EXPECTED.get(text, text)
            raise self.error(f"expected {want!r}, found {_shown(toks[-1])!r}")
        toks.pop()

    def error(self, message: str, left: int | None = None) -> ParseError:
        """Error at a token, by default the next one; `left` is the number
        of tokens that were left when it was next."""
        if left is None:
            left = len(self.toks)
        match = next(islice(_TOKEN_RE.finditer(self.source), self.count - left, None))
        return _error(self.source, message, match.start(1))

    def parse_program(self) -> Program:
        body = self.parse_cmd()
        self.expect("return")
        ret = self.toks[-1]
        if not is_name(ret):
            raise self.error(f"expected 'IDENT', found {_shown(ret)!r}")
        self.toks.pop()
        self.expect("")
        return Program(body, ret)

    def parse_cmd(self) -> Cmd:
        """A `;` chain, read with a loop and folded into right-nested Seqs."""
        toks = self.toks
        cmds = [self.parse_simple_cmd()]
        while toks[-1] == ";":
            toks.pop()
            cmds.append(self.parse_simple_cmd())
        body = cmds.pop()
        while cmds:
            body = Seq(cmds.pop(), body)
        return body

    def parse_simple_cmd(self) -> Cmd:
        toks = self.toks
        text = toks[-1]
        if is_name(text):
            toks.pop()
            self.expect(":=")
            return Assign(text, self.parse_expr())
        if text == "skip":
            toks.pop()
            return Skip()
        if text == "if":
            toks.pop()
            self.expect("(")
            guard = self.parse_expr()
            self.expect(")")
            self.expect("{")
            then = self.parse_cmd()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            orelse = self.parse_cmd()
            self.expect("}")
            return If(guard, then, orelse)
        if text == "while":
            toks.pop()
            self.expect("(")
            guard = self.parse_expr()
            self.expect(")")
            self.expect("{")
            body = self.parse_cmd()
            self.expect("}")
            return While(guard, body)
        raise self.error(f"expected a command, found {_shown(text)!r}")

    def parse_expr(self) -> Expr:
        toks = self.toks
        left = len(toks)
        text = toks[-1]
        if is_name(text):
            toks.pop()
            if toks[-1] != "(":
                return Var(text)
            toks.pop()
            if toks[-1] == ")":
                toks.pop()
                return self._op_app(text, left, ())
            arg = self.parse_expr()
            if toks[-1] == "|":
                toks.pop()
                bound = self.parse_expr()
                self.expect(")")
                return self._oracle_call(text, left, arg, bound)
            args = [arg]
            while toks[-1] == ",":
                toks.pop()
                args.append(self.parse_expr())
            self.expect(")")
            return self._op_app(text, left, tuple(args))
        if text[:1].isdecimal():
            toks.pop()
            try:
                return OpApp(literal_op_name(unary_word(text)))
            except ValueError as exc:
                raise self.error(str(exc), left) from None
        if text[:1] == '"' and len(text) > 1 and is_word(text[1:-1]):
            toks.pop()
            return OpApp(literal_op_name(text[1:-1]))
        raise self.error(f"expected an expression, found {_shown(text)!r}")

    def _op_app(self, name: str, left: int, args: tuple[Expr, ...]) -> OpApp:
        arity = self.arities.get(name)
        if arity is None:
            if name not in self.registry:
                raise self.error(f"unknown operator {name!r}", left)
            arity = self.arities[name] = self.registry.lookup(name).arity
        if arity != len(args):
            raise self.error(
                f"operator {name!r} expects {arity} argument(s), got {len(args)}", left)
        return OpApp(name, args)

    def _oracle_call(self, name: str, left: int, data: Expr, bound: Expr) -> OracleCall:
        if self.oracle_name is None:
            self.oracle_name = name
        elif self.oracle_name != name:
            raise self.error(
                f"second oracle symbol {name!r}; the program already queries "
                f"{self.oracle_name!r}", left)
        return OracleCall(data, bound, name)


def parse(source: str, registry=None) -> Program:
    """Parse a program, checking operator arities against the registry.

    A malformed token anywhere in the source is the error reported, ahead
    of any error the parser met before reaching it, as if the whole source
    were scanned before parsing began."""
    if registry is None:
        registry = DEFAULT_REGISTRY
    try:
        return _Parser(source, registry).parse_program()
    except (ParseError, RecursionError):
        malformed = _malformed(source)
        if malformed is None:
            raise
    raise malformed


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
