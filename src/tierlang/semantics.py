"""Big-step interpreter with oracle queries and step accounting.

Evaluation follows the rule-per-construct reading of the semantics:
each rule application (variable lookup, operator application, oracle
query, skip, assignment, sequencing, conditional, and one application
per loop test) counts one step, so the recorded step total equals the
size of the evaluation derivation.  Loops are executed iteratively but
charged as if unrolled: a true guard costs the loop rule plus the
implicit sequencing node of the unrolling.

Oracle queries always pass through truncate-pad, so the queried word
has length exactly |bound| + 1 and is never empty.

`run_program` compiles the program body to the source of Python
functions, so a step costs a few bytecodes instead of a closure call, a
type dispatch or a registry lookup.  Each program variable lives in a
Python local, read from the store once when the run starts; a flag set
at each assignment marks it, and only the flagged variables are written
back when the run ends, so the final store binds exactly the inputs and
the variables assigned at least once.  Expressions become three-address
code: a variable or a constant is read in place, the value of an
assignment goes straight into its target's local, and every other node
stores its word in a temporary that it shares with its first argument.
The builtins are inlined, and a run of ticks that nothing between them
can interrupt is charged with one addition and one fuel check.  Every
point that may raise or call outside code, and every loop iteration,
checks the fuel first, so the steps, the errors and the query log are
those of the derivation at every fuel.  A guard made of a builtin
predicate becomes a Python condition and is never stuck; any other guard
is a word, checked for 0 or 1 once, where the guard is evaluated, so a
conditional or a loop only ever tests a condition.  The source names no
variable, operator or word of the program; they are bound through the
namespace the source is executed in.  A compound command nested
`_LEVELS` deep within one function becomes a function of its own, which
takes and returns the locals and flags of the variables its own subtree
names, and the emitter walks the tree with an explicit stack: a program
of any length compiles and runs, and a run needs one Python frame per
`_LEVELS` levels of nesting.  The result is compiled once per program and
registry and kept on the program; it keeps all run state in its frame,
so it is reentrant and threads may share it.

Each variable has one of two word forms for the whole run.  A variable
that some assignment updates by a chain of builtin pred, suc0 and suc1
around itself (``x := suc1(pred(x))``) is held in place: its local keeps
the word reversed in a bytearray, whose end is the word's front, and
such an assignment becomes ``del v[-1:]`` and ``v.append(...)``, which
cost the same at any word length.  Reads of its length alone (gt0, geq,
an oracle bound, the length test of lmin and maxlen) use the bytearray
as it is.  Any other read converts it to a str: eq, after comparing
lengths, a word guard, a custom operator's argument, a store into another
variable and the side that lmin or maxlen selects.  A store into it from
anything but its own chain makes a bytearray of its own, unless an lmin
or maxlen keeps the target itself, so no two locals share one.  Inputs
convert when the run starts and flagged variables when it ends, so the
store, the result and the query log hold only str.  Every other variable
is a str throughout.  An oracle query is written in line, after its fuel
check: the check for a missing oracle, truncate-pad (from the last
|bound| cells of a data word held in place, without converting the
rest), the call to the oracle, the check that its answer is a word and
the record of the query, so a query makes no Python call but the
oracle's own.

Words are validated where they enter: input bindings (`Store`, in one
loop with no call per binding), table rows (`TableOracle`), oracle
answers, and results of operators that are not defined in
`operators.py`.  Builtins and word-literal constants return words by
construction and run unchecked.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

from .operators import _BUILTINS, DEFAULT_REGISTRY, Registry, _Constant, is_word
from .syntax import (
    Assign, Cmd, Expr, If, OpApp, OracleCall, Program, Seq, Skip, Var, While, preorder,
)


def truncate_pad(v: str, bound: str) -> str:
    """First min(|bound|, |v|) symbols of v, padded with 10...0 to |bound| + 1.

    The output length is always exactly |bound| + 1 and the output always
    contains a 1, the marker that lets a padded oracle recover v when
    |v| <= |bound|.
    """
    n = len(bound)
    kept = v[:n]
    return kept + "1" + "0" * (n - len(kept))


class TierRuntimeError(Exception):
    pass


class StuckGuard(TierRuntimeError):
    """A conditional or loop guard evaluated to a word outside {0, 1}."""

    def __init__(self, value: str):
        shown = value if value else "the empty word"
        super().__init__(f"guard evaluated to {shown!r}, expected 0 or 1")
        self.value = value


class FuelExhausted(TierRuntimeError):
    def __init__(self, fuel: int):
        super().__init__(f"execution exceeded the fuel limit of {fuel} steps")
        self.fuel = fuel


class OracleRequired(TierRuntimeError):
    def __init__(self, name: str):
        super().__init__(f"program queries oracle {name!r} but none was supplied")
        self.name = name


# --- Oracles -------------------------------------------------------------


class Oracle:
    __slots__ = ()

    def answer(self, query: str) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class TableOracle(Oracle):
    """Finite table with a total default rule.

    ``default`` is ``("constant", word)`` or ``("echo-length", None)``;
    the latter answers 1^|query|.  When a query has several rows, the
    first one answers.
    """

    entries: tuple[tuple[str, str], ...] = ()
    default: tuple[str, str | None] = ("constant", "1")
    _index: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, value = self.default
        if kind == "constant":
            if not is_word(value):
                raise ValueError(f"constant default must be a word, got {value!r}")
        elif kind == "echo-length":
            if value is not None:
                raise ValueError("echo-length default takes no value")
        else:
            raise ValueError(f"unknown default kind {kind!r}")
        index: dict[str, str] = {}
        for q, a in self.entries:
            if not (is_word(q) and is_word(a)):
                raise ValueError(f"table entry ({q!r}, {a!r}) is not a word pair")
            index.setdefault(q, a)
        object.__setattr__(self, "_index", index)

    def default_answer(self, query: str) -> str:
        kind, value = self.default
        if kind == "constant":
            return value  # type: ignore[return-value]
        return "1" * len(query)

    def answer(self, query: str) -> str:
        a = self._index.get(query)
        if a is None:  # the default rule, in this frame: one call per query
            kind, a = self.default
            if kind != "constant":
                a = "1" * len(query)
        return a

    @classmethod
    def from_json(cls, data) -> "TableOracle":
        """The table of a JSON oracle spec; ValueError if it has another shape."""
        if not isinstance(data, dict):
            raise ValueError("oracle spec must be a JSON object")
        rows = data.get("entries", [])
        if not (isinstance(rows, list) and all(
                isinstance(e, dict) and "query" in e and "answer" in e for e in rows)):
            raise ValueError('oracle "entries" must be a list of objects '
                             'with "query" and "answer"')
        d = data.get("default", {"kind": "constant", "value": "1"})
        if not (isinstance(d, dict) and "kind" in d):
            raise ValueError('oracle "default" must be an object with a "kind"')
        entries = tuple((e["query"], e["answer"]) for e in rows)
        return cls(entries, (d["kind"], d.get("value")))

    @classmethod
    def load(cls, path: str) -> "TableOracle":
        with open(path, encoding="utf-8") as f:
            return cls.from_json(json.load(f))

    def to_json(self) -> dict:
        kind, value = self.default
        d: dict = {"kind": kind}
        if value is not None:
            d["value"] = value
        return {
            "entries": [{"query": q, "answer": a} for q, a in self.entries],
            "default": d,
        }


@dataclass(frozen=True, slots=True)
class PaddedOracle(Oracle):
    """View of an oracle through truncate-pad marker stripping.

    A query of the shape w.1.0^k answers the inner oracle at w.  Queries
    with no 1 anywhere cannot have come from truncate-pad; they fall
    back to the inner table's default rule (or a direct query when the
    inner oracle has no default rule).
    """

    inner: Oracle

    def answer(self, query: str) -> str:
        marker = query.rfind("1")
        if marker < 0:
            if isinstance(self.inner, TableOracle):
                return self.inner.default_answer(query)
            return self.inner.answer(query)
        return self.inner.answer(query[:marker])


# --- Stores and traces ---------------------------------------------------


class Store:
    """Total map from variables to words; unset variables read as empty.

    ``size`` sums the lengths of explicitly bound variables only, so the
    default-empty fringe does not count.
    """

    __slots__ = ("_data",)

    def __init__(self, bindings: dict[str, str] | None = None):
        data = dict(bindings or {})
        for x, w in data.items():  # `is_word`, in this frame
            if not isinstance(w, str) or w.strip("01"):
                raise ValueError(f"binding {x}={w!r} is not a word over 0/1")
        self._data = data

    def get(self, name: str) -> str:
        return self._data.get(name, "")

    def set(self, name: str, value: str) -> None:
        self._data[name] = value

    def size(self) -> int:
        return sum(map(len, self._data.values()))

    def bindings(self) -> dict[str, str]:
        return dict(self._data)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._data.items()))
        return f"Store({inner})"


@dataclass(slots=True)
class ExecutionTrace:
    steps: int = 0
    initial_store_size: int = 0
    queries: list[tuple[str, str]] = field(default_factory=list)

    @property
    def m(self) -> int:
        """Max of the initial store size and the largest oracle answer."""
        longest = max((len(a) for _, a in self.queries), default=0)
        return max(self.initial_store_size, longest)


@dataclass(frozen=True, slots=True, init=False)
class RunResult:
    value: str
    store: Store
    trace: ExecutionTrace

    def __init__(self, value: str, store: Store, trace: ExecutionTrace) -> None:
        # The slots' own setters take half the time of `object.__setattr__`.
        _set_value(self, value)
        _set_store(self, store)
        _set_trace(self, trace)


# The setters of `RunResult`'s slots, which exist once the class is made.
_set_value, _set_store, _set_trace = (
    RunResult.__dict__[f.name].__set__ for f in fields(RunResult))


# --- Evaluation ----------------------------------------------------------

# Stands in for "no fuel limit": no run reaches this many steps, and an int
# bound keeps the per-step comparison cheap.
_UNLIMITED = sys.maxsize

# The attribute of a Program that holds its compiled function.
_COMPILED = "_compiled"

# A generated function holds at most this many levels of nested compound
# commands; a deeper one becomes a function of its own.  CPython allows 20
# statically nested blocks per function, and each `while` is one.
_LEVELS = 16

# The builtins as Python expressions over their argument temporaries, keyed
# by the builtin function itself, so an operator is inlined only when the
# registry resolves it to a builtin, whatever its name.  ``{i}`` reads
# argument i as it is, for its length or its truth; ``{si}`` is its word,
# in the form `_Emitter.value` gives; ``{same}`` is empty, or compares the
# lengths of the arguments when one is held in place, so that `eq` converts
# only words of one length.  A predicate is also written as the condition
# under which it gives 1: a guard made of one needs no word and is never
# stuck.  Any other guard is a word, checked for 0 or 1 once, in
# `_Emitter.guard`.
_CONDITIONS = {"eq": "{same}{s0} == {s1}", "gt0": "{0}", "geq": "len({0}) >= len({1})"}
_TEMPLATES = {
    "pred": "{s0}[1:]", "suc0": "'0' + {s0}", "suc1": "'1' + {s0}",
    "lmin": "{s0} if len({0}) < len({1}) else {s1}",
    "maxlen": "{s0} if len({0}) > len({1}) else {s1}",
    **{name: f"'1' if {test} else '0'" for name, test in _CONDITIONS.items()},
}
_INLINE = {s.fn: _TEMPLATES[s.name] for s in _BUILTINS if s.name in _TEMPLATES}
_TESTS = {s.fn: _CONDITIONS[s.name] for s in _BUILTINS if s.name in _CONDITIONS}
# The builtins that select one of their arguments.
_SELECTS = {s.fn for s in _BUILTINS if s.name in ("lmin", "maxlen")}
# The builtins a variable held in place applies to itself, as statements
# on its reversed word: the word's front is the bytearray's end.
_STEPS = {"pred": "del {0}[-1:]", "suc0": "{0}.append(48)", "suc1": "{0}.append(49)"}
_IN_PLACE = {s.fn: _STEPS[s.name] for s in _BUILTINS if s.name in _STEPS}


class _Emitter:
    """Writes the Python source of one program's functions.

    Every method that emits a node is a generator: it yields the emitters
    of the parts that must be written first, and `_compile` runs them from
    an explicit stack, so neither the length nor the depth of a program
    reaches the Python stack.  Ticks not yet added to ``s`` are counted
    in ``pending``.
    """

    def __init__(self, registry: Registry, body: Cmd):
        self.registry = registry
        self.namespace = {"FuelExhausted": FuelExhausted, "StuckGuard": StuckGuard,
                          "OracleRequired": OracleRequired}
        self.names: dict = {}  # constant -> its name in the namespace
        self.fns: dict = {}  # (operator, arity) -> its resolved function
        self.slots: dict[str, int] = {}  # variable -> the number of its local
        self.sources: list[str] = []  # the finished functions
        self.lines: list[str] | None = None  # None outside the top function
        self.slots_named: dict[int, None] = {}  # the slots this function names
        self.indent = self.level = self.pending = 0
        self.test = self.word = ""
        # The locals of the variables held in place: those that some
        # assignment updates by a chain of builtins around themselves.
        self.flipped = {f"v{self.slots.setdefault(n.target, len(self.slots))}"
                        for n in preorder(body)
                        if isinstance(n, Assign) and self.own_chain(n)}

    def const(self, value) -> str:
        """The generated name that binds ``value`` in the namespace, so no
        name, word or function of the program is written into the source."""
        name = self.names.get(value)
        if name is None:
            name = self.names[value] = f"c{len(self.names)}"
            self.namespace[name] = value
        return name

    def local(self, var: str) -> int:
        """The slot of ``var``: the function that names it keeps its word in
        the local ``v{slot}``, and sets the flag ``a{slot}`` on assignment."""
        slot = self.slots.setdefault(var, len(self.slots))
        self.slots_named[slot] = None
        return slot

    def line(self, text: str) -> None:
        self.lines.append(" " * self.indent + text)

    def charge(self) -> None:
        """Add the pending ticks to ``s``."""
        if self.pending:
            self.line(f"s += {self.pending}")
            self.pending = 0

    def check(self) -> None:
        """Charge the pending ticks and check the fuel, as every point that
        may raise or call outside code needs: the steps before it count."""
        self.charge()
        self.line("if s > L: raise FuelExhausted(L)")

    def value(self, word: str, into: str | None = None) -> str:
        """An expression for the word that ``word`` names, in the form of
        ``into``: a str, or, when ``into`` is a local held in place, a
        bytearray of its own, which is ``into`` itself when it is ``word``."""
        if into not in self.flipped:
            return f"{word}[::-1].decode()" if word in self.flipped else word
        if word == into:
            return word
        if word in self.flipped:
            return f"bytearray({word})"
        return f"bytearray({word}[::-1], 'ascii')"

    def fill(self, template: str, words: list[str], into: str | None = None) -> str:
        """``template`` over the argument names ``words``, its words in the
        form of ``into`` (see `_TEMPLATES`)."""
        same = ""
        if self.flipped.intersection(words):
            same = " == ".join(f"len({w})" for w in words) + " and "
        return template.format(*words, same=same, **{
            f"s{i}": self.value(w, into) for i, w in enumerate(words)})

    def own_chain(self, c: Assign) -> list[str] | None:
        """The templates of the statements that apply ``c`` to its target in
        place, innermost first, when its value is a chain of builtin pred,
        suc0 and suc1 around the target itself; else None."""
        steps, e = [], c.value
        while isinstance(e, OpApp) and len(e.args) == 1:
            step = _IN_PLACE.get(self.resolve(e.op, 1))
            if step is None:
                return None
            steps.append(step)
            e = e.args[0]
        if steps and isinstance(e, Var) and e.name == c.target:
            return steps[::-1]
        return None

    def resolve(self, op: str, n: int) -> Callable[..., str]:
        key = op, n
        fn = self.fns.get(key)
        if fn is None:
            registry = self.registry
            try:
                fn = registry.resolve(op, n)
            except (KeyError, ValueError):
                def fn(*words: str) -> str:  # raises again once reached
                    return registry.resolve(op, n)(*words)
            self.fns[key] = fn
        return fn

    def expr(self, e: Expr, k: int, into: str | None = None):
        """Evaluate ``e`` and leave in ``word`` the name that holds its word:
        the local of a variable or the name of a constant, read in place,
        or else ``into``, or ``t{k}`` when that is None.  The arguments of
        ``e`` go to ``t{k}``, ``t{k+1}``, ..., so nested calls never appear.
        A local held in place is an ``into`` only to lmin and maxlen, which
        may keep it; any other node makes a str in ``t{k}`` first."""
        out = f"t{k}" if into is None or into in self.flipped else into
        if isinstance(e, Var):
            self.word = f"v{self.local(e.name)}"
            self.pending += 1
        elif isinstance(e, OpApp):
            args = []
            for i, arg in enumerate(e.args):
                yield self.expr(arg, k + i)
                args.append(self.word)
            self.pending += 1
            fn = self.resolve(e.op, len(e.args))
            self.word = into if into and fn in _SELECTS else out
            if type(fn) is _Constant:
                self.word = self.const(fn.word)
            elif fn in _INLINE:  # total on words: its tick waits
                self.line(f"{self.word} = " + self.fill(_INLINE[fn], args, self.word))
            else:
                self.check()
                args = ", ".join(map(self.value, args))
                self.line(f"{self.word} = {self.const(fn)}({args})")
        elif isinstance(e, OracleCall):
            # The query is truncate-pad, in line: the first |bound| symbols
            # of the data, which a word held in place keeps in its last
            # cells, then 1, then 0 up to |bound| + 1 symbols.
            yield self.expr(e.data, k)
            data = self.word
            yield self.expr(e.bound, k + 1)
            self.pending += 1
            self.check()
            query, n, self.word = f"t{k + 1}", f"len({self.word})", out
            kept = f"{data}[:~{n}:-1].decode()" if data in self.flipped else f"{data}[:{n}]"
            self.line(f"if ans is None: raise OracleRequired({self.const(e.name)})")
            self.line(f"{query} = ({kept} + '1').ljust({n} + 1, '0')")
            self.line(f"{out} = ans({query})")
            self.line(f"if not isinstance({out}, str) or {out}.strip('01'):")
            self.line(f" raise ValueError(f'oracle answered a non-word: {{{out}!r}}')")
            self.line(f"rec(({query}, {out}))")
        else:
            raise TypeError(f"not an expression: {e!r}")

    def cmd(self, c: Cmd):
        if isinstance(c, Skip):
            self.pending += 1
        elif isinstance(c, Assign):
            slot = self.local(c.target)
            v = f"v{slot}"
            steps = self.own_chain(c) if v in self.flipped else None
            if steps:  # total on words: its ticks wait
                self.pending += len(steps) + 2
                for step in steps:
                    self.line(step.format(v))
            else:
                yield self.expr(c.value, 0, v)
                self.pending += 1
                if self.word != v:
                    self.line(f"{v} = {self.value(self.word, v)}")
            self.line(f"a{slot} = True")
        elif isinstance(c, Seq):
            # A right-nested chain's seq rules all apply after its last
            # command, so their ticks come together.
            links = 0
            while isinstance(c, Seq):
                yield self.cmd(c.first)
                c, links = c.rest, links + 1
            yield self.cmd(c)
            self.pending += links
        elif isinstance(c, (If, While)):
            if self.level == _LEVELS:
                yield self.function(c)
            else:
                self.level += 1
                yield self.branch(c) if isinstance(c, If) else self.loop(c)
                self.level -= 1
        else:
            raise TypeError(f"not a command: {c!r}")

    def guard(self, e: Expr):
        """Evaluate a guard and leave in ``test`` the Python condition under
        which it is 1.  A builtin predicate becomes that condition itself
        and is never stuck.  Any other guard is a word in ``word``, and the
        one stuck check is written here: a word outside {0, 1} charges the
        guard's ticks, checks the fuel and raises `StuckGuard`.  That costs
        at most one more string comparison per test than testing the word
        in place, in the head of the conditional or the loop."""
        fn = self.resolve(e.op, len(e.args)) if isinstance(e, OpApp) else None
        if fn in _TESTS:
            args = []
            for i, arg in enumerate(e.args):
                yield self.expr(arg, i)
                args.append(self.word)
            self.pending += 1
            self.test = self.fill(_TESTS[fn], args)
        else:
            yield self.expr(e, 0)
            word, before = self.word, self.pending
            if word in self.flipped:
                self.line(f"t0 = {self.value(word)}")
                word = "t0"
            self.line(f"if {word} != '1' and {word} != '0':")
            self.indent += 1
            self.check()
            self.line(f"raise StuckGuard({word})")
            self.indent -= 1
            self.pending = before
            self.test = f"{word} == '1'"

    def branch(self, c: If):
        yield self.guard(c.guard)
        before = self.pending
        for head, part in zip((f"if {self.test}:", "else:"), (c.then, c.orelse)):
            self.line(head)
            self.indent += 1
            self.pending = before
            yield self.cmd(part)
            self.charge()
            self.indent -= 1
        self.pending = 1

    def loop(self, c: While):
        # Charged like the unrolled derivation: one loop rule per test,
        # plus the seq rule of each unrolled iteration.  Each iteration
        # checks the fuel, so no loop outruns it.
        self.charge()
        self.line("while True:")
        self.indent += 1
        yield self.guard(c.guard)
        ticks = self.pending + 1  # the guard's and the loop rule's
        self.line(f"if not ({self.test}):")
        self.indent += 1
        self.pending = ticks
        self.charge()
        self.line("break")
        self.indent -= 1
        self.pending = ticks
        yield self.cmd(c.body)
        self.pending += 1
        self.check()
        self.indent -= 1

    def function(self, c: Cmd):
        """Emit ``c`` as a function of its own and call it from here; the
        ticks pending here are charged in it, as its first ones.

        The top function loads each variable it names into its local
        once, and at its end stores back those whose flag is set.  Any
        other passes in and returns only the locals and flags of the
        variables its own subtree names."""
        outer = self.lines, self.indent, self.level, self.slots_named
        self.lines, self.indent, self.level, self.slots_named = [], 1, 0, {}
        yield self.cmd(c)
        self.charge()
        name = f"f{len(self.sources)}"
        named = self.slots_named
        state = "".join(f", v{i}, a{i}" for i in named)
        if outer[0] is None:  # the top function, which names every variable
            head = [f"def {name}(d, s, L, ans, rec):", " get = d.get"]
            tail = []
            for var, i in self.slots.items():
                v, c = f"v{i}", self.const(var)
                read = f"get({c}, '')"
                head.append(f" {v} = {self.value(read, v)}; a{i} = False")
                tail.append(f" if a{i}: d[{c}] = {self.value(v)}")
            tail.append(" return s")
        else:
            head = [f"def {name}(s, L, ans, rec{state}):"]
            tail = [f" return s{state}"]
        self.sources.append("\n".join([*head, *self.lines, *tail]))
        self.lines, self.indent, self.level, self.slots_named = outer
        if self.lines is not None:
            self.slots_named.update(named)
            self.line(f"s{state} = {name}(s, L, ans, rec{state})")


def _compile(p: Program, registry: Registry) -> Callable[..., int]:
    """Compile ``p`` into a function ``run(store, 0, limit, answer, record)``
    that runs its body, passes each oracle query to ``answer`` (None when
    there is no oracle) and each query and answer to ``record``, and
    returns the step total of the body.  It reads each variable of the
    body from the store's dict once, into a local, and at its end writes
    back each one that an assignment has flagged; the store is left as it
    was when the run raises.  A generated sub-function takes and returns
    only the locals and flags of the variables its own subtree names.

    The function is generated as Python source and compiled with
    `compile`; it keeps all run state in its frame, so it is reentrant
    and can be shared by threads.  It ticks in the order of the
    derivation.  A run of ticks that nothing between them can interrupt,
    variable reads and builtin operators, is charged at once; every call
    to an oracle or a non-builtin operator, every stuck guard and every
    loop iteration checks the fuel first.  Errors that depend on a node
    (an unknown operator, a wrong arity, a missing oracle) are raised when
    that node is evaluated, never at compile time.
    """
    emitter = _Emitter(registry, p.body)
    stack = [emitter.function(p.body)]
    while stack:
        part = next(stack[-1], None)
        if part is None:
            stack.pop()
        else:
            stack.append(part)
    namespace = emitter.namespace
    source = "\n\n".join(emitter.sources)
    exec(compile(source, "<tierlang program>", "exec"), namespace)
    # Taken out of its namespace, the function of a program shallower than
    # `_LEVELS` forms no reference cycle with it, so dropping it frees it.
    return namespace.pop(f"f{len(emitter.sources) - 1}")


def run_program(p: Program, inputs: dict[str, str] | None = None,
                oracle: Oracle | None = None, fuel: int | None = None,
                registry: Registry | None = None) -> RunResult:
    """Execute a program from the given input bindings.

    Unbound variables start empty.  ``fuel``, when set, bounds the step
    count; exceeding it raises FuelExhausted, and a negative one raises
    ValueError.

    The program is compiled on its first run with a registry, and the
    compiled function is kept on the program object for the next runs
    with the same registry, compared by identity; a run with another
    registry compiles anew.  The function keeps no state between runs, so
    nested runs of one program and runs in several threads share it.
    """
    if fuel is not None and fuel < 0:
        raise ValueError(f"negative fuel {fuel}")
    if registry is None:
        registry = DEFAULT_REGISTRY
    store = Store(inputs)
    size = store.size()  # of the inputs alone, taken before the run
    # The function lives outside the dataclass fields, so `==`, `hash`,
    # `repr` and the exports never see it.  It is not keyed by the
    # program, since hashing a program walks its whole tree.
    compiled = p.__dict__.get(_COMPILED)
    if compiled is None or compiled[0] is not registry:
        compiled = p.__dict__[_COMPILED] = (registry, _compile(p, registry))
    limit = _UNLIMITED if fuel is None else fuel
    queries: list[tuple[str, str]] = []
    steps = compiled[1](store._data, 0, limit,
                        None if oracle is None else oracle.answer,
                        queries.append) + 1  # the program rule
    if steps > limit:
        raise FuelExhausted(fuel)
    trace = ExecutionTrace(steps=steps, initial_store_size=size, queries=queries)
    return RunResult(store._data.get(p.return_var, ""), store, trace)
