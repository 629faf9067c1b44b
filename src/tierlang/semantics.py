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

`run_program` compiles the program body into nested closures over one
step counter and the run's store dict, so a step costs a closure call
instead of a type dispatch and a registry lookup.  It compiles once per
program and registry, not once per run: the compiled runners are pooled
on the program, and each run binds its store, fuel, oracle and query log
into the closures when it starts and drops them when it ends, so no state
survives a run.  The closures tick in the order of the derivation and
check the fuel after every tick.  A right-nested chain of `;` runs as one
loop, so the Python call depth follows the nesting of the program, not
its length.

Words are validated where they enter: input bindings (`Store`), table
rows (`TableOracle`), oracle answers, and results of operators that are
not defined in `operators.py`.  Builtins and word-literal constants return
words by construction and run unchecked.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable

from .operators import DEFAULT_REGISTRY, Registry, is_word
from .syntax import (
    Assign, Cmd, Expr, If, OpApp, OracleCall, Program, Seq, Skip, Var, While,
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
        return self.default_answer(query) if a is None else a

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
        for x, w in data.items():
            if not is_word(w):
                raise ValueError(f"binding {x}={w!r} is not a word over 0/1")
        self._data = data

    def get(self, name: str) -> str:
        return self._data.get(name, "")

    def set(self, name: str, value: str) -> None:
        self._data[name] = value

    def size(self) -> int:
        return sum(len(w) for w in self._data.values())

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


@dataclass(frozen=True, slots=True)
class RunResult:
    value: str
    store: Store
    trace: ExecutionTrace


# --- Evaluation ----------------------------------------------------------

# Stands in for "no fuel limit": no run reaches this many steps, and an int
# bound keeps the per-step comparison cheap.
_UNLIMITED = sys.maxsize

# The attribute of a Program that holds its pool of compiled runners.
_RUNNERS = "_runners"


def _compile(p: Program, registry: Registry
             ) -> Callable[[dict[str, str], int | None, Oracle | None,
                            list[tuple[str, str]]], int]:
    """Compile ``p`` into a runner ``run(store, budget, oracle, log)`` that
    runs it on the store's dict under the fuel ``budget``, appends each
    oracle query and answer to ``log``, and returns the step total.

    Each node becomes one closure that evaluates its children, ticks the
    shared step counter once per rule application and checks the fuel
    after every tick, in the order of the derivation.  Errors that depend
    on a node (an unknown operator, a wrong arity, a missing oracle) are
    raised when that node is evaluated, never at compile time.  The runner
    can be called any number of times, though not while it is running: it
    binds the run's state into the closures' cells when it starts and
    drops the store, the oracle and the query log when it ends.
    """
    steps = 0
    limit = fuel = None
    data = get = answer_of = record = None

    def expr(e: Expr) -> Callable[[], str]:
        if isinstance(e, Var):
            name = e.name

            def var() -> str:
                nonlocal steps
                steps += 1
                if steps > limit:
                    raise FuelExhausted(fuel)
                return get(name, "")

            return var
        if isinstance(e, OpApp):
            args = tuple(expr(a) for a in e.args)
            op, n = e.op, len(args)
            try:
                fn = registry.resolve(op, n)
            except (KeyError, ValueError):
                def fn(*words: str) -> str:  # raises again once reached
                    return registry.resolve(op, n)(*words)
            if n == 0:
                def app() -> str:
                    nonlocal steps
                    steps += 1
                    if steps > limit:
                        raise FuelExhausted(fuel)
                    return fn()
            elif n == 1:
                (a,) = args

                def app() -> str:
                    nonlocal steps
                    u = a()
                    steps += 1
                    if steps > limit:
                        raise FuelExhausted(fuel)
                    return fn(u)
            elif n == 2:
                a, b = args

                def app() -> str:
                    nonlocal steps
                    u = a()
                    v = b()
                    steps += 1
                    if steps > limit:
                        raise FuelExhausted(fuel)
                    return fn(u, v)
            else:
                def app() -> str:
                    nonlocal steps
                    words = [f() for f in args]
                    steps += 1
                    if steps > limit:
                        raise FuelExhausted(fuel)
                    return fn(*words)
            return app
        if isinstance(e, OracleCall):
            data_of, bound_of, name = expr(e.data), expr(e.bound), e.name

            def call() -> str:
                nonlocal steps
                v = data_of()
                bound = bound_of()
                steps += 1
                if steps > limit:
                    raise FuelExhausted(fuel)
                if answer_of is None:
                    raise OracleRequired(name)
                query = truncate_pad(v, bound)
                answer = answer_of(query)
                if not is_word(answer):
                    raise ValueError(f"oracle answered a non-word: {answer!r}")
                record((query, answer))
                return answer

            return call
        raise TypeError(f"not an expression: {e!r}")

    def cmd(c: Cmd) -> Callable[[], None]:
        if isinstance(c, Skip):
            def skip() -> None:
                nonlocal steps
                steps += 1
                if steps > limit:
                    raise FuelExhausted(fuel)

            return skip
        if isinstance(c, Assign):
            value, target = expr(c.value), c.target

            def assign() -> None:
                nonlocal steps
                v = value()
                steps += 1
                if steps > limit:
                    raise FuelExhausted(fuel)
                data[target] = v

            return assign
        if isinstance(c, Seq):
            # A right-nested chain runs as one loop.  Its seq rules all
            # apply after its last command, so their ticks come together.
            parts = []
            while isinstance(c, Seq):
                parts.append(cmd(c.first))
                c = c.rest
            parts.append(cmd(c))
            parts, ticks = tuple(parts), len(parts) - 1

            def seq() -> None:
                nonlocal steps
                for part in parts:
                    part()
                steps += ticks
                if steps > limit:
                    raise FuelExhausted(fuel)

            return seq
        if isinstance(c, If):
            guard, then, orelse = expr(c.guard), cmd(c.then), cmd(c.orelse)

            def branch() -> None:
                nonlocal steps
                w = guard()
                if w == "1":
                    then()
                elif w == "0":
                    orelse()
                else:
                    raise StuckGuard(w)
                steps += 1
                if steps > limit:
                    raise FuelExhausted(fuel)

            return branch
        if isinstance(c, While):
            guard, body = expr(c.guard), cmd(c.body)

            def loop() -> None:
                # Charged like the unrolled derivation: one loop rule per
                # test, plus the seq rule of each unrolled iteration.
                nonlocal steps
                while True:
                    w = guard()
                    if w == "1":
                        steps += 1
                        if steps > limit:
                            raise FuelExhausted(fuel)
                        body()
                        steps += 1
                        if steps > limit:
                            raise FuelExhausted(fuel)
                    elif w == "0":
                        steps += 1
                        if steps > limit:
                            raise FuelExhausted(fuel)
                        return
                    else:
                        raise StuckGuard(w)

            return loop
        raise TypeError(f"not a command: {c!r}")

    try:
        body = cmd(p.body)
    finally:
        # The two compilers reach each other through their closure cells;
        # clearing the cells leaves no reference cycle behind.
        expr = cmd = None  # type: ignore[assignment]

    def run(store: dict[str, str], budget: int | None, oracle: Oracle | None,
            log: list[tuple[str, str]]) -> int:
        nonlocal steps, limit, fuel, data, get, answer_of, record
        steps, fuel = 0, budget
        limit = _UNLIMITED if budget is None else budget
        data, get = store, store.get
        answer_of = None if oracle is None else oracle.answer
        record = log.append
        try:
            body()
            steps += 1
            if steps > limit:
                raise FuelExhausted(fuel)
            return steps
        finally:
            # A pooled runner keeps no store, oracle or query log alive.
            data = get = answer_of = record = None

    return run


def run_program(p: Program, inputs: dict[str, str] | None = None,
                oracle: Oracle | None = None, fuel: int | None = None,
                registry: Registry | None = None) -> RunResult:
    """Execute a program from the given input bindings.

    Unbound variables start empty.  ``fuel``, when set, bounds the step
    count; exceeding it raises FuelExhausted, and a negative one raises
    ValueError.

    The program is compiled once per registry: its runners are pooled on
    the program object, and each run takes one from the pool, or compiles
    a new one when the pool is empty, and gives it back when it ends.  So
    a run nested inside another run of the same program gets a runner of
    its own.  The pool holds runners for one registry, compared by
    identity; a run with another registry starts a new pool.
    """
    if fuel is not None and fuel < 0:
        raise ValueError(f"negative fuel {fuel}")
    if registry is None:
        registry = DEFAULT_REGISTRY
    store = Store(inputs or {})
    trace = ExecutionTrace(initial_store_size=store.size())
    # The pool lives outside the dataclass fields, so `==`, `hash`, `repr`
    # and the exports never see it.  It is not keyed by the program, since
    # hashing a program walks its whole tree.
    pool = p.__dict__.get(_RUNNERS)
    if pool is None or pool[0] is not registry:
        pool = p.__dict__[_RUNNERS] = (registry, [])
    runners = pool[1]
    try:
        run = runners.pop()  # atomic, so threads never share a runner
    except IndexError:
        run = _compile(p, registry)
    try:
        trace.steps = run(store._data, fuel, oracle, trace.queries)
    finally:
        runners.append(run)
    return RunResult(store.get(p.return_var), store, trace)
