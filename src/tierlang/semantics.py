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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    def answer(self, query: str) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class TableOracle(Oracle):
    """Finite table with a total default rule.

    ``default`` is ``("constant", word)`` or ``("echo-length", None)``;
    the latter answers 1^|query|.
    """

    entries: tuple[tuple[str, str], ...] = ()
    default: tuple[str, str | None] = ("constant", "1")

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
        for q, a in self.entries:
            if not (is_word(q) and is_word(a)):
                raise ValueError(f"table entry ({q!r}, {a!r}) is not a word pair")

    def default_answer(self, query: str) -> str:
        kind, value = self.default
        if kind == "constant":
            return value  # type: ignore[return-value]
        return "1" * len(query)

    def answer(self, query: str) -> str:
        for q, a in self.entries:
            if q == query:
                return a
        return self.default_answer(query)

    @classmethod
    def from_json(cls, data: dict) -> "TableOracle":
        entries = tuple((e["query"], e["answer"]) for e in data.get("entries", ()))
        d = data.get("default", {"kind": "constant", "value": "1"})
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


@dataclass(frozen=True)
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

    def copy(self) -> "Store":
        return Store(self._data)

    def agree_on(self, other: "Store", names) -> bool:
        return all(self.get(x) == other.get(x) for x in names)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._data.items()))
        return f"Store({inner})"


@dataclass
class ExecutionTrace:
    steps: int = 0
    initial_store_size: int = 0
    queries: list[tuple[str, str]] = field(default_factory=list)

    @property
    def m(self) -> int:
        """Max of the initial store size and the largest oracle answer."""
        longest = max((len(a) for _, a in self.queries), default=0)
        return max(self.initial_store_size, longest)


@dataclass(frozen=True)
class RunResult:
    value: str
    store: Store
    trace: ExecutionTrace


# --- Evaluation ----------------------------------------------------------


class _Machine:
    def __init__(self, registry: Registry, oracle: Oracle | None,
                 oracle_name: str, trace: ExecutionTrace, fuel: int | None):
        self.registry = registry
        self.oracle = oracle
        self.oracle_name = oracle_name
        self.trace = trace
        self.fuel = fuel

    def tick(self) -> None:
        self.trace.steps += 1
        if self.fuel is not None and self.trace.steps > self.fuel:
            raise FuelExhausted(self.fuel)

    def eval_expr(self, e: Expr, store: Store) -> str:
        if isinstance(e, Var):
            self.tick()
            return store.get(e.name)
        if isinstance(e, OpApp):
            args = tuple(self.eval_expr(a, store) for a in e.args)
            self.tick()
            return self.registry.apply(e.op, args)
        if isinstance(e, OracleCall):
            data = self.eval_expr(e.data, store)
            bound = self.eval_expr(e.bound, store)
            self.tick()
            if self.oracle is None:
                raise OracleRequired(self.oracle_name)
            query = truncate_pad(data, bound)
            assert query, "truncate-pad can never produce the empty query"
            answer = self.oracle.answer(query)
            if not is_word(answer):
                raise ValueError(f"oracle answered a non-word: {answer!r}")
            self.trace.queries.append((query, answer))
            return answer
        raise TypeError(f"not an expression: {e!r}")

    def guard_value(self, e: Expr, store: Store) -> bool:
        w = self.eval_expr(e, store)
        if w == "0":
            return False
        if w == "1":
            return True
        raise StuckGuard(w)

    def exec_cmd(self, c: Cmd, store: Store) -> None:
        if isinstance(c, Skip):
            self.tick()
            return
        if isinstance(c, Assign):
            value = self.eval_expr(c.value, store)
            self.tick()
            store.set(c.target, value)
            return
        if isinstance(c, Seq):
            self.exec_cmd(c.first, store)
            self.exec_cmd(c.rest, store)
            self.tick()
            return
        if isinstance(c, If):
            taken = self.guard_value(c.guard, store)
            self.exec_cmd(c.then if taken else c.orelse, store)
            self.tick()
            return
        if isinstance(c, While):
            # Iterative unrolling, charged like the derivation: one loop
            # rule per test, plus the sequencing node introduced by each
            # unrolled iteration.
            while True:
                taken = self.guard_value(c.guard, store)
                self.tick()
                if not taken:
                    return
                self.exec_cmd(c.body, store)
                self.tick()
        raise TypeError(f"not a command: {c!r}")


def run_program(p: Program, inputs: dict[str, str] | None = None,
                oracle: Oracle | None = None, fuel: int | None = None,
                registry: Registry | None = None) -> RunResult:
    """Execute a program from the given input bindings.

    Unbound variables start empty.  ``fuel``, when set, bounds the step
    count; exceeding it raises FuelExhausted.
    """
    if registry is None:
        registry = DEFAULT_REGISTRY
    store = Store(inputs or {})
    trace = ExecutionTrace(initial_store_size=store.size())
    machine = _Machine(registry, oracle, p.oracle_name, trace, fuel)
    machine.exec_cmd(p.body, store)
    machine.tick()
    return RunResult(store.get(p.return_var), store, trace)
