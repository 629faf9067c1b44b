"""Slow reference interpreter: a plain tree walker over the AST.

This is the interpreter `run_program` used before programs were
compiled.  It dispatches on node type at every step and applies operators
through `Registry.apply`, so it shares no evaluation code with the
compiled form; the tests run both and require the same values,
stores, step counts, query traces and exceptions.
"""

from __future__ import annotations

from tierlang.operators import DEFAULT_REGISTRY, Registry, is_word
from tierlang.semantics import (
    ExecutionTrace,
    FuelExhausted,
    Oracle,
    OracleRequired,
    RunResult,
    Store,
    StuckGuard,
    truncate_pad,
)
from tierlang.syntax import (
    Assign, Cmd, Expr, If, OpApp, OracleCall, Program, Seq, Skip, Var, While,
)


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


def reference_run(p: Program, inputs: dict[str, str] | None = None,
                  oracle: Oracle | None = None, fuel: int | None = None,
                  registry: Registry | None = None) -> RunResult:
    """`run_program`'s contract, computed by walking the tree."""
    if registry is None:
        registry = DEFAULT_REGISTRY
    store = Store(inputs or {})
    trace = ExecutionTrace(initial_store_size=store.size())
    machine = _Machine(registry, oracle, p.oracle_name, trace, fuel)
    machine.exec_cmd(p.body, store)
    machine.tick()
    return RunResult(store.get(p.return_var), store, trace)
