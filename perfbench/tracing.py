"""Span tracing of the package's layers, from outside the package.

`Tracer.install` replaces each layer's public entry points, at the module
or class attribute the callers look them up through, with wrappers that
record a span: name, start, end, parent span and op id.  Interpreter
runs additionally get a wrapping registry and oracle, passed through
`run_program`'s own `registry` and `oracle` parameters, so operator
applications and oracle answers are timed without touching the
interpreter.  Those two fire once per step, so instead of one span per
call they are summed into their enclosing run's span as a count and a
total time.

Spans stay in memory until `write` saves them.  A span's self time is its
duration minus the time covered by its direct children and leaf sums.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from tierlang import (
    analysis,
    bruteforce,
    bulkcheck,
    corpus,
    inference,
    semantics,
    syntax,
    tiers,
)
from tierlang.operators import Registry, builtin_registry

from gen import tree_size

APPLY = "operators.apply"
ORACLE = "semantics.oracle"

# Span index fields.
NAME, START, END, PARENT, OP, CHILD = range(6)


def _derivation_nodes(d) -> int:
    count, stack = 0, [d]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


class _TracingRegistry(Registry):
    """Registry view that times every operator application."""

    def __init__(self, inner: Registry, sums: list) -> None:
        self._inner = inner
        self._sums = sums

    def __contains__(self, name: str) -> bool:
        return name in self._inner

    def lookup(self, name: str):
        return self._inner.lookup(name)

    def apply(self, name: str, args):
        start = perf_counter()
        try:
            return self._inner.apply(name, args)
        finally:
            sums = self._sums
            sums[0] += 1
            sums[1] += perf_counter() - start


class _TracingOracle(semantics.Oracle):
    """Oracle view that times every answer."""

    def __init__(self, inner, sums: list) -> None:
        self._inner = inner
        self._sums = sums

    def answer(self, query: str) -> str:
        start = perf_counter()
        try:
            return self._inner.answer(query)
        finally:
            sums = self._sums
            sums[0] += 1
            sums[1] += perf_counter() - start


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[int, dict[str, list]] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def _wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _traced_run(self, fn):
        def traced(p, inputs=None, oracle=None, fuel=None, registry=None):
            idx = self._open("semantics.run_program")
            apply_sums, oracle_sums = [0, 0.0], [0, 0.0]
            self.leaves[idx] = {APPLY: apply_sums, ORACLE: oracle_sums}
            try:
                inner = registry if registry is not None else builtin_registry()
                result = fn(
                    p, inputs,
                    oracle=None if oracle is None else _TracingOracle(oracle, oracle_sums),
                    fuel=fuel,
                    registry=_TracingRegistry(inner, apply_sums),
                )
            finally:
                self.spans[idx][CHILD] += apply_sums[1] + oracle_sums[1]
                self._close(idx)
            self.counts["semantics.steps"] += result.trace.steps
            self.counts["semantics.queries"] += len(result.trace.queries)
            self.counts["operators.apply_calls"] += apply_sums[0]
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        counts = self.counts

        def count_parse(program):
            counts["syntax.nodes"] += tree_size(program)

        def count_encode(encoding):
            counts["inference.clauses"] += len(encoding.clause_set)
            counts["inference.bool_vars"] += encoding.clause_set.num_vars

        def count_family(programs):
            counts["bruteforce.programs"] += len(programs)

        plan = [
            ((syntax, corpus), "parse", "syntax.parse", count_parse),
            ((inference, tiers), "encode", "inference.encode", count_encode),
            ((inference, tiers), "solve_2sat", "inference.solve_2sat", None),
            ((inference,), "infer", "inference.infer", None),
            ((inference,), "typable", "inference.typable", None),
            ((tiers,), "check", "tiers.check", None),
            ((tiers,), "build_derivation", "tiers.build_derivation", None),
            ((tiers,), "verify_derivation", "tiers.verify_derivation", None),
            ((analysis,), "noninterference_test", "analysis.noninterference_test", None),
            ((analysis,), "random_table_oracle", "analysis.random_table_oracle", None),
            ((analysis,), "count_lookahead_revisions",
             "analysis.count_lookahead_revisions", None),
            ((bulkcheck.BulkTyping,), "typable", "bulkcheck.BulkTyping.typable", None),
            ((bruteforce,), "enumerate_family", "bruteforce.enumerate_family",
             count_family),
            ((corpus,), "load_corpus", "corpus.load_corpus", None),
        ]
        for owners, attr, name, count in plan:
            fn = getattr(owners[0], attr)
            wrapped = self._wrap(name, fn, count)
            for owner in owners:
                self._patch(owner, attr, wrapped)

        audit = tiers.audit_derivation

        def traced_audit(derivation, gamma):
            idx = self._open("tiers.audit_derivation")
            try:
                return audit(derivation, gamma)
            finally:
                self._close(idx)
                counts["tiers.derivation_nodes"] += _derivation_nodes(derivation)

        self._patch(tiers, "audit_derivation", traced_audit)
        run = self._traced_run(semantics.run_program)
        self._patch(semantics, "run_program", run)
        self._patch(analysis, "run_program", run)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, leaf sums included."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[NAME]] += span[END] - span[START] - span[CHILD]
        for sums in self.leaves.values():
            for name, (_, seconds) in sums.items():
                totals[name] += seconds
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        """Durations of every span with this name."""
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def root_time(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def write(self, path, origin: float) -> None:
        """Save spans (times relative to `origin`) and leaf sums as JSON."""
        spans = [
            [s[NAME], round(s[START] - origin, 9), round(s[END] - origin, 9),
             s[PARENT], s[OP]]
            for s in self.spans
        ]
        leaves = [
            [idx, name, calls, round(seconds, 9)]
            for idx, sums in self.leaves.items()
            for name, (calls, seconds) in sums.items()
            if calls
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": spans,
                "leaf_fields": ["span", "name", "calls", "seconds"],
                "leaves": leaves,
            }, f, separators=(",", ":"))
