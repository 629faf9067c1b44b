"""Dynamic measurements of the guarantees the tier system promises.

Typable programs come with three semantic claims that can be watched at
run time: step counts grow polynomially in m (the larger of initial store
size and longest oracle answer), the number of lookahead revisions (oracle
queries longer than everything asked before) stays bounded by a constant
that does not depend on the input, and runs started from stores that agree
on all variables at or above a tier finish agreeing there.  This module
runs programs over input sweeps and randomized trials and reports what it
saw; it proves nothing, it measures.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping

from .operators import Registry, random_word
from .semantics import (
    ExecutionTrace,
    Oracle,
    TableOracle,
    run_program,
)
from .syntax import Program, has_oracle_call, variables_of

DEFAULT_SWEEP_FUEL = 200_000_000

# The longest word a non-interference trial draws for an initial store.
NI_MAX_WORD_LEN = 12


def count_lookahead_revisions(trace: ExecutionTrace) -> int:
    """Queries strictly longer than every earlier query; the first query
    counts."""
    revisions = 0
    longest = -1
    for query, _ in trace.queries:
        if len(query) > longest:
            revisions += 1
            longest = len(query)
    return revisions


def random_table_oracle(
    rng: random.Random, entries: int = 12, max_answer_len: int = 8
) -> TableOracle:
    """A small arbitrary oracle: a few explicit rows plus a constant
    default, all answers bounded so m stays desk-scale."""
    rows = []
    seen = set()
    for _ in range(entries):
        query = random_word(rng, 2 * max_answer_len)
        if query in seen:
            continue
        seen.add(query)
        rows.append((query, random_word(rng, max_answer_len)))
    default = random_word(rng, max_answer_len) or "1"
    return TableOracle(entries=tuple(rows), default=("constant", default))


def unary_inputs(*names: str) -> Callable[[int], dict[str, str]]:
    """Input generator binding each named variable to 1^scale."""

    def gen(scale: int) -> dict[str, str]:
        return {name: "1" * scale for name in names}

    return gen


@dataclass(frozen=True)
class SweepPoint:
    scale: int
    m: int
    steps: int
    lr: int


@dataclass(frozen=True)
class SweepReport:
    points: tuple[SweepPoint, ...]
    slope: float | None
    max_lr: int

    def to_json(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [f"{'scale':>8} {'m':>10} {'steps':>12} {'lr':>4}"]
        lines.extend(
            f"{p.scale:>8} {p.m:>10} {p.steps:>12} {p.lr:>4}" for p in self.points
        )
        slope = "n/a" if self.slope is None else f"{self.slope:.3f}"
        lines.append(f"log-log slope of steps vs m: {slope}")
        lines.append(f"max lookahead revisions: {self.max_lr}")
        return "\n".join(lines)

    def to_tsv(self) -> str:
        """Two columns, m and steps, for external plotting."""
        return "".join(f"{p.m}\t{p.steps}\n" for p in self.points)


def fit_loglog_slope(ms: Iterable[int], steps: Iterable[int]) -> float | None:
    """Least-squares slope of log(steps) against log(m); None when fewer
    than two distinct m values are available, and exactly 0.0 when the
    step count does not change."""
    pairs = [(m, s) for m, s in zip(ms, steps) if m > 0 and s > 0]
    if len({m for m, _ in pairs}) < 2:
        return None
    if len({s for _, s in pairs}) == 1:
        return 0.0  # the fit itself can round to a tiny slope of either sign
    xs = [math.log(m) for m, _ in pairs]
    ys = [math.log(s) for _, s in pairs]
    return statistics.linear_regression(xs, ys).slope


def sweep(
    program: Program,
    input_gen: Callable[[int], Mapping[str, str]],
    oracle: Oracle | None,
    scales: Iterable[int],
    *,
    fuel: int = DEFAULT_SWEEP_FUEL,
    registry: Registry | None = None,
) -> SweepReport:
    """Run the program once per scale and fit the growth of its step count.

    Points are gathered in ascending scale order; the report is
    deterministic given program, inputs and oracle.
    """
    points = []
    for scale in sorted(set(scales)):
        result = run_program(
            program, input_gen(scale), oracle=oracle, fuel=fuel, registry=registry
        )
        points.append(
            SweepPoint(
                scale=scale,
                m=result.trace.m,
                steps=result.trace.steps,
                lr=count_lookahead_revisions(result.trace),
            )
        )
    slope = fit_loglog_slope((p.m for p in points), (p.steps for p in points))
    max_lr = max((p.lr for p in points), default=0)
    return SweepReport(points=tuple(points), slope=slope, max_lr=max_lr)


@dataclass(frozen=True)
class NIFailure:
    trial: int
    variable: str
    first: str
    second: str


@dataclass(frozen=True)
class NIReport:
    level: int
    trials: int
    failures: tuple[NIFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        """The fields, with the derived `ok` before the failures."""
        level, trials, failures = asdict(self).items()
        return dict([level, trials, ("ok", self.ok), failures])


def noninterference_test(
    program: Program,
    gamma: Mapping[str, int],
    level: int,
    trials: int = 1000,
    seed: int = 0,
    *,
    registry: Registry | None = None,
    fuel: int = DEFAULT_SWEEP_FUEL,
) -> NIReport:
    """Randomized check that tiers below `level` cannot leak upward.

    Each trial draws one oracle and two initial stores that agree on every
    variable of tier >= level and differ arbitrarily below (words of at
    most NI_MAX_WORD_LEN symbols), runs both, and compares the final values
    of the high variables.  Any difference is a counterexample and is
    reported, not raised.  A negative `trials`
    raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"negative trial count {trials}")
    rng = random.Random(seed)
    names = variables_of(program)
    high = [x for x in names if gamma.get(x, 0) >= level]
    low = [x for x in names if gamma.get(x, 0) < level]
    uses_oracle = has_oracle_call(program)
    failures: list[NIFailure] = []
    for trial in range(trials):
        oracle = random_table_oracle(rng) if uses_oracle else None
        shared = {x: random_word(rng, NI_MAX_WORD_LEN) for x in high}
        first_inputs = dict(shared)
        second_inputs = dict(shared)
        for x in low:
            first_inputs[x] = random_word(rng, NI_MAX_WORD_LEN)
            second_inputs[x] = random_word(rng, NI_MAX_WORD_LEN)
        first = run_program(
            program, first_inputs, oracle=oracle, fuel=fuel, registry=registry
        )
        second = run_program(
            program, second_inputs, oracle=oracle, fuel=fuel, registry=registry
        )
        for x in high:
            a, b = first.store.get(x), second.store.get(x)
            if a != b:
                failures.append(NIFailure(trial, x, a, b))
    return NIReport(level=level, trials=trials, failures=tuple(failures))
