"""The four benchmark workloads: inputs, ops and output checks.

Each workload is a closed loop with one client: `run_pass` runs every op
of its fixed, seeded input set once, each op starting after the previous
one returned, and logs each op's output (or exception) and wall time.
Outputs are checked afterwards by `check`, outside the timed pass.

An op is one unit of user-visible work:

- infer-large: parse, infer at the default `t_max`, verify and audit
  one program;
- family-small: decide one canonical program with both `BulkTyping(3)`
  and `typable(t_max=3)`;
- run-long: one `run_program` on a long unary input or a big table;
- analyze-short: one `run_program` inside a non-interference test or a
  lookahead series.

Every call into the package goes through a module or class attribute at
call time (`inference.infer(...)`, never a saved reference), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import gen
import reference
from tierlang import (
    analysis,
    bruteforce,
    bulkcheck,
    inference,
    semantics,
    syntax,
    tiers,
)


class Mismatch(Exception):
    """An op returned an output that differs from the expected one."""


class OpLog:
    """Outputs and wall times of the ops of one pass."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.keys: list = []
        self.outputs: list = []
        self.seconds: list[float] = []
        # (first op index, end op index, group key, group output)
        self.groups: list[tuple[int, int, object, object]] = []

    def next_id(self) -> int:
        op_id = len(self.keys)
        if self.tracer is not None:
            self.tracer.op_id = op_id
        return op_id

    def add(self, key, output, seconds: float) -> None:
        self.keys.append(key)
        self.outputs.append(output)
        self.seconds.append(seconds)

    def run(self, key, fn, *args):
        """Time one op.  An exception is logged as its output: a failed op
        is counted, never allowed to end the run."""
        self.next_id()
        start = perf_counter()
        try:
            output = fn(*args)
        except Exception as exc:  # every failure is counted, none aborts
            output = exc
        self.add(key, output, perf_counter() - start)
        return output


def _first_differing(a: dict, b: dict) -> str:
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            return f"{name}: {a.get(name)!r} != {b.get(name)!r}"
    return ""


def check_run(result, name: str, inputs: dict, answers) -> int:
    """Compare a run with the plain-Python reference; return its steps."""
    value, store, queries = reference.run_reference(name, inputs, answers)
    got = result.store.bindings()
    if got != store:
        raise Mismatch(f"{name}: final store differs at {_first_differing(got, store)}")
    if result.value != value:
        raise Mismatch(f"{name}: returned {result.value[:40]!r}, expected {value[:40]!r}")
    if result.trace.queries != queries:
        raise Mismatch(f"{name}: oracle query trace differs")
    return result.trace.steps


class Workload:
    """Shared shape of a workload; subclasses fill in inputs and ops."""

    name = ""

    def __init__(self, seed: int, entries) -> None:
        self.entries = {e.name: e for e in entries}

    def prepare(self) -> None:
        """Work out expected outputs; runs once, outside setup and passes."""

    def run_pass(self, log: OpLog) -> None:
        raise NotImplementedError

    def check(self, key, output):
        """Raise Mismatch if the output is wrong; else return a signature
        that must repeat exactly in every pass."""
        raise NotImplementedError

    def check_group(self, key, output) -> None:
        """Check the joint output of a group of ops."""

    def is_known_failure(self, key, exc: BaseException) -> bool:
        """Does this exception reproduce a documented defect?  Such ops
        count as failed but leave the outputs correct."""
        return False

    def steps(self, log: OpLog) -> int:
        """Interpreter steps of the pass, from the run results."""
        return 0


# --- infer-large -----------------------------------------------------------


@dataclass(frozen=True)
class InferInput:
    key: str
    source: str
    t_max: int | None
    tree: object = None          # expected parse, when the benchmark built it
    gamma: dict | None = None    # expected typing, when known in advance
    triple: tuple | None = None
    typable: bool | None = None
    program_class: object = None
    known_defect: bool = False


def infer_op(source: str, t_max: int | None):
    program = syntax.parse(source)
    result = inference.infer(program, t_max=t_max)
    report = None
    if result is not None:
        tiers.verify_derivation(result.derivation, result.gamma)
        report = tiers.audit_derivation(result.derivation, result.gamma)
    return program, result, report


class InferLarge(Workload):
    """Parse, infer, verify and audit programs of every size the package
    handles: the corpus, the countdown ladder of 135, 265 and 538 nodes,
    seeded random programs, and the long and deep inputs that still fail."""

    name = "infer-large"
    LADDER_BLOCKS = (10, 20, 41)
    RANDOM_PER_CLASS = 48
    RANDOM_SIZES = (8, 48)
    LONG_STATEMENTS = 2000
    NEST_DEPTH = 1000
    DEFECT_T_MAX = 3

    def __init__(self, seed: int, entries) -> None:
        super().__init__(seed, entries)
        rng = random.Random(seed)
        items = [
            InferInput(
                f"corpus/{e.name}", e.source(), e.t_max,
                gamma=e.gamma, triple=e.triple, typable=e.typable,
            )
            for e in entries
        ]
        for blocks in self.LADDER_BLOCKS:
            tree = gen.countdown_ladder(blocks)
            gamma = {f"v{i}": 1 for i in range(blocks)}
            gamma["w"] = 0
            items.append(InferInput(f"ladder/{blocks}", gen.render(tree), None,
                                    tree=tree, gamma=gamma, typable=True))
        for cls in gen.PROGRAM_CLASSES:
            sizes = gen.stratified(rng, *self.RANDOM_SIZES, self.RANDOM_PER_CLASS)
            for i, size in enumerate(sizes):
                tree = gen.random_program(rng, cls, int(size))
                items.append(InferInput(f"random/{cls.name}/{i}", gen.render(tree),
                                        None, tree=tree, program_class=cls))
        # The pointwise least typings of these two shapes do not depend on
        # their length: every variable at 0 for the neutral chain, and x at
        # 1 under the sealed outer loop for the nest.
        long_tree = gen.straight_line(self.LONG_STATEMENTS)
        items.append(InferInput(
            f"long/{self.LONG_STATEMENTS}", gen.render(long_tree), self.DEFECT_T_MAX,
            tree=long_tree, gamma={"a": 0, "b": 0, "c": 0}, triple=(0, 0, 0),
            typable=True, known_defect=True))
        deep_tree = gen.loop_nest(self.NEST_DEPTH)
        items.append(InferInput(
            f"deep/{self.NEST_DEPTH}", gen.render(deep_tree), self.DEFECT_T_MAX,
            tree=deep_tree, gamma={"x": 1}, triple=(1, 1, 0), typable=True,
            known_defect=True))
        rng.shuffle(items)
        self.items = items
        self.by_key = {item.key: item for item in items}
        self.cap3: dict[str, bool] = {}

    def prepare(self) -> None:
        # Verdicts at tier cap 3 from the independent engines: numpy tensors
        # where they apply, direct rule search where the program uses
        # binary operators or oracle calls.
        for item in self.items:
            cls = item.program_class
            if cls is None:
                continue
            if cls.binary or cls.oracle:
                self.cap3[item.key] = bruteforce.typable_bounded(item.tree, 3)
            else:
                engine = bulkcheck.BulkTyping(3, cls.variables)
                self.cap3[item.key] = engine.typable(item.tree)

    def run_pass(self, log: OpLog) -> None:
        for item in self.items:
            log.run(item.key, infer_op, item.source, item.t_max)

    def is_known_failure(self, key, exc) -> bool:
        return self.by_key[key].known_defect and isinstance(exc, RecursionError)

    def check(self, key, output):
        item = self.by_key[key]
        program, result, report = output
        if item.tree is not None and not gen.same_tree(program, item.tree):
            raise Mismatch(f"{key}: parse tree differs from the generated one")
        expect_typable = item.typable
        if expect_typable is None and self.cap3[key]:
            expect_typable = True
        if result is None:
            if expect_typable:
                raise Mismatch(f"{key}: expected typable, infer found no typing")
            return None
        if expect_typable is False:
            raise Mismatch(f"{key}: expected untypable, infer returned {result.gamma}")
        if item.gamma is not None and result.gamma != item.gamma:
            raise Mismatch(f"{key}: gamma {result.gamma}, expected {item.gamma}")
        if item.triple is not None and result.triple != item.triple:
            raise Mismatch(f"{key}: triple {result.triple}, expected {item.triple}")
        if not report.ok:
            raise Mismatch(f"{key}: audit found {report.violations[:3]}")
        # A typing not known in advance is confirmed by direct rule search.
        if item.gamma is None and not bruteforce.program_derivable(
                program, result.gamma, result.triple):
            raise Mismatch(f"{key}: rule search rejects the inferred typing")
        return (tuple(sorted(result.gamma.items())), result.triple, result.clause_count)


# --- family-small ----------------------------------------------------------


def decide_both(engine, program):
    return engine.typable(program), inference.typable(program, t_max=3)


class FamilySmall(Workload):
    """Every canonical program of up to 10 nodes over x, y, z and pred,
    suc1, gt0, decided by the tensor engine and by `typable(t_max=3)`."""

    name = "family-small"
    FAMILY_NODES = 10
    CAP = 3

    def __init__(self, seed: int, entries) -> None:
        super().__init__(seed, entries)
        self.rng = random.Random(seed)
        self.order: list[int] | None = None

    def run_pass(self, log: OpLog) -> None:
        family = bruteforce.enumerate_family(self.FAMILY_NODES)
        engine = bulkcheck.BulkTyping(self.CAP)
        if self.order is None:
            # Seeded decision order, fixed for the run; the memo of the
            # tensor engine makes the order matter to per-op cost.
            self.order = list(range(len(family)))
            self.rng.shuffle(self.order)
        log.groups.append((0, len(self.order), "family", len(family)))
        for i in self.order:
            log.run(i, decide_both, engine, family[i])

    def check_group(self, key, output) -> None:
        if output != len(self.order):
            raise Mismatch(f"family has {output} programs, first pass had "
                           f"{len(self.order)}")

    def check(self, key, output):
        tensor, solver = output
        if tensor != solver:
            raise Mismatch(f"program {key}: BulkTyping says {tensor}, typable "
                           f"says {solver}")
        return tensor


# --- run-long --------------------------------------------------------------


@dataclass(frozen=True)
class RunInput:
    key: str
    name: str
    inputs: dict
    padded: bool


class RunLong(Workload):
    """Long unary inputs for the plain loops, and the scanning oracle
    programs behind a padded oracle over a big seeded table."""

    name = "run-long"
    # Unary scale range per program; each run draws SCALES_PER_PROGRAM
    # scales from it, one per stratum.
    ADD = (400, 1600)
    THREE_TIERS = (100, 400)
    NESTED_COPY = (16, 44)
    SCANS = (30, 150)
    ITERATE_ROUNDS = (30, 150)
    SCALES_PER_PROGRAM = 17
    TABLE_ROWS = 20_000
    UNARY_HITS = 200  # covers every unary key the scans ask for
    CYCLE = 12        # unary keys that answer along one cycle, for iterate

    def __init__(self, seed: int, entries) -> None:
        super().__init__(seed, entries)
        rng = random.Random(seed)
        self.programs = {
            name: self.entries[name].program()
            for name in ("add", "three_tiers", "nested_copy", "oracle_search",
                         "oracle_scan_tally", "iterate")
        }
        items = []

        def scales(bounds):
            return [round(s) for s in gen.stratified(rng, *bounds,
                                                     self.SCALES_PER_PROGRAM)]

        def add(name, inputs, padded=False):
            items.append(RunInput(f"{name}/{len(items)}", name, inputs, padded))

        for s in scales(self.ADD):
            add("add", {"x": "1" * s})
        for s in scales(self.THREE_TIERS):
            add("three_tiers", {"x": "1" * s})
        for s in scales(self.NESTED_COPY):
            add("nested_copy", {"x": "1" * s, "y": "1" * s})
        for s in scales(self.SCANS):
            add("oracle_search", {"x": "1" * s}, True)
        for s in scales(self.SCANS):
            add("oracle_scan_tally", {"n": "1" * s}, True)
        for rounds in scales(self.ITERATE_ROUNDS):
            # The bound a is longer than every cycle key, so after the
            # first query (a miss unless b is a cycle key) x walks the cycle.
            add("iterate", {"a": "1" * rng.randint(self.CYCLE + 1, 2 * self.CYCLE),
                            "b": gen.random_word(rng, 0, 8),
                            "c": "1" * rounds}, True)
        rng.shuffle(items)
        self.items = items
        self.by_key = {item.key: item for item in items}
        rows = gen.oracle_table(rng, self.TABLE_ROWS, self.UNARY_HITS, self.CYCLE)
        default = ("constant", "1")
        self.oracle = semantics.PaddedOracle(semantics.TableOracle(tuple(rows), default))
        self.answers = reference.TableAnswers(rows, default, padded=True)

    def run_pass(self, log: OpLog) -> None:
        for item in self.items:
            oracle = self.oracle if item.padded else None
            log.run(item.key, semantics.run_program,
                    self.programs[item.name], item.inputs, oracle)

    def check(self, key, output):
        item = self.by_key[key]
        answers = self.answers if item.padded else None
        return check_run(output, item.name, item.inputs, answers)

    def steps(self, log: OpLog) -> int:
        return sum(o.trace.steps for o in log.outputs
                   if isinstance(o, semantics.RunResult))


# --- analyze-short ---------------------------------------------------------


def _run_with_inputs(program, inputs, oracle):
    return semantics.run_program(program, inputs, oracle), inputs, oracle


class AnalyzeShort(Workload):
    """Thousands of short runs: non-interference trials of every `ni`
    corpus entry at every level, and lookahead series over small tables."""

    name = "analyze-short"
    NI_TRIALS = 300
    TABLES = 10
    SCALES = range(1, 13)

    def __init__(self, seed: int, entries) -> None:
        super().__init__(seed, entries)
        rng = random.Random(seed)
        self.ni_runs = []
        for e in entries:
            if e.ni:
                program = e.program()
                for level in sorted(set(e.gamma.values())):
                    self.ni_runs.append((e.name, program, e.gamma, level,
                                         rng.randrange(2**32)))
        self.series = []
        for e in entries:
            if e.lr_bound is not None:
                program = e.program()
                for _ in range(self.TABLES):
                    self.series.append((e.name, program, e.scale_vars, e.lr_bound,
                                        rng.randrange(2**32)))

    def run_pass(self, log: OpLog) -> None:
        current = {}
        inner_run = analysis.run_program

        def timed_run(p, inputs=None, oracle=None, fuel=None, registry=None):
            op_id = log.next_id()
            start = perf_counter()
            try:
                result = inner_run(p, inputs, oracle=oracle, fuel=fuel,
                                   registry=registry)
            except Exception as exc:
                log.add((current["group"], op_id), exc, perf_counter() - start)
                raise
            log.add((current["group"], op_id),
                    (result, inputs, oracle), perf_counter() - start)
            return result

        analysis.run_program = timed_run
        try:
            for name, program, gamma, level, seed in self.ni_runs:
                group = ("ni", name, level)
                current["group"] = group
                first = len(log.keys)
                try:
                    report = analysis.noninterference_test(
                        program, gamma, level, trials=self.NI_TRIALS, seed=seed)
                except Exception as exc:  # counted below, the pass goes on
                    report = exc
                planned = 2 * self.NI_TRIALS
                while len(log.keys) - first < planned:
                    log.add((group, len(log.keys)), report, 0.0)
                log.groups.append((first, len(log.keys), group, report))
        finally:
            analysis.run_program = inner_run

        for name, program, scale_vars, lr_bound, seed in self.series:
            group = ("lookahead", name, seed)
            first = len(log.keys)
            oracle = analysis.random_table_oracle(random.Random(seed))
            revisions = []
            for scale in self.SCALES:
                inputs = {v: "1" * scale for v in scale_vars}
                output = log.run((group, len(log.keys)), _run_with_inputs,
                                 program, inputs, oracle)
                if not isinstance(output, BaseException):
                    revisions.append(analysis.count_lookahead_revisions(output[0].trace))
            log.groups.append((first, len(log.keys), group, (lr_bound, revisions)))

    def check(self, key, output):
        (_, name, _), _ = key
        result, inputs, oracle = output
        answers = None
        if oracle is not None:
            answers = reference.TableAnswers(oracle.entries, oracle.default,
                                             padded=False)
        return check_run(result, name, inputs, answers)

    def check_group(self, key, output) -> None:
        if isinstance(output, BaseException):
            return  # its ops already count as failed
        if key[0] == "ni":
            if not output.ok:
                f = output.failures[0]
                raise Mismatch(f"{key}: {len(output.failures)} trials leak, first "
                               f"{f.variable}: {f.first!r} vs {f.second!r}")
        else:
            bound, revisions = output
            if revisions and max(revisions) > bound:
                raise Mismatch(f"{key}: lookahead revisions {max(revisions)} over "
                               f"bound {bound}")

    def steps(self, log: OpLog) -> int:
        return sum(o[0].trace.steps for o in log.outputs if isinstance(o, tuple))


WORKLOADS = {w.name: w for w in (InferLarge, FamilySmall, RunLong, AnalyzeShort)}
