"""Tier inference: least tiers by longest paths, with a 2-SAT export.

Tiers live on the ladder 0 < 1 < ... < t_max.  Every syntactic entity that
carries a tier (variable, command node, operator or oracle expression, and
the two root channels) gets a record, and each typing rule becomes order
facts between records: a <= b, a == b, a < b, or a pin of one record to an
exact tier, an upper bound or a lower bound of 1.  `_rules` is the one place
that turns the typing rules into these facts, and `_Graph` is the one sink
that records them.

Each typing rule is a conjunction of such facts except the choice between the
two while rules.  That choice is global: the rule that seals the outer
channel to 0 is only available when the whole program types with outer tier
0, so constraints are generated twice.  Mode "outer zero" pins the root
outer channel to 0 and lets each top-level loop bound the oracle channel
with its own tier; the other mode pins the root outer channel above 0 and
treats top-level loops exactly like nested ones.

Every fact is a difference constraint tier[b] >= tier[a] + w with w in
{0, 1}, plus lower and upper pins, so the pointwise least typing is a
longest-path fixpoint (CLRS 24.4).  `least_tiers` records the facts as
weighted edges, finds the strongly connected components, and rejects the
program if an edge of weight 1 lies inside one.  Otherwise each record's
least tier is its longest path from the lower pins, computed over the
components in topological order, and the typing exists exactly when no
record then exceeds its upper pin or t_max.  `infer`, `typable` and the
checker in `tiers` all solve this way.

`encode` expands the same graph into 2-SAT over threshold bits, kept as an
export and as the cross-check oracle in the tests.  Each record gets t_max+1
bits; bit i means "the tier of r is at most i".  Records are monotone (bit i
implies bit i+1) and bit t_max is pinned true, so a model denotes one tier
per record, the least i whose bit is set:

    a <= b      (-b_i  or a_i)         for every i
    a == b      both directions of <=
    a <  b      (-b_{i+1} or a_i)      for every i < t_max, plus unit -b_0

and a pin becomes one unit per bound.  All these clauses are implications
between bits or unit literals, so the models are closed under union and a
greatest one exists: greatest in "at most" bits is least in tiers.
`solve_2sat` finds it, and accepts only such implicational instances;
`decode` reads the tiers back and `to_dimacs` renders the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .operators import DEFAULT_REGISTRY, Positive, Registry
from .syntax import (
    Assign,
    If,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
    program_size,
    variables_of,
)

# A path addresses one occurrence of a node: child tags from the root command
# down.  Sequencing uses "first"/"rest", loops "guard"/"body", conditionals
# "guard"/"then"/"else", assignments "value", oracle calls "data"/"bound",
# operator arguments their integer position.
Path = tuple


@dataclass
class ClauseSet:
    """Width-<=2 CNF over DIMACS-style signed integer literals."""

    num_vars: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)

    def add(self, *lits: int) -> None:
        if not 1 <= len(lits) <= 2:
            raise ValueError("clauses must have one or two literals")
        self.clauses.append(lits)

    def __len__(self) -> int:
        return len(self.clauses)


@dataclass
class Encoding:
    """A tier-typing problem compiled to clauses, with its symbol table."""

    program: Program
    t_max: int
    clause_set: ClauseSet
    var_records: dict[str, int]
    node_records: dict[Path, int]
    root_in: int
    root_out: int
    outer_zero: bool
    record_names: list[str]

    def bit(self, record: int, i: int) -> int:
        """DIMACS variable for "tier of record <= i"."""
        if not 0 <= i <= self.t_max:
            raise IndexError(f"threshold {i} outside 0..{self.t_max}")
        return record * (self.t_max + 1) + i + 1


def _path_name(path: Path) -> str:
    return "/".join(str(tag) for tag in path) if path else "root"


class _Graph:
    """Sink for order facts that keeps them as difference constraints.

    Record a gets an edge to record b for tier[b] >= tier[a], and a strict
    edge, listed again in `strict`, for tier[b] >= tier[a] + 1.  Pins become
    lower and upper bounds on the records they touch; every tier is capped
    at `cap`.  `solve` finds the least tiers; `threshold_clauses` expands the
    same facts into the 2-SAT export, cap+1 clauses per record and per edge
    plus one unit per bound, and the tallies give that instance's size
    without building it.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.labels: list[tuple[str, Path | None]] = []
        self.succ: list[list[int]] = []
        self.strict: dict[int, list[int]] = {}
        self.low: list[tuple[int, int]] = []
        self.high: list[tuple[int, int]] = []

    @property
    def num_bool_vars(self) -> int:
        return len(self.succ) * (self.cap + 1)

    @property
    def clause_count(self) -> int:
        edges = sum(map(len, self.succ))
        pins = len(self.low) + len(self.high)
        return (len(self.succ) + edges) * (self.cap + 1) + pins

    def new_record(self, label: str, path: Path | None = None) -> int:
        self.labels.append((label, path))
        self.succ.append([])
        return len(self.succ) - 1

    def leq(self, a: int, b: int) -> None:
        self.succ[a].append(b)

    def eq(self, a: int, b: int) -> None:
        self.succ[a].append(b)
        self.succ[b].append(a)

    def lt(self, a: int, b: int) -> None:
        self.succ[a].append(b)
        self.strict.setdefault(a, []).append(b)

    def pin(self, record: int, tier: int) -> None:
        """Force an exact tier."""
        self.pin_at_most(record, tier)
        if tier > 0:
            self.low.append((record, tier))

    def pin_at_most(self, record: int, tier: int) -> None:
        self.high.append((record, tier))

    def pin_positive(self, record: int) -> None:
        self.low.append((record, 1))

    def solve(self) -> list[int] | None:
        """Least tier per record, or None when the facts are unsatisfiable."""
        comp = _strong_components(self.succ)
        level = [0] * len(comp)  # per component; ids are below len(comp)
        for v, t in self.low:
            level[comp[v]] = max(level[comp[v]], t)
        # Component ids are reverse topological, so visiting them in
        # descending order settles each before any edge leaves it.
        succ, strict = self.succ, self.strict
        for v in sorted(range(len(comp)), key=comp.__getitem__, reverse=True):
            c = comp[v]
            here = level[c]
            for u in succ[v]:
                if level[comp[u]] < here:
                    level[comp[u]] = here
            for u in strict.get(v, ()):
                if comp[u] == c:
                    return None  # a strict edge on a cycle
                if level[comp[u]] <= here:
                    level[comp[u]] = here + 1
        tiers = [level[c] for c in comp]
        if tiers and max(tiers) > self.cap:
            return None
        if any(tiers[r] > t for r, t in self.high):
            return None
        return tiers

    def threshold_clauses(self) -> ClauseSet:
        """The facts as 2-SAT over threshold bits; see the module docstring."""
        cap = self.cap

        def bit(record: int, i: int) -> int:
            return record * (cap + 1) + i + 1

        clauses = ClauseSet(num_vars=self.num_bool_vars)
        add = clauses.add
        for a, targets in enumerate(self.succ):
            for i in range(cap):
                add(-bit(a, i), bit(a, i + 1))
            add(bit(a, cap))
            # `targets` lists strict edges too; a record can have a strict
            # and a plain edge to the same target, so match them by count.
            strict = list(self.strict.get(a, ()))
            for b in targets:
                if b in strict:
                    strict.remove(b)
                    for i in range(cap):
                        add(-bit(b, i + 1), bit(a, i))
                    add(-bit(b, 0))
                else:
                    for i in range(cap + 1):
                        add(-bit(b, i), bit(a, i))
        for r, t in self.low:
            add(-bit(r, t - 1))
        for r, t in self.high:
            add(bit(r, t))
        return clauses


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Tarjan's strongly connected components, with an explicit stack.

    Returns a component id per node.  Ids are handed out as components
    close, which is reverse topological order: an edge from component c to
    a different component d has c > d.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    tarjan: list[int] = []
    counter = 0
    closed = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        tarjan.append(root)
        path = [root]
        edges = [iter(succ[root])]
        while path:
            v = path[-1]
            for u in edges[-1]:
                if index[u] < 0:
                    index[u] = low[u] = counter
                    counter += 1
                    tarjan.append(u)
                    path.append(u)
                    edges.append(iter(succ[u]))
                    break
                if comp[u] < 0 and index[u] < low[v]:
                    low[v] = index[u]
            else:
                path.pop()
                edges.pop()
                if low[v] == index[v]:
                    while True:
                        u = tarjan.pop()
                        comp[u] = closed
                        if u == v:
                            break
                    closed += 1
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
    return comp


def _settle(
    program: Program,
    t_max: int | None,
    gamma: dict[str, int] | None,
    triple: tuple[int, int, int] | None,
    outer_zero: bool | None,
) -> tuple[int, bool]:
    """Validate the pins and fix the tier cap and the mode."""
    if t_max is None:
        t_max = program_size(program)
    if gamma:
        known = set(variables_of(program))
        for name, tier in gamma.items():
            if name not in known:
                raise ValueError(f"gamma mentions unknown variable {name!r}")
            if tier < 0:
                raise ValueError(f"gamma gives {name!r} negative tier {tier}")
        t_max = max(t_max, *gamma.values())
    if triple is not None:
        if len(triple) != 3 or min(triple) < 0:
            raise ValueError(f"bad triple {triple!r}")
        t_max = max(t_max, *triple)
        outer_zero = triple[2] == 0
    elif outer_zero is None:
        outer_zero = True
    return t_max, outer_zero


def _rules(
    program: Program,
    b: _Graph,
    registry: Registry | None,
    outer_zero: bool,
    gamma: dict[str, int] | None,
    triple: tuple[int, int, int] | None,
) -> tuple[dict[str, int], dict[Path, int], int, int]:
    """Feed the typing constraints of a program to graph `b`; return the
    records of the variables, of the nodes and of the two root channels."""
    if registry is None:
        registry = DEFAULT_REGISTRY
    var_records = {x: b.new_record(f"var {x}") for x in variables_of(program)}
    root_in = b.new_record("root inner channel")
    root_out = b.new_record("root outer channel")
    node_records: dict[Path, int] = {}

    def expr(e, path: Path, in_ref: int, out_ref: int) -> int:
        if isinstance(e, Var):
            # Leaves alias the variable record; the rule for variables puts
            # no constraint on either channel.
            return var_records[e.name]
        if isinstance(e, OpApp):
            spec = registry.lookup(e.op)
            rec = b.new_record(f"op {e.op}", path)
            node_records[path] = rec
            for i, arg in enumerate(e.args):
                arec = expr(arg, path + (i,), in_ref, out_ref)
                b.leq(rec, arec)
                b.leq(arec, in_ref)
            if spec.arity == 0:
                b.leq(rec, in_ref)
            if isinstance(spec.classification, Positive):
                b.lt(rec, in_ref)
            return rec
        if isinstance(e, OracleCall):
            rec = b.new_record("oracle", path)
            node_records[path] = rec
            drec = expr(e.data, path + ("data",), in_ref, out_ref)
            brec = expr(e.bound, path + ("bound",), in_ref, out_ref)
            b.eq(rec, drec)
            b.eq(brec, out_ref)
            b.lt(rec, in_ref)
            b.leq(rec, out_ref)
            return rec
        raise TypeError(f"not an expression: {e!r}")

    def cmd(c, path: Path, in_ref: int, out_ref: int, nested: bool) -> int:
        if isinstance(c, Skip):
            rec = b.new_record("skip", path)
            node_records[path] = rec
            b.pin(rec, 0)
            return rec
        if isinstance(c, Assign):
            rec = b.new_record(f"assign {c.target}", path)
            node_records[path] = rec
            b.eq(rec, var_records[c.target])
            erec = expr(c.value, path + ("value",), in_ref, out_ref)
            b.leq(var_records[c.target], erec)
            return rec
        if isinstance(c, Seq):
            rec = b.new_record("seq", path)
            node_records[path] = rec
            first = cmd(c.first, path + ("first",), in_ref, out_ref, nested)
            rest = cmd(c.rest, path + ("rest",), in_ref, out_ref, nested)
            b.leq(first, rec)
            b.leq(rest, rec)
            return rec
        if isinstance(c, If):
            rec = b.new_record("if", path)
            node_records[path] = rec
            grec = expr(c.guard, path + ("guard",), in_ref, out_ref)
            b.eq(grec, rec)
            then = cmd(c.then, path + ("then",), in_ref, out_ref, nested)
            orelse = cmd(c.orelse, path + ("else",), in_ref, out_ref, nested)
            b.leq(then, rec)
            b.leq(orelse, rec)
            return rec
        if isinstance(c, While):
            rec = b.new_record("while", path)
            node_records[path] = rec
            b.pin_positive(rec)
            if nested or not outer_zero:
                bound_ref = out_ref
                b.leq(rec, bound_ref)
            else:
                # Sealed mode: the loop's own tier bounds the oracle channel
                # of everything inside it.
                bound_ref = rec
            grec = expr(c.guard, path + ("guard",), in_ref, bound_ref)
            b.eq(grec, rec)
            body = cmd(c.body, path + ("body",), rec, bound_ref, True)
            b.leq(body, rec)
            return rec
        raise TypeError(f"not a command: {c!r}")

    root_rec = cmd(program.body, (), root_in, root_out, False)

    if outer_zero:
        b.pin(root_out, 0)
    else:
        b.pin_positive(root_out)
    if gamma:
        for name, tier in gamma.items():
            b.pin(var_records[name], tier)
    if triple is not None:
        t, inner, outer = triple
        b.pin_at_most(root_rec, t)
        b.pin(root_in, inner)
        b.pin(root_out, outer)
    return var_records, node_records, root_in, root_out


def encode(
    program: Program,
    *,
    t_max: int | None = None,
    registry: Registry | None = None,
    gamma: dict[str, int] | None = None,
    triple: tuple[int, int, int] | None = None,
    outer_zero: bool | None = None,
) -> Encoding:
    """Compile the typing constraints of a program to a 2-SAT instance,
    expanded from the same graph `least_tiers` solves.

    Free knobs may be pinned: `gamma` fixes variable tiers, `triple` fixes
    the root command judgement (tier, inner channel, outer channel).  When a
    triple is given its outer component selects the encoding mode; otherwise
    `outer_zero` does (default True).  `t_max` defaults to the program size,
    which is an upper bound on any tier a typing can need, and is raised as
    needed to cover pinned values.
    """
    t_max, outer_zero = _settle(program, t_max, gamma, triple, outer_zero)
    graph = _Graph(t_max)
    var_records, node_records, root_in, root_out = _rules(
        program, graph, registry, outer_zero, gamma, triple
    )
    return Encoding(
        program=program,
        t_max=t_max,
        clause_set=graph.threshold_clauses(),
        var_records=var_records,
        node_records=node_records,
        root_in=root_in,
        root_out=root_out,
        outer_zero=outer_zero,
        record_names=[
            label if path is None else f"{label} at {_path_name(path)}"
            for label, path in graph.labels
        ],
    )


def solve_2sat(clause_set: ClauseSet) -> list[bool] | None:
    """Greatest model of an implicational 2-CNF, or None if it has none.

    Every binary clause must pair a positive with a negative literal:
    (-q or p) says q implies p.  Falsity seeds at the negative unit clauses
    and spreads from the consequent of each implication to its antecedent;
    every model makes the variables it reaches false, and the candidate that
    makes all others true satisfies every implication and negative unit.
    So the instance has a model exactly when the candidate satisfies the
    positive units too, and the candidate is then the greatest model.
    """
    n = clause_set.num_vars
    back: dict[int, list[int]] = {}
    forced: list[int] = []  # forced false, not yet spread
    for cl in clause_set.clauses:
        if any(lit == 0 or abs(lit) > n for lit in cl):
            raise ValueError(f"literal out of range in {cl!r}")
        if len(cl) == 2:
            a, b = cl
            if (a > 0) == (b > 0):
                raise ValueError(f"clause {cl!r} is not an implication")
            consequent, antecedent = (a, -b) if a > 0 else (b, -a)
            back.setdefault(consequent, []).append(antecedent)
        elif cl[0] < 0:
            forced.append(-cl[0])
    model = [True] * n
    while forced:
        v = forced.pop()
        if model[v - 1]:
            model[v - 1] = False
            forced.extend(back.get(v, ()))
    for cl in clause_set.clauses:
        if not any(model[abs(lit) - 1] == (lit > 0) for lit in cl):
            return None
    return model


@dataclass(frozen=True)
class TierSolution:
    """Concrete tiers, one per variable, node and root channel."""

    var_tiers: dict[str, int]
    node_tiers: dict[Path, int]
    root_in: int
    root_out: int

    @property
    def root_tier(self) -> int:
        return self.node_tiers[()]

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.root_tier, self.root_in, self.root_out)

    @property
    def outer_zero(self) -> bool:
        """The mode: only the sealed one pins the root outer channel to 0."""
        return self.root_out == 0


def decode(encoding: Encoding, assignment: list[bool]) -> TierSolution:
    """Read tiers out of a model: least set threshold bit per record."""

    def tier_of(record: int) -> int:
        base = encoding.bit(record, 0) - 1
        bits = assignment[base : base + encoding.t_max + 1]
        tier = next(i for i, set_ in enumerate(bits) if set_)
        if not all(bits[tier:]):
            raise AssertionError(
                f"record {encoding.record_names[record]} is not monotone"
            )
        return tier

    return TierSolution(
        var_tiers={x: tier_of(r) for x, r in encoding.var_records.items()},
        node_tiers={p: tier_of(r) for p, r in encoding.node_records.items()},
        root_in=tier_of(encoding.root_in),
        root_out=tier_of(encoding.root_out),
    )


def _least(
    program: Program,
    *,
    t_max: int | None,
    registry: Registry | None,
    gamma: dict[str, int] | None = None,
    triple: tuple[int, int, int] | None = None,
    outer_zero: bool | None = None,
) -> tuple[_Graph, TierSolution | None]:
    t_max, outer_zero = _settle(program, t_max, gamma, triple, outer_zero)
    graph = _Graph(t_max)
    var_records, node_records, root_in, root_out = _rules(
        program, graph, registry, outer_zero, gamma, triple
    )
    tiers = graph.solve()
    if tiers is None:
        return graph, None
    return graph, TierSolution(
        var_tiers={x: tiers[r] for x, r in var_records.items()},
        node_tiers={p: tiers[r] for p, r in node_records.items()},
        root_in=tiers[root_in],
        root_out=tiers[root_out],
    )


def least_tiers(
    program: Program,
    *,
    t_max: int | None = None,
    registry: Registry | None = None,
    gamma: dict[str, int] | None = None,
    triple: tuple[int, int, int] | None = None,
    outer_zero: bool | None = None,
) -> TierSolution | None:
    """Pointwise least tiers for the constraints `encode` would compile.

    Takes the same knobs as `encode`, with `t_max` as the cap on every tier,
    and returns what `decode(encoding, solve_2sat(encoding.clause_set))`
    returns, or None where that instance is unsatisfiable, without building
    the threshold instance.
    """
    return _least(
        program,
        t_max=t_max,
        registry=registry,
        gamma=gamma,
        triple=triple,
        outer_zero=outer_zero,
    )[1]


def to_dimacs(encoding: Encoding) -> str:
    """Render the instance in DIMACS CNF, with a record legend in comments."""
    lines = [
        f"c tier encoding, t_max={encoding.t_max},"
        f" mode={'outer-zero' if encoding.outer_zero else 'outer-positive'}"
    ]
    width = encoding.t_max + 1
    for r, name in enumerate(encoding.record_names):
        lines.append(f"c record {r} vars {r * width + 1}..{(r + 1) * width} {name}")
    cs = encoding.clause_set
    lines.append(f"p cnf {cs.num_vars} {len(cs)}")
    lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in cs.clauses)
    return "\n".join(lines) + "\n"


def _first_mode(
    program: Program,
    *,
    t_max: int | None,
    registry: Registry | None,
    gamma: dict[str, int] | None = None,
) -> tuple[_Graph, TierSolution] | None:
    """Least tiers in the first mode that types the program, trying the
    sealed outer channel first, with the graph that was solved."""
    for outer_zero in (True, False):
        graph, solution = _least(
            program, t_max=t_max, registry=registry, gamma=gamma, outer_zero=outer_zero
        )
        if solution is not None:
            return graph, solution
    return None


def typable(
    program: Program,
    *,
    t_max: int | None = None,
    registry: Registry | None = None,
) -> bool:
    """Whether `infer` finds a typing, without building a derivation."""
    return _first_mode(program, t_max=t_max, registry=registry) is not None


@dataclass(frozen=True)
class InferenceResult:
    """A typing found by inference, with the size of its 2-SAT instance."""

    gamma: dict[str, int]
    triple: tuple[int, int, int]
    derivation: object
    outer_zero: bool
    t_max: int
    clause_count: int
    num_bool_vars: int

    def to_json(self) -> dict:
        payload = {
            "typable": True,
            "gamma": dict(sorted(self.gamma.items())),
            "triple": list(self.triple),
            "t_max": self.t_max,
            "clauses": self.clause_count,
        }
        return payload


def infer(
    program: Program,
    *,
    t_max: int | None = None,
    registry: Registry | None = None,
    with_derivation: bool = True,
) -> InferenceResult | None:
    """Find a tier typing with pointwise least tiers, or None.

    Both modes are tried, sealed outer channel first, so programs typable at
    outer tier 0 report that typing.  Unless `with_derivation` is switched
    off, a full derivation is built from the solved tiers and validated rule
    by rule.  `clause_count` and `num_bool_vars` give the size of the
    threshold instance `encode` would build for the successful mode.
    """
    found = _first_mode(program, t_max=t_max, registry=registry)
    if found is None:
        return None
    graph, solution = found
    derivation = None
    if with_derivation:
        from .tiers import derive

        derivation = derive(program, solution, solution.triple, registry)
    return InferenceResult(
        gamma=solution.var_tiers,
        triple=solution.triple,
        derivation=derivation,
        outer_zero=solution.outer_zero,
        t_max=graph.cap,
        clause_count=graph.clause_count,
        num_bool_vars=graph.num_bool_vars,
    )
