"""Tier inference: least tiers by longest paths, with a 2-SAT export.

Tiers live on the ladder 0 < 1 < ... < t_max.  Every syntactic entity that
carries a tier (variable, command node, operator or oracle expression, and
the two root channels) gets a record, and each typing rule becomes order
facts between records: a <= b, a == b, a < b, or a pin of one record to an
exact tier, an upper bound or a lower bound of 1.  `_rules` is the one place
that turns the typing rules into these facts, and it writes them straight
into the plain lists of a `_Graph`, with no method call per fact.  It
holds the rules alone; the caller's pins are set by `_constraints`.  `_rules`
also lists every node occurrence in a node table, children before parents,
with the rule that types it and the records of its tier and its two
channels; the checker in `tiers` folds that table into a derivation, and
`encode` names the records in its legend from it.

Each typing rule is a conjunction of such facts except the choice between the
two while rules.  That choice is global: the rule that seals the outer
channel to 0 is only available when the whole program types with outer tier
0, so constraints are generated twice.  Mode "outer zero" pins the root
outer channel to 0 and lets each top-level loop bound the oracle channel
with its own tier; the other mode pins the root outer channel above 0 and
treats top-level loops exactly like nested ones.

Every fact is a difference constraint tier[b] >= tier[a] + w with w in
{0, 1}, plus lower and upper pins, so the pointwise least typing is a
longest-path fixpoint (CLRS 24.4).  One builder, `_constraints`, checks the
knobs, fixes the mode, has `_rules` record the facts in a fresh `_Graph`,
each as one weighted edge in the predecessor list of the record it bounds
from below, pins the knobs (gamma's variable tiers and the root triple)
and fixes the tier cap; the default cap, the program size, is read off
the node table, so typing never walks the tree for it.
`encode` and `_solve` start from it.
`_Graph.solve` finds the least tiers in one pass of Tarjan's strongly
connected components over those lists.  A component closes only after
every record it depends on, so its least tier is set as it closes: its
highest lower pin, or an outside predecessor's tier plus the edge weight
if that is higher.  An edge of weight 1 between two members, or a tier
above t_max, means no typing, and so does a record above its upper pin at
the end.  `_solve` is the one driver: it builds and solves the graph of
each mode it is given in turn, hands the cap the first settled on to the
next, and returns the tiers of the first mode that types the program.
`least_tiers` gives it one mode and returns a `TierSolution` that keeps
the graph it solved.  `infer` gives it both, sealed mode first, and so
does `tiers.check` unless a triple fixes the mode.  `typable` only needs
the verdict, so it builds no solution.

`encode` expands the same graph into 2-SAT over threshold bits, kept as an
export and as the cross-check oracle in the tests.  Each record gets t_max+1
bits; bit i means "the tier of r is at most i".  Records are monotone (bit i
implies bit i+1) and bit t_max is pinned true, so a model denotes one tier
per record, the least i whose bit is set:

    a <= b      (-b_i  or a_i)         for every i
    a == b      both directions of <=
    a <  b      (-b_{i+1} or a_i)      for every i < t_max, plus unit -b_0

and a pin becomes one unit per bound.  Clauses come record by record, each
record's own followed by those of the edges into it, then the pins.  All
these clauses are implications between bits or unit literals, so the
models are closed under union and a greatest one exists: greatest in "at
most" bits is least in tiers.
`solve_2sat` finds it, and accepts only such implicational instances;
`to_dimacs` renders the instance, with a legend that names each record
and its bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

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
    part_names,
    variables_of,
)

# Rule names used in the node table and in derivation nodes.  "while-zero"
# is the loop rule whose conclusion has outer tier 0; "lift" raises a
# command's tier by one.
RULE_VAR = "var"
RULE_OP = "op"
RULE_ORACLE = "oracle"
RULE_SKIP = "skip"
RULE_ASSIGN = "assign"
RULE_SEQ = "seq"
RULE_IF = "if"
RULE_WHILE = "while"
RULE_WHILE_ZERO = "while-zero"
RULE_LIFT = "lift"

# One row per AST occurrence, children before parents: the rule that types
# it, the node itself, its tier record, its inner and outer channel records,
# and its number of premises.
Row = tuple[str, object, int, int, int, int]


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


class _Records(NamedTuple):
    """What `_rules` returns: the record of each variable, the node table
    and the records of the two root channels."""

    var_records: dict[str, int]
    nodes: list[Row]
    root_in: int
    root_out: int


def _bit(record: int, i: int, t_max: int) -> int:
    """DIMACS variable for "tier of record <= i" under tier cap `t_max`."""
    return record * (t_max + 1) + i + 1


@dataclass
class Encoding:
    """A tier-typing problem compiled to clauses, with its symbol table."""

    t_max: int
    clause_set: ClauseSet
    outer_zero: bool
    record_names: list[str]


class _Graph:
    """Order facts kept as difference constraints, in three plain lists
    that `_rules` appends to directly.

    `pred[b]` lists a for tier[b] >= tier[a] and ~a for the strict
    tier[b] >= tier[a] + 1, so each fact is stored once, at the record it
    bounds from below; a record is an index into `pred`.  Pins become lower
    bounds in `low` and upper bounds in `high`, each a (record, tier) pair;
    every tier is capped at `cap`.  `solve` finds the least
    tiers; `threshold_clauses` expands the same facts into the 2-SAT export,
    cap+1 clauses per record and per edge plus one unit per bound, and the
    tallies give that instance's size without building it.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.pred: list[list[int]] = []
        self.low: list[tuple[int, int]] = []
        self.high: list[tuple[int, int]] = []

    @property
    def num_bool_vars(self) -> int:
        return len(self.pred) * (self.cap + 1)

    @property
    def clause_count(self) -> int:
        edges = sum(map(len, self.pred))
        pins = len(self.low) + len(self.high)
        return (len(self.pred) + edges) * (self.cap + 1) + pins

    def pin(self, record: int, tier: int) -> None:
        """Force an exact tier."""
        self.high.append((record, tier))
        if tier > 0:
            self.low.append((record, tier))

    def solve(self) -> list[int] | None:
        """Least tier per record, or None when the facts are unsatisfiable.

        One pass of Tarjan's strongly connected components over `pred`,
        with an explicit stack.  A component closes only after every record
        its members depend on, so its least tier is set as it closes: the
        largest lower pin of its members and, for each edge into it from
        outside, the settled tier at the edge's source plus its weight.
        `base` gathers that bound as `low` gathers the component's root:
        from each record's own edges, and from its children in the search
        tree that stay in its component.  A strict edge between two members
        means no typing.
        """
        pred, cap = self.pred, self.cap
        n = len(pred)
        index = [-1] * n  # visit order; -1 until visited
        low = [0] * n
        base = [0] * n
        tiers = [-1] * n  # -1 until the record's component closes
        for r, t in self.low:  # the lower pins seed the bounds
            if base[r] < t:
                base[r] = t
        members: list[int] = []  # Tarjan's stack of records in open components
        counter = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            members.append(root)
            # The search path, an iterator over each of its records' edges,
            # and the edge by which each was reached.
            path, edges, via = [root], [iter(pred[root])], [root]
            while path:
                v = path[-1]
                for e in edges[-1]:
                    u = e if e >= 0 else ~e
                    if index[u] < 0:
                        index[u] = low[u] = counter
                        counter += 1
                        members.append(u)
                        path.append(u)
                        edges.append(iter(pred[u]))
                        via.append(e)
                        break
                    t = tiers[u]
                    if t >= 0:  # settled in a closed component
                        t += e < 0  # a strict edge weighs 1
                        if base[v] < t:
                            base[v] = t
                    elif e < 0:  # u is open, so in v's component
                        return None
                    elif index[u] < low[v]:
                        low[v] = index[u]
                else:
                    path.pop()
                    edges.pop()
                    e = via.pop()
                    t = base[v]
                    if low[v] == index[v]:  # v's component closes
                        if t > cap:
                            return None
                        while tiers[v] < 0:
                            tiers[members.pop()] = t
                        t += e < 0
                    elif e < 0:  # v stays in its parent's component
                        return None
                    elif low[v] < low[path[-1]]:
                        low[path[-1]] = low[v]
                    if path and base[path[-1]] < t:
                        base[path[-1]] = t
        for r, t in self.high:
            if tiers[r] > t:
                return None
        return tiers

    def threshold_clauses(self) -> ClauseSet:
        """The facts as 2-SAT over threshold bits; see the module docstring.
        Each record's clauses come with the clauses of the edges into it."""
        cap = self.cap
        clauses = ClauseSet(num_vars=self.num_bool_vars)
        add = clauses.add
        for b, sources in enumerate(self.pred):
            for i in range(cap):
                add(-_bit(b, i, cap), _bit(b, i + 1, cap))
            add(_bit(b, cap, cap))
            for a in sources:
                if a >= 0:
                    for i in range(cap + 1):
                        add(-_bit(b, i, cap), _bit(a, i, cap))
                else:
                    for i in range(cap):
                        add(-_bit(b, i + 1, cap), _bit(~a, i, cap))
                    add(-_bit(b, 0, cap))
        for r, t in self.low:
            add(-_bit(r, t - 1, cap))
        for r, t in self.high:
            add(_bit(r, t, cap))
        return clauses


def _constraints(
    program: Program,
    t_max: int | None,
    registry: Registry | None,
    gamma: dict[str, int] | None,
    triple: tuple[int, int, int] | None,
    outer_zero: bool | None,
) -> tuple[_Graph, _Records, bool]:
    """Check the knobs, fix the mode, have `_rules` feed the typing
    constraints to a fresh graph, pin the knobs in it and fix its tier cap;
    return the graph, the records and the mode.  A triple is checked first,
    since it fixes the mode; gamma's names are checked against the records
    of the variables.  Gamma's pins follow the rules', then the triple's:
    the root tier's upper bound, the inner channel and the outer channel.
    The default cap, the program size, is read off the node table: one row
    per node, one more per assignment for its target, and one for the
    program node."""
    if t_max is not None and t_max < 0:
        raise ValueError(f"negative tier cap {t_max}")
    if triple is not None:
        if len(triple) != 3 or min(triple) < 0:
            raise ValueError(f"bad triple {triple!r}")
        outer_zero = triple[2] == 0
    elif outer_zero is None:
        outer_zero = True
    graph = _Graph(0)  # its cap is fixed below, once the table is built
    records = _rules(program, graph, registry, outer_zero)
    pinned = 0  # the highest pinned tier, which the cap must reach
    if gamma:
        for name, tier in gamma.items():
            if name not in records.var_records:
                raise ValueError(f"gamma mentions unknown variable {name!r}")
            if tier < 0:
                raise ValueError(f"gamma gives {name!r} negative tier {tier}")
            graph.pin(records.var_records[name], tier)
        pinned = max(gamma.values())
    if triple is not None:
        t, inner, outer = triple
        graph.high.append((records.nodes[-1][2], t))
        graph.pin(records.root_in, inner)
        graph.pin(records.root_out, outer)
        pinned = max(pinned, *triple)
    if t_max is None:
        rules = list(map(itemgetter(0), records.nodes))
        t_max = len(rules) + rules.count(RULE_ASSIGN) + 1
    graph.cap = max(t_max, pinned)
    return graph, records, outer_zero


def _rules(
    program: Program,
    graph: _Graph,
    registry: Registry | None,
    outer_zero: bool,
) -> _Records:
    """Feed the typing constraints of a program to `graph` in the mode
    `outer_zero` picks; return the records of the variables, the node table
    and the two root channels.

    Records are created in preorder; rows are appended children first, so
    the last row is the root command's.  Each fact goes straight into the
    graph's lists: ``a <= b`` appends a to ``pred[b]``, ``a < b`` appends
    ~a, ``a == b`` is both directions of <=, and a pin appends to ``low``
    (above 0 only) and ``high``.  The mode pins the root outer channel."""
    if registry is None:
        registry = DEFAULT_REGISTRY
    pred, low, high = graph.pred, graph.low, graph.high
    var_records = {}
    for x in variables_of(program):
        var_records[x] = len(pred)
        pred.append([])
    root_in = len(pred)
    root_out = root_in + 1
    pred += [], []
    nodes: list[Row] = []
    row = nodes.append
    ops: dict[str, tuple[int, bool]] = {}  # operator -> (arity, positive)

    def expr(e, in_ref: int, out_ref: int) -> int:
        cls = type(e)
        if cls is Var:
            # Leaves alias the variable record; the rule for variables puts
            # no constraint on either channel.
            rec = var_records[e.name]
            row((RULE_VAR, e, rec, in_ref, out_ref, 0))
            return rec
        if cls is OpApp:
            op = ops.get(e.op)
            if op is None:
                spec = registry.lookup(e.op)
                op = ops[e.op] = (spec.arity, isinstance(spec.classification, Positive))
            arity, positive = op
            rec = len(pred)
            pred.append([])
            into_in = pred[in_ref]
            args = e.args
            for arg in args:
                arec = expr(arg, in_ref, out_ref)
                pred[arec].append(rec)  # rec <= arg
                into_in.append(arec)  # arg <= in
            if arity == 0:
                into_in.append(rec)  # rec <= in
            if positive:
                into_in.append(~rec)  # rec < in
            row((RULE_OP, e, rec, in_ref, out_ref, len(args)))
            return rec
        if cls is OracleCall:
            rec = len(pred)
            pred.append([])
            drec = expr(e.data, in_ref, out_ref)
            brec = expr(e.bound, in_ref, out_ref)
            pred[drec].append(rec)  # rec == data
            pred[rec].append(drec)
            into_out = pred[out_ref]
            into_out.append(brec)  # bound == out
            pred[brec].append(out_ref)
            pred[in_ref].append(~rec)  # rec < in
            into_out.append(rec)  # rec <= out
            row((RULE_ORACLE, e, rec, in_ref, out_ref, 2))
            return rec
        raise TypeError(f"not an expression: {e!r}")

    def cmd(c, in_ref: int, out_ref: int, nested: bool) -> int:
        cls = type(c)
        rec = len(pred)
        if cls is Seq:
            pred.append([])
            first = cmd(c.first, in_ref, out_ref, nested)
            rest = cmd(c.rest, in_ref, out_ref, nested)
            pred[rec] += first, rest  # first <= rec, rest <= rec
            rule, premises = RULE_SEQ, 2
        elif cls is Assign:
            var = var_records[c.target]
            pred.append([var])  # var == rec
            pred[var].append(rec)
            pred[expr(c.value, in_ref, out_ref)].append(var)  # var <= value
            rule, premises = RULE_ASSIGN, 1
        elif cls is Skip:
            pred.append([])
            high.append((rec, 0))  # pinned to 0
            rule, premises = RULE_SKIP, 0
        elif cls is If:
            own = []
            pred.append(own)
            guard = expr(c.guard, in_ref, out_ref)
            own.append(guard)  # guard == rec
            pred[guard].append(rec)
            own.append(cmd(c.then, in_ref, out_ref, nested))  # then <= rec
            own.append(cmd(c.orelse, in_ref, out_ref, nested))  # else <= rec
            rule, premises = RULE_IF, 3
        elif cls is While:
            own = []
            pred.append(own)
            low.append((rec, 1))  # at least 1
            if nested or not outer_zero:
                rule, bound_ref = RULE_WHILE, out_ref
                pred[out_ref].append(rec)  # rec <= out
            else:
                # Sealed mode: the loop's own tier bounds the oracle channel
                # of everything inside it, and the rule concludes at the
                # root outer channel, pinned to 0.
                rule, bound_ref = RULE_WHILE_ZERO, rec
            guard = expr(c.guard, in_ref, bound_ref)
            own.append(guard)  # guard == rec
            pred[guard].append(rec)
            own.append(cmd(c.body, rec, bound_ref, True))  # body <= rec
            premises = 2
        else:
            raise TypeError(f"not a command: {c!r}")
        row((rule, c, rec, in_ref, out_ref, premises))
        return rec

    try:
        cmd(program.body, root_in, root_out, False)
    finally:
        # The two closures reach each other through their cells; emptying
        # the cells frees them without waiting for the cycle collector.
        del expr, cmd

    if outer_zero:
        high.append((root_out, 0))  # pinned to 0
    else:
        low.append((root_out, 1))  # at least 1
    return _Records(var_records, nodes, root_in, root_out)


def _record_names(count: int, records: _Records) -> list[str]:
    """Legend names of `count` records, rebuilt from what `_rules` returned:
    a variable's record is named after the variable, and a node's record
    after its rule (with the operator or the assigned variable; both loop
    rules give `while`) and its path of part names from the root command."""
    names = [""] * count
    for x, rec in records.var_records.items():
        names[rec] = f"var {x}"
    names[records.root_in] = "root inner channel"
    names[records.root_out] = "root outer channel"
    pending = ["root"]
    # Reversed, the table lists every node before its descendants, last
    # child first; so each node's path is on top of `pending` when it comes.
    for rule, node, rec, _, _, _ in reversed(records.nodes):
        path = pending.pop()
        if rule == RULE_OP:
            names[rec] = f"op {node.op} at {path}"
        elif rule == RULE_ASSIGN:
            names[rec] = f"assign {node.target} at {path}"
        elif rule != RULE_VAR:
            names[rec] = f"{RULE_WHILE if rule == RULE_WHILE_ZERO else rule} at {path}"
        prefix = "" if path == "root" else path + "/"
        pending.extend(prefix + name for name in part_names(node))
    return names


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
    graph, records, outer_zero = _constraints(
        program, t_max, registry, gamma, triple, outer_zero
    )
    names = _record_names(len(graph.pred), records)
    return Encoding(graph.cap, graph.threshold_clauses(), outer_zero, names)


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
    """Concrete tiers, one per record, with the node table whose rows name
    the records of every node; the variable and root channel tiers are
    read out.  `graph` is the constraint graph the tiers were solved on;
    `==` and `repr` leave it out."""

    var_tiers: dict[str, int]
    tiers: list[int]
    nodes: list[Row]
    root_in: int
    root_out: int
    graph: _Graph = field(compare=False, repr=False)

    @property
    def root_tier(self) -> int:
        return self.tiers[self.nodes[-1][2]]

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.root_tier, self.root_in, self.root_out)


def _solution(tiers: list[int], records: _Records, graph: _Graph) -> TierSolution:
    """Read tiers out per record for what `_rules` returned."""
    var_tiers = {x: tiers[r] for x, r in records.var_records.items()}
    root_in, root_out = tiers[records.root_in], tiers[records.root_out]
    return TierSolution(var_tiers, tiers, records.nodes, root_in, root_out, graph)


# The two modes, in the order in which inference tries them: the sealed
# outer channel first, so programs typable at outer tier 0 report that typing.
_MODES = (True, False)


def _solve(
    program: Program,
    modes: tuple[bool | None, ...],
    t_max: int | None,
    registry: Registry | None,
    gamma: dict[str, int] | None,
    triple: tuple[int, int, int] | None,
) -> tuple[list[int], _Records, _Graph] | None:
    """The least tiers, the records and the solved graph of the first mode
    in `modes` that types the program, or None.  A mode of None is the one
    `_constraints` picks.  The cap the first mode settles on, the default
    one included, is the cap of the next."""
    for outer_zero in modes:
        graph, records, _ = _constraints(program, t_max, registry, gamma, triple, outer_zero)
        tiers = graph.solve()
        if tiers is not None:
            return tiers, records, graph
        t_max = graph.cap
    return None


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
    and returns the tiers that the greatest model of that instance,
    `solve_2sat(encoding.clause_set)`, denotes (each record's least set
    threshold bit), or None where the instance is unsatisfiable, without
    building it.  The solution keeps the graph it was solved on.
    """
    solved = _solve(program, (outer_zero,), t_max, registry, gamma, triple)
    return None if solved is None else _solution(*solved)


def to_dimacs(encoding: Encoding) -> str:
    """Render the instance in DIMACS CNF, with a record legend in comments."""
    lines = [
        f"c tier encoding, t_max={encoding.t_max},"
        f" mode={'outer-zero' if encoding.outer_zero else 'outer-positive'}"
    ]
    t = encoding.t_max
    for r, name in enumerate(encoding.record_names):
        lines.append(f"c record {r} vars {_bit(r, 0, t)}..{_bit(r, t, t)} {name}")
    cs = encoding.clause_set
    lines.append(f"p cnf {cs.num_vars} {len(cs)}")
    lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in cs.clauses)
    return "\n".join(lines) + "\n"


def typable(
    program: Program,
    *,
    t_max: int | None = None,
    registry: Registry | None = None,
) -> bool:
    """Whether `infer` finds a typing, without building a solution or a
    derivation."""
    return _solve(program, _MODES, t_max, registry, None, None) is not None


@dataclass(frozen=True)
class InferenceResult:
    """A typing found by inference, with the size of its 2-SAT instance."""

    gamma: dict[str, int]
    triple: tuple[int, int, int]
    derivation: object
    t_max: int
    clause_count: int
    num_bool_vars: int

    @property
    def outer_zero(self) -> bool:
        """The mode: only the sealed one pins the root outer channel to 0."""
        return self.triple[2] == 0

    def to_json(self) -> dict:
        return {
            "typable": True,
            "gamma": dict(sorted(self.gamma.items())),
            "triple": list(self.triple),
            "t_max": self.t_max,
            "clauses": self.clause_count,
        }


def infer(
    program: Program,
    *,
    t_max: int | None = None,
    registry: Registry | None = None,
) -> InferenceResult | None:
    """Find a tier typing with pointwise least tiers, or None.

    Both modes are tried, sealed outer channel first, so programs typable at
    outer tier 0 report that typing.  A full derivation is built from the
    solved tiers and validated rule by rule.  `clause_count` and
    `num_bool_vars` give the size of the threshold instance `encode` would
    build for the successful mode.
    """
    solved = _solve(program, _MODES, t_max, registry, None, None)
    if solved is None:
        return None
    solution = _solution(*solved)
    graph = solution.graph
    from .tiers import derive

    return InferenceResult(
        gamma=solution.var_tiers,
        triple=solution.triple,
        derivation=derive(solution, solution.root_tier, registry),
        t_max=graph.cap,
        clause_count=graph.clause_count,
        num_bool_vars=graph.num_bool_vars,
    )
