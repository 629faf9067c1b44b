"""Tier type checking: derivations, their validation, and safety audits.

A judgement assigns a command a triple (tier, inner, outer): the command's
own tier, the ceiling for operator argument tiers inside it, and the tier of
every oracle length bound inside it.  Checking pins the knobs of the tier
constraints from `inference` and, when they have a least solution, folds the
solution's node table into an explicit derivation tree whose every node
names the rule applied: each row's triple is the solved tiers of its three
records, and lift steps raise command premises to the tier of their rule.
All rule choices are made once, by the constraint generator.  The fold
keeps the built nodes on a stack, lifts a premise only where its tier is
below its rule's, and lets the nodes with equal triples share one
`TypedTriple`.  `Derivation` is a slotted frozen dataclass whose own
`__init__` fills a new node's slots through their setters rather than
by `object.__setattr__`, as a frozen dataclass's generated one does.  The
derivation is then re-validated independently of the solver, by
structural checks common to all rules and each rule's tier side
conditions, in a preorder walk over an explicit stack that reads each
subject's parts from `syntax._PARTS`.

`audit_derivation` checks the six safety facts a valid derivation is
supposed to guarantee: expressions never read below their own tier, commands
never write above theirs, tiers only shrink downwards in the tree, loop
tiers cap (and are capped by) the channels of everything strictly inside
them, and the sealing loop rule never sits inside a loop.  The audit takes
an arbitrary derivation tree, so forged trees can be fed to it in tests.
It is one preorder walk with an explicit stack: the enclosing loops travel
down as running aggregates, and the tiers each subject reads and writes
come from a memo, so its cost is linear in the tree plus the violations it
reports.  Subjects print with `syntax.label`, and derivations compare and
hash without recursion.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import Iterator, NamedTuple

from .operators import DEFAULT_REGISTRY, OperatorSpec, Positive, Registry
from .syntax import (
    Assign,
    Cmd,
    If,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
    _same_tree,
    _PARTS,
    assigned_vars,
    label,
    variables_of,
)
from .inference import (
    RULE_ASSIGN,
    RULE_IF,
    RULE_LIFT,
    RULE_OP,
    RULE_ORACLE,
    RULE_SEQ,
    RULE_SKIP,
    RULE_VAR,
    RULE_WHILE,
    RULE_WHILE_ZERO,
    TierSolution,
    _MODES,
    _solution,
    _solve,
)

# Kept under their old names because the benchmark's tracer patches
# `tiers.encode` and `tiers.solve_2sat`.
from .inference import encode, solve_2sat  # noqa: F401


class TypedTriple(NamedTuple):
    tier: int
    inner: int
    outer: int


# The class of subject each rule types.
_SUBJECT_CLASS = {
    RULE_VAR: Var, RULE_OP: OpApp, RULE_ORACLE: OracleCall, RULE_SKIP: Skip,
    RULE_ASSIGN: Assign, RULE_SEQ: Seq, RULE_IF: If, RULE_WHILE: While,
    RULE_WHILE_ZERO: While, RULE_LIFT: Cmd,
}
COMMAND_RULES = frozenset(r for r, cls in _SUBJECT_CLASS.items() if issubclass(cls, Cmd))
EXPR_RULES = frozenset(_SUBJECT_CLASS) - COMMAND_RULES
_LOOP_RULES = frozenset({RULE_WHILE, RULE_WHILE_ZERO})


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Derivation:
    """One rule application; children are the premise derivations in order.
    `==` and `hash` walk the tree with a stack, so any depth compares."""

    rule: str
    subject: object
    triple: TypedTriple
    children: tuple["Derivation", ...] = ()

    def __init__(self, rule: str, subject: object, triple: TypedTriple,
                 children: tuple["Derivation", ...] = ()) -> None:
        # The slots' own setters take half the time of `object.__setattr__`.
        _set_rule(self, rule)
        _set_subject(self, subject)
        _set_triple(self, triple)
        _set_children(self, children)

    def walk(self) -> Iterator["Derivation"]:
        """Every node in preorder."""
        stack = [self]
        while stack:
            d = stack.pop()
            yield d
            stack.extend(reversed(d.children))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # Equal premise counts at every node keep the two walks in step.
        # Subjects nest, so node pairs found equal once are not compared
        # again, and the whole walk is linear in the two trees.
        known: set[tuple[int, int]] = set()
        return all(
            (a.rule, a.triple, len(a.children)) == (b.rule, b.triple, len(b.children))
            and _same_tree(a.subject, b.subject, known)
            for a, b in zip(self.walk(), other.walk()))

    def __hash__(self) -> int:
        return hash(tuple((d.rule, d.triple, len(d.children)) for d in self.walk()))

    def to_json(self) -> dict:
        """The tree as nested dicts, each subject printed by `label`."""
        return {
            "rule": self.rule,
            "subject": label(self.subject),
            "triple": list(self.triple),
            "children": [c.to_json() for c in self.children],
        }


# The setters of `Derivation`'s slots, which exist once the class is made.
_set_rule, _set_subject, _set_triple, _set_children = (
    Derivation.__dict__[f.name].__set__ for f in fields(Derivation))


def admissible_op_type(
    spec: OperatorSpec, arg_tiers: tuple[int, ...], ret_tier: int, inner: int
) -> bool:
    """Does tier signature arg_tiers -> ret_tier fit the operator at this
    inner channel?"""
    if len(arg_tiers) != spec.arity:
        return False
    for t in arg_tiers:
        if t > inner or ret_tier > t:
            return False
    if spec.arity == 0 and ret_tier > inner:
        return False
    if isinstance(spec.classification, Positive) and ret_tier >= inner:
        return False
    return True


def check(
    program: Program,
    gamma: dict[str, int],
    triple: tuple[int, int, int] | None = None,
    *,
    registry: Registry | None = None,
    t_max: int | None = None,
) -> Derivation | None:
    """Decide whether the program types under `gamma`, at `triple` if given.

    Returns a validated derivation tree on success, None otherwise.  `gamma`
    may leave variables out; their tiers are then chosen by the solver.
    With no triple, the derivation is that of the least typing in the first
    mode that types the program, sealed outer channel first, and its
    `triple` is the one found.
    """
    modes = _MODES if triple is None else (None,)  # a triple fixes the mode
    solved = _solve(program, modes, t_max, registry, gamma, triple)
    if solved is None:
        return None
    solution = _solution(*solved)
    tier = solution.root_tier if triple is None else triple[0]
    return derive(solution, tier, registry)


def derive(
    solution: TierSolution,
    tier: int,
    registry: Registry | None = None,
) -> Derivation:
    """Build the derivation at root tier `tier` from solved tiers and
    validate it.

    `tier` is the solution's own root tier, or a higher one, which lift
    steps reach."""
    derivation = build_derivation(solution, tier)
    verify_derivation(derivation, solution.var_tiers, registry)
    return derivation


def _lift(d: Derivation, tier: int) -> Derivation:
    """Raise a command judgement to `tier` by lift steps."""
    t, inner, outer = d.triple
    while t < tier:
        t += 1
        d = Derivation(RULE_LIFT, d.subject, TypedTriple(t, inner, outer), (d,))
    if t != tier:
        raise AssertionError(f"cannot lower {t} to {tier} at {label(d.subject)}")
    return d


def build_derivation(solution: TierSolution, root_tier: int) -> Derivation:
    """Assemble a derivation tree by folding the solution's node table.

    Each row becomes one rule application whose triple is the solved tiers
    of its records (tier, inner channel, outer channel); its premises are
    the last rows built, and command premises are lifted to its tier.  The
    root is lifted to `root_tier`.
    """
    tiers = solution.tiers
    stack: list[Derivation] = []
    push, make = stack.append, Derivation
    triples: dict[tuple, TypedTriple] = {}  # nodes with equal triples share one
    for rule, subject, rec, in_rec, out_rec, premises in solution.nodes:
        tier = tiers[rec]
        kids = ()
        if premises:
            kids = stack[-premises:]
            del stack[-premises:]
            if rule in COMMAND_RULES:  # only commands have command premises
                for i, d in enumerate(kids):
                    if d.triple[0] != tier and d.rule in COMMAND_RULES:
                        kids[i] = _lift(d, tier)
            kids = tuple(kids)
        key = (tier, tiers[in_rec], tiers[out_rec])
        triple_here = triples.get(key)
        if triple_here is None:
            triple_here = triples[key] = TypedTriple._make(key)
        push(make(rule, subject, triple_here, kids))
    (root,) = stack
    return _lift(root, root_tier)


class DerivationError(AssertionError):
    """A derivation node violates its rule's side conditions."""


# The tier of a derivation's conclusion.
_TIER_OF = attrgetter("triple.tier")

# Rules whose premises carry the conclusion's two channels.
_SAME_CHANNELS = frozenset({RULE_OP, RULE_ORACLE, RULE_ASSIGN})


def verify_derivation(
    derivation: Derivation,
    gamma: dict[str, int],
    registry: Registry | None = None,
) -> None:
    """Re-check every rule application locally; raise DerivationError if any
    node is malformed.  Independent of the solver: only the tree, the
    environment and the operator table are consulted.  Every node passes
    the same structural checks: the rule types the subject's class, the
    premises judge the subject's parts as `syntax._PARTS` lists them, by
    identity and in order (a lift step's premise judges the subject), and
    operator, oracle and assignment premises carry the conclusion's
    channels.  What is left per rule is the paper's tier side conditions."""
    if registry is None:
        registry = DEFAULT_REGISTRY
    specs: dict[str, OperatorSpec] = {}  # each operator is looked up once

    def fail(d: Derivation, why: str) -> None:
        raise DerivationError(
            f"{d.rule} node for {label(d.subject)} at {d.triple}: {why}")

    # Preorder with an explicit stack, as `Derivation.walk` visits.
    stack = [derivation]
    pop = stack.pop
    subject_class, shape_of = _SUBJECT_CLASS.get, _PARTS.get
    while stack:
        d = pop()
        rule = d.rule
        subject = d.subject
        kids = d.children
        triple = d.triple
        t, inner, outer = triple
        if t < 0 or inner < 0 or outer < 0:
            fail(d, "negative tier")
        cls = subject_class(rule)
        if cls is None:
            fail(d, f"unknown rule {rule!r}")
        if not isinstance(subject, cls):
            fail(d, f"the rule types {cls.__name__} subjects")
        if rule == RULE_LIFT:
            parts = (subject,)
        else:
            shape = shape_of(type(subject))
            parts = shape.parts(subject) if shape else ()
        if len(kids) != len(parts):
            fail(d, "premises do not judge the subject's parts")
        if rule == RULE_VAR:  # a leaf: no premises to push or compare
            if gamma.get(subject.name) != t:
                fail(d, f"environment gives {gamma.get(subject.name)}")
            continue
        stack += kids[::-1]
        for kid, part in zip(kids, parts):
            if kid.subject is not part:
                fail(d, "premises do not judge the subject's parts")
        if rule in _SAME_CHANNELS:
            for kid in kids:
                _, kid_inner, kid_outer = kid.triple
                if kid_inner != inner or kid_outer != outer:
                    fail(d, "premise channels differ")
        if rule == RULE_OP:
            spec = specs.get(subject.op)
            if spec is None:
                if subject.op not in registry:
                    fail(d, f"unknown operator {subject.op!r}")
                spec = specs[subject.op] = registry.lookup(subject.op)
            arg_tiers = tuple(map(_TIER_OF, kids))
            if not admissible_op_type(spec, arg_tiers, t, inner):
                fail(d, f"type {arg_tiers} -> {t} not admissible at inner {inner}")
        elif rule == RULE_ASSIGN:
            if gamma.get(subject.target) != t:
                fail(d, "tier differs from assigned variable's")
            if t > kids[0].triple.tier:
                fail(d, "assigned variable outranks the value")
        elif rule == RULE_SEQ or rule == RULE_IF:
            for kid in kids:
                if kid.triple != triple:
                    fail(d, "premises must carry the conclusion triple")
        elif rule == RULE_ORACLE:
            data, bound = kids
            if data.triple.tier != t:
                fail(d, "data tier differs from call tier")
            if bound.triple.tier != outer:
                fail(d, "bound tier differs from outer channel")
            if not (t < inner and t <= outer):
                fail(d, "call tier must sit below inner and at most outer")
        elif rule == RULE_SKIP:
            if t != 0:
                fail(d, "skip introduces tier 0")
        elif rule in _LOOP_RULES:
            guard, body = kids
            if t < 1:
                fail(d, "loop tier must be at least 1")
            if rule == RULE_WHILE and t > outer:
                fail(d, "loop tier exceeds outer channel")
            if rule == RULE_WHILE_ZERO and outer != 0:
                fail(d, "sealing rule concludes outer tier 0")
            # The sealing rule bounds the oracle channel inside by t.
            bound = outer if rule == RULE_WHILE else t
            if guard.triple != (t, inner, bound):
                fail(d, "guard triple mismatch")
            if body.triple != (t, t, bound):
                fail(d, "body triple mismatch")
        elif rule == RULE_LIFT:
            if kids[0].triple != (t - 1, inner, outer):
                fail(d, "lift raises the tier by exactly one")


@dataclass(frozen=True)
class AuditViolation:
    kind: str
    where: str
    detail: str


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    violations: tuple[AuditViolation, ...]

    def to_json(self) -> dict:
        return asdict(self)


def _access_tiers(
    root: object, gamma: dict[str, int], memo: dict[int, tuple[float, float]]
) -> tuple[float, float]:
    """The least tier `root` reads and the greatest tier it assigns.

    Reads are the names `variables_of` lists (assignment targets included),
    writes the names `assigned_vars` lists; a name missing from `gamma` sits
    at tier 0.  Fills `memo`, keyed by node id, for `root` and every node
    below it not yet there: nodes are listed in preorder with a stack and
    combined in reverse, so parts come before the node they belong to.
    """
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in memo:
            shape = _PARTS.get(type(node))
            parts = shape.parts(node) if shape else ()
            order.append((node, parts))
            stack.extend(parts)
    inf = math.inf
    for node, parts in reversed(order):
        cls = type(node)
        if cls is Var:
            read, write = gamma.get(node.name, 0), -inf
        elif cls is Assign:
            write = gamma.get(node.target, 0)
            read = min(write, memo[id(node.value)][0])
        else:
            read, write = inf, -inf
            for part in parts:
                part_read, part_write = memo[id(part)]
                if part_read < read:
                    read = part_read
                if part_write > write:
                    write = part_write
        memo[id(node)] = (read, write)
    return memo[id(root)]


# What a derivation node knows of the loops enclosing it: the least tier of
# the command nodes over a `While`, the greatest tier of the loop-rule
# nodes, how many loop-rule nodes there are, and a linked chain
# (node, rest) of all those nodes, nearest first, read only for reports.
_NO_LOOPS = (math.inf, -math.inf, 0, None)


def audit_derivation(derivation: Derivation, gamma: dict[str, int]) -> AuditReport:
    """Check the safety facts a correct derivation must exhibit.

    Collected, not raised, so forged trees produce a report:

    - read-down: an expression only mentions variables at or above its tier;
    - write-up: a command only assigns variables at or below its tier;
    - shrink: a command's subcommand judgements never exceed its tier;
    - inner-cap: strictly inside a loop of tier t, inner channels stay <= t;
    - outer-floor: strictly inside a loop typed by a loop rule, outer
      channels stay >= the loop tier;
    - seal-placement: the outer-sealing loop rule never occurs strictly
      inside another loop.

    "Strictly inside" a loop node means below it with another subject, so
    the lift steps over a loop do not constrain each other.  One preorder
    walk carries the enclosing loops as running aggregates and checks each
    node against those outside its own run of same-subject ancestors;
    variable tiers come from a memo of each subject's least read and
    greatest written tier.  Names and enclosing loops are listed only where
    an aggregate shows a violation, one violation per name or per (loop,
    node) pair, in node preorder; a node's names come in the order
    `variables_of` lists them.
    """
    violations: list[AuditViolation] = []
    memo: dict[int, tuple[float, float]] = {}

    def flag(kind: str, d: Derivation, detail: str) -> None:
        violations.append(AuditViolation(kind, f"{d.rule} {label(d.subject)}", detail))

    # Each frame holds the aggregate over all enclosing nodes and over those
    # outside the node's run of ancestors with the same subject.
    stack = [(derivation, _NO_LOOPS, _NO_LOOPS)]
    pop, push = stack.pop, stack.append
    while stack:
        d, above, outside = pop()
        rule, subject, kids = d.rule, d.subject, d.children
        tier, inner, outer = d.triple
        command = rule in COMMAND_RULES
        if rule in EXPR_RULES:
            access = memo.get(id(subject)) or _access_tiers(subject, gamma, memo)
            if access[0] < tier:
                for name in variables_of(subject):
                    if gamma.get(name, 0) < tier:
                        flag(
                            "read-down",
                            d,
                            f"reads {name} at tier {gamma.get(name)} from tier {tier}",
                        )
        elif command:
            if isinstance(subject, Cmd):
                access = memo.get(id(subject)) or _access_tiers(subject, gamma, memo)
                if access[1] > tier:
                    written = assigned_vars(subject)
                    for name in variables_of(subject):
                        if name in written and gamma.get(name, 0) > tier:
                            flag(
                                "write-up",
                                d,
                                f"assigns {name} at tier {gamma.get(name)} from"
                                f" tier {tier}",
                            )
                for kid in kids:
                    kid_tier = kid.triple[0]
                    if kid_tier > tier and kid.rule in COMMAND_RULES:
                        flag("shrink", d, f"subcommand tier {kid_tier} above {tier}")
            cap, floor, _, chain = outside
            if inner > cap or outer < floor:
                while chain is not None:
                    loop, chain = chain
                    if loop.subject is subject:
                        continue
                    t = loop.triple.tier
                    if inner > t and isinstance(loop.subject, While):
                        flag("inner-cap", d, f"inner channel {inner} above loop"
                             f" tier {t}")
                    if outer < t and loop.rule in _LOOP_RULES:
                        flag("outer-floor", d, f"outer channel {outer} below loop"
                             f" tier {t}")
            if rule == RULE_WHILE_ZERO:
                for _ in range(above[2]):
                    flag("seal-placement", d, "sealing rule inside a loop")
        if not kids:
            continue
        here = above
        caps = command and isinstance(subject, While)
        loops = rule in _LOOP_RULES
        if caps or loops:
            cap, floor, seals, chain = above
            here = (
                min(cap, tier) if caps else cap,
                max(floor, tier) if loops else floor,
                seals + loops,
                (d, chain),
            )
        for kid in reversed(kids):
            push((kid, here, outside if kid.subject is subject else here))

    return AuditReport(ok=not violations, violations=tuple(violations))
