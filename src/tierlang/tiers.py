"""Tier type checking: derivations, their validation, and safety audits.

A judgement assigns a command a triple (tier, inner, outer): the command's
own tier, the ceiling for operator argument tiers inside it, and the tier of
every oracle length bound inside it.  Checking pins the knobs of the tier
constraints from `inference` and, when they have a least solution, rebuilds
an explicit derivation tree whose every node names the rule applied.  The
derivation is then re-validated rule by rule, independently of the solver.

`audit_derivation` checks the semantic safety facts a valid derivation is
supposed to guarantee: expressions never read below their own tier, commands
never write above theirs, tiers only shrink downwards in the tree, and loop
tiers cap (and are capped by) the channels of everything strictly inside
them.  The audit takes an arbitrary derivation tree, so forged trees can be
fed to it in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .operators import DEFAULT_REGISTRY, OperatorSpec, Positive, Registry
from .syntax import (
    Assign,
    Cmd,
    Expr,
    If,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
    assigned_vars,
    pretty_expr,
    variables_of,
)
from .inference import Path, TierSolution, _first_mode, least_tiers

# Kept under their old names because the benchmark's tracer patches
# `tiers.encode` and `tiers.solve_2sat`.
from .inference import encode, solve_2sat  # noqa: F401


class TypedTriple(NamedTuple):
    tier: int
    inner: int
    outer: int


# Rule names used in derivation nodes.  "while-zero" is the loop rule whose
# conclusion has outer tier 0; "lift" raises a command's tier by one.
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

COMMAND_RULES = frozenset(
    {RULE_SKIP, RULE_ASSIGN, RULE_SEQ, RULE_IF, RULE_WHILE, RULE_WHILE_ZERO, RULE_LIFT}
)
EXPR_RULES = frozenset({RULE_VAR, RULE_OP, RULE_ORACLE})


@dataclass(frozen=True)
class Derivation:
    """One rule application; children are the premise derivations in order."""

    rule: str
    subject: object
    triple: TypedTriple
    children: tuple["Derivation", ...] = ()

    def walk(self) -> Iterator["Derivation"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "subject": _subject_label(self.subject),
            "triple": list(self.triple),
            "children": [c.to_json() for c in self.children],
        }


def _subject_label(subject: object) -> str:
    if isinstance(subject, Expr):
        return pretty_expr(subject)
    if isinstance(subject, Skip):
        return "skip"
    if isinstance(subject, Assign):
        return f"{subject.target} := {pretty_expr(subject.value)}"
    if isinstance(subject, Seq):
        return "seq"
    if isinstance(subject, If):
        return f"if ({pretty_expr(subject.guard)})"
    if isinstance(subject, While):
        return f"while ({pretty_expr(subject.guard)})"
    return str(subject)


def admissible_op_type(
    spec: OperatorSpec, arg_tiers: tuple[int, ...], ret_tier: int, inner: int
) -> bool:
    """Does tier signature arg_tiers -> ret_tier fit the operator at this
    inner channel?"""
    if len(arg_tiers) != spec.arity:
        return False
    if any(t > inner for t in arg_tiers):
        return False
    if any(ret_tier > t for t in arg_tiers):
        return False
    if spec.arity == 0 and ret_tier > inner:
        return False
    if isinstance(spec.classification, Positive) and ret_tier >= inner:
        return False
    return True


def admissible_op_types(
    spec: OperatorSpec, inner: int, cap: int | None = None
) -> frozenset[tuple[tuple[int, ...], int]]:
    """Enumerate every admissible (argument tiers, result tier) pair."""
    top = inner if cap is None else min(inner, cap)
    out = []
    for args in itertools.product(range(top + 1), repeat=spec.arity):
        lo = min(args) if args else top
        for ret in range(lo + 1):
            if admissible_op_type(spec, args, ret, inner):
                out.append((args, ret))
    return frozenset(out)


def check(
    program: Program,
    gamma: dict[str, int],
    triple: tuple[int, int, int],
    *,
    registry: Registry | None = None,
    t_max: int | None = None,
) -> Derivation | None:
    """Decide whether the program types at the given environment and triple.

    Returns a validated derivation tree on success, None otherwise.  `gamma`
    may leave variables out; their tiers are then chosen by the solver.
    """
    solution = least_tiers(
        program, t_max=t_max, registry=registry, gamma=gamma, triple=triple
    )
    if solution is None:
        return None
    return derive(program, solution, triple, registry)


def check_any(
    program: Program,
    gamma: dict[str, int],
    *,
    registry: Registry | None = None,
    t_max: int | None = None,
) -> tuple[TypedTriple, Derivation] | None:
    """Find some triple at which the program types under a fixed gamma."""
    found = _first_mode(program, t_max=t_max, registry=registry, gamma=gamma)
    if found is None:
        return None
    _, solution = found
    triple = TypedTriple(*solution.triple)
    return triple, derive(program, solution, triple, registry)


def derive(
    program: Program,
    solution: TierSolution,
    triple: tuple[int, int, int],
    registry: Registry | None = None,
) -> Derivation:
    """Build the derivation at `triple` from solved tiers and validate it.

    `triple` is the solution's own triple, or one with a higher root tier,
    which lift steps reach."""
    derivation = build_derivation(
        program,
        solution.var_tiers,
        solution.node_tiers,
        TypedTriple(*triple),
        outer_zero=solution.outer_zero,
    )
    verify_derivation(derivation, solution.var_tiers, registry)
    return derivation


def build_derivation(
    program: Program,
    var_tiers: dict[str, int],
    node_tiers: dict[Path, int],
    triple: TypedTriple,
    *,
    outer_zero: bool,
) -> Derivation:
    """Assemble a derivation tree from solved per-node tiers.

    Node tiers are the tiers at rule introduction; lift steps are inserted
    wherever the surrounding rule demands a higher tier.
    """

    def lift_to(d: Derivation, tier: int) -> Derivation:
        while d.triple.tier < tier:
            d = Derivation(
                RULE_LIFT,
                d.subject,
                TypedTriple(d.triple.tier + 1, d.triple.inner, d.triple.outer),
                (d,),
            )
        if d.triple.tier != tier:
            raise AssertionError(
                f"cannot lower {d.triple.tier} to {tier} at {_subject_label(d.subject)}"
            )
        return d

    def expr(e: Expr, path: Path, inner: int, outer: int) -> Derivation:
        if isinstance(e, Var):
            return Derivation(
                RULE_VAR, e, TypedTriple(var_tiers[e.name], inner, outer)
            )
        if isinstance(e, OpApp):
            kids = tuple(
                expr(a, path + (i,), inner, outer) for i, a in enumerate(e.args)
            )
            return Derivation(
                RULE_OP, e, TypedTriple(node_tiers[path], inner, outer), kids
            )
        if isinstance(e, OracleCall):
            kids = (
                expr(e.data, path + ("data",), inner, outer),
                expr(e.bound, path + ("bound",), inner, outer),
            )
            return Derivation(
                RULE_ORACLE, e, TypedTriple(node_tiers[path], inner, outer), kids
            )
        raise TypeError(f"not an expression: {e!r}")

    def cmd(c: Cmd, path: Path, inner: int, outer: int, nested: bool) -> Derivation:
        tier = node_tiers[path]
        if isinstance(c, Skip):
            return Derivation(RULE_SKIP, c, TypedTriple(0, inner, outer))
        if isinstance(c, Assign):
            value = expr(c.value, path + ("value",), inner, outer)
            return Derivation(
                RULE_ASSIGN, c, TypedTriple(tier, inner, outer), (value,)
            )
        if isinstance(c, Seq):
            first = cmd(c.first, path + ("first",), inner, outer, nested)
            rest = cmd(c.rest, path + ("rest",), inner, outer, nested)
            return Derivation(
                RULE_SEQ,
                c,
                TypedTriple(tier, inner, outer),
                (lift_to(first, tier), lift_to(rest, tier)),
            )
        if isinstance(c, If):
            guard = expr(c.guard, path + ("guard",), inner, outer)
            then = cmd(c.then, path + ("then",), inner, outer, nested)
            orelse = cmd(c.orelse, path + ("else",), inner, outer, nested)
            return Derivation(
                RULE_IF,
                c,
                TypedTriple(tier, inner, outer),
                (guard, lift_to(then, tier), lift_to(orelse, tier)),
            )
        if isinstance(c, While):
            sealed = outer_zero and not nested
            bound = tier if sealed else outer
            guard = expr(c.guard, path + ("guard",), inner, bound)
            body = lift_to(cmd(c.body, path + ("body",), tier, bound, True), tier)
            if sealed:
                return Derivation(
                    RULE_WHILE_ZERO, c, TypedTriple(tier, inner, 0), (guard, body)
                )
            return Derivation(
                RULE_WHILE, c, TypedTriple(tier, inner, outer), (guard, body)
            )
        raise TypeError(f"not a command: {c!r}")

    root = cmd(program.body, (), triple.inner, triple.outer, False)
    return lift_to(root, triple.tier)


class DerivationError(AssertionError):
    """A derivation node violates its rule's side conditions."""


def verify_derivation(
    derivation: Derivation,
    gamma: dict[str, int],
    registry: Registry | None = None,
) -> None:
    """Re-check every rule application locally; raise DerivationError if any
    node is malformed.  Independent of the solver: only the tree, the
    environment and the operator table are consulted."""
    if registry is None:
        registry = DEFAULT_REGISTRY

    def fail(d: Derivation, why: str) -> None:
        raise DerivationError(
            f"{d.rule} node for {_subject_label(d.subject)} at {d.triple}: {why}"
        )

    def walk(d: Derivation) -> None:
        t, inner, outer = d.triple
        if min(d.triple) < 0:
            fail(d, "negative tier")
        if d.rule == RULE_VAR:
            if not isinstance(d.subject, Var):
                fail(d, "subject is not a variable")
            if d.children:
                fail(d, "leaf rule with premises")
            if gamma.get(d.subject.name) != t:
                fail(d, f"environment gives {gamma.get(d.subject.name)}")
        elif d.rule == RULE_OP:
            if not isinstance(d.subject, OpApp):
                fail(d, "subject is not an operator application")
            spec = registry.lookup(d.subject.op)
            if len(d.children) != spec.arity:
                fail(d, "premise count differs from arity")
            for kid, arg in zip(d.children, d.subject.args):
                if kid.subject is not arg:
                    fail(d, "premise subject mismatch")
                if (kid.triple.inner, kid.triple.outer) != (inner, outer):
                    fail(d, "premise channels differ")
            arg_tiers = tuple(kid.triple.tier for kid in d.children)
            if not admissible_op_type(spec, arg_tiers, t, inner):
                fail(d, f"type {arg_tiers} -> {t} not admissible at inner {inner}")
        elif d.rule == RULE_ORACLE:
            if not isinstance(d.subject, OracleCall):
                fail(d, "subject is not an oracle call")
            if len(d.children) != 2:
                fail(d, "oracle rule needs data and bound premises")
            data, bound = d.children
            if data.subject is not d.subject.data or bound.subject is not d.subject.bound:
                fail(d, "premise subject mismatch")
            for kid in d.children:
                if (kid.triple.inner, kid.triple.outer) != (inner, outer):
                    fail(d, "premise channels differ")
            if data.triple.tier != t:
                fail(d, "data tier differs from call tier")
            if bound.triple.tier != outer:
                fail(d, "bound tier differs from outer channel")
            if not (t < inner and t <= outer):
                fail(d, "call tier must sit below inner and at most outer")
        elif d.rule == RULE_SKIP:
            if not isinstance(d.subject, Skip) or d.children:
                fail(d, "malformed skip node")
            if t != 0:
                fail(d, "skip introduces tier 0")
        elif d.rule == RULE_ASSIGN:
            if not isinstance(d.subject, Assign) or len(d.children) != 1:
                fail(d, "malformed assignment node")
            (value,) = d.children
            if value.subject is not d.subject.value:
                fail(d, "premise subject mismatch")
            if (value.triple.inner, value.triple.outer) != (inner, outer):
                fail(d, "premise channels differ")
            if gamma.get(d.subject.target) != t:
                fail(d, "tier differs from assigned variable's")
            if t > value.triple.tier:
                fail(d, "assigned variable outranks the value")
        elif d.rule == RULE_SEQ:
            if not isinstance(d.subject, Seq) or len(d.children) != 2:
                fail(d, "malformed sequence node")
            first, rest = d.children
            if first.subject is not d.subject.first or rest.subject is not d.subject.rest:
                fail(d, "premise subject mismatch")
            for kid in d.children:
                if kid.triple != d.triple:
                    fail(d, "sequence premises must share the conclusion triple")
        elif d.rule == RULE_IF:
            if not isinstance(d.subject, If) or len(d.children) != 3:
                fail(d, "malformed conditional node")
            guard, then, orelse = d.children
            if (
                guard.subject is not d.subject.guard
                or then.subject is not d.subject.then
                or orelse.subject is not d.subject.orelse
            ):
                fail(d, "premise subject mismatch")
            if guard.triple != d.triple:
                fail(d, "guard must carry the conclusion triple")
            if then.triple != d.triple or orelse.triple != d.triple:
                fail(d, "branches must carry the conclusion triple")
        elif d.rule in (RULE_WHILE, RULE_WHILE_ZERO):
            if not isinstance(d.subject, While) or len(d.children) != 2:
                fail(d, "malformed loop node")
            guard, body = d.children
            if guard.subject is not d.subject.guard or body.subject is not d.subject.body:
                fail(d, "premise subject mismatch")
            if t < 1:
                fail(d, "loop tier must be at least 1")
            if d.rule == RULE_WHILE:
                if t > outer:
                    fail(d, "loop tier exceeds outer channel")
                if guard.triple != TypedTriple(t, inner, outer):
                    fail(d, "guard triple mismatch")
                if body.triple != TypedTriple(t, t, outer):
                    fail(d, "body triple mismatch")
            else:
                if outer != 0:
                    fail(d, "sealing rule concludes outer tier 0")
                if guard.triple != TypedTriple(t, inner, t):
                    fail(d, "guard triple mismatch")
                if body.triple != TypedTriple(t, t, t):
                    fail(d, "body triple mismatch")
        elif d.rule == RULE_LIFT:
            if len(d.children) != 1:
                fail(d, "lift takes one premise")
            (kid,) = d.children
            if kid.subject is not d.subject:
                fail(d, "lift must keep its subject")
            if kid.triple != TypedTriple(t - 1, inner, outer):
                fail(d, "lift raises the tier by exactly one")
            if not isinstance(d.subject, Cmd):
                fail(d, "only commands can be lifted")
        else:
            fail(d, f"unknown rule {d.rule!r}")
        for kid in d.children:
            walk(kid)

    walk(derivation)


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
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "where": v.where, "detail": v.detail}
                for v in self.violations
            ],
        }


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
    """
    violations: list[AuditViolation] = []

    def flag(kind: str, d: Derivation, detail: str) -> None:
        violations.append(
            AuditViolation(kind, f"{d.rule} {_subject_label(d.subject)}", detail)
        )

    nodes = list(derivation.walk())
    for d in nodes:
        if d.rule in EXPR_RULES:
            for name in variables_of(d.subject):
                if gamma.get(name, 0) < d.triple.tier:
                    flag(
                        "read-down",
                        d,
                        f"reads {name} at tier {gamma.get(name)} from tier"
                        f" {d.triple.tier}",
                    )
        if d.rule in COMMAND_RULES and isinstance(d.subject, Cmd):
            for name in assigned_vars(d.subject):
                if gamma.get(name, 0) > d.triple.tier:
                    flag(
                        "write-up",
                        d,
                        f"assigns {name} at tier {gamma.get(name)} from tier"
                        f" {d.triple.tier}",
                    )
            for kid in d.children:
                if kid.rule in COMMAND_RULES and kid.triple.tier > d.triple.tier:
                    flag(
                        "shrink",
                        d,
                        f"subcommand tier {kid.triple.tier} above {d.triple.tier}",
                    )

    def strict_command_nodes(d: Derivation) -> Iterator[Derivation]:
        # Proper subtree nodes whose subject is a command other than d's own
        # (lift chains repeat the subject).
        for kid in d.children:
            for sub in kid.walk():
                if sub.rule in COMMAND_RULES and sub.subject is not d.subject:
                    yield sub

    for d in nodes:
        if isinstance(d.subject, While) and d.rule in COMMAND_RULES:
            for sub in strict_command_nodes(d):
                if sub.triple.inner > d.triple.tier:
                    flag(
                        "inner-cap",
                        sub,
                        f"inner channel {sub.triple.inner} above loop tier"
                        f" {d.triple.tier}",
                    )
        if d.rule in (RULE_WHILE, RULE_WHILE_ZERO):
            for sub in strict_command_nodes(d):
                if sub.triple.outer < d.triple.tier:
                    flag(
                        "outer-floor",
                        sub,
                        f"outer channel {sub.triple.outer} below loop tier"
                        f" {d.triple.tier}",
                    )
            for sub in d.walk():
                if sub is not d and sub.rule == RULE_WHILE_ZERO:
                    flag("seal-placement", sub, "sealing rule inside a loop")

    return AuditReport(ok=not violations, violations=tuple(violations))
