"""Slow reference audit: every lemma checked by re-walking subtrees.

This is the audit `audit_derivation` ran before it became a single pass.
It lists the variables of every node's subject and walks the subtree of
every loop once per lemma, so it is quadratic on `;` chains and cubic on
nests; it shares no traversal code with the one-pass audit, and the tests
require both to report the same violations, compared as multisets.
"""

from __future__ import annotations

from typing import Iterator

from tierlang.inference import RULE_WHILE, RULE_WHILE_ZERO
from tierlang.syntax import Cmd, While, assigned_vars, label, variables_of
from tierlang.tiers import (
    COMMAND_RULES,
    EXPR_RULES,
    AuditReport,
    AuditViolation,
    Derivation,
)


def audit_derivation(derivation: Derivation, gamma: dict[str, int]) -> AuditReport:
    violations: list[AuditViolation] = []

    def flag(kind: str, d: Derivation, detail: str) -> None:
        violations.append(
            AuditViolation(kind, f"{d.rule} {label(d.subject)}", detail)
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
