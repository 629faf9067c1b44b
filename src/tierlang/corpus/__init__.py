"""Bundled example programs with their expected analysis results.

The corpus ships as data files inside this package: one .tier source per
program and a manifest recording, for each entry, whether it should type,
at which environment and triple, the documented growth degree of its step
count, which variables an input sweep should scale, and the expected
ceiling on lookahead revisions.  One source file may back several entries
(the same program checked at different tier budgets).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from ..operators import Registry
from ..syntax import Program, parse

_HERE = resources.files(__package__)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    file: str
    typable: bool
    t_max: int | None
    gamma: dict[str, int] | None
    triple: tuple[int, int, int] | None
    degree: int | None
    scale_vars: tuple[str, ...]
    lr_bound: int | None
    ni: bool
    notes: str

    @property
    def in_sweep(self) -> bool:
        return self.degree is not None

    def source(self) -> str:
        return (_HERE / self.file).read_text()

    def program(self, registry: Registry | None = None) -> Program:
        return parse(self.source(), registry)


def load_corpus() -> tuple[CorpusEntry, ...]:
    manifest = json.loads((_HERE / "manifest.json").read_text())
    entries = []
    for raw in manifest["entries"]:
        triple = raw["triple"]
        entries.append(
            CorpusEntry(
                name=raw["name"],
                file=raw["file"],
                typable=raw["typable"],
                t_max=raw["t_max"],
                gamma=raw["gamma"],
                triple=tuple(triple) if triple is not None else None,
                degree=raw["degree"],
                scale_vars=tuple(raw["scale_vars"]),
                lr_bound=raw["lr_bound"],
                ni=raw["ni"],
                notes=raw["notes"],
            )
        )
    return tuple(entries)
