"""The names the benchmark's tracer patches, and the package's exports.

`perfbench/tracing.py` wraps layer entry points at the module or class
attributes callers look them up through.  Installing it fails if one has
gone, and a traced inference must still pass through the patched
derivation steps, so a simplification cannot silently break `--trace 1`.
"""

import importlib
import sys
from pathlib import Path

import pytest

import tierlang
from tierlang import inference, syntax, tiers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()  # looks up every attribute it patches
    try:
        yield tracer
    finally:
        tracer.uninstall()
        for name in ("tracing", "gen"):
            sys.modules.pop(name, None)


def test_tracer_patches_existing_attributes(tracer):
    patched = {(owner.__name__, attr) for owner, attr, _ in tracer._saved}
    for owner in ("tierlang.inference", "tierlang.tiers"):
        assert {(owner, "encode"), (owner, "solve_2sat")} <= patched
    assert {
        ("tierlang.inference", "infer"),
        ("tierlang.inference", "typable"),
        ("tierlang.tiers", "check"),
        ("tierlang.tiers", "build_derivation"),
        ("tierlang.tiers", "verify_derivation"),
        ("tierlang.tiers", "audit_derivation"),
        ("tierlang.semantics", "run_program"),
        ("tierlang.analysis", "run_program"),
    } <= patched
    for owner, attr, original in tracer._saved:
        assert getattr(owner, attr) is not original, (owner, attr)


def test_traced_calls_reach_the_patched_layers(tracer):
    p = syntax.parse("while (gt0(x)) { x := pred(x); y := suc1(y) } return y")
    inference.infer(p)
    tiers.check(p, {"x": 1, "y": 0}, (1, 1, 0))
    inference.typable(p)
    names = [span[0] for span in tracer.spans]
    assert names.count("tiers.build_derivation") == 2
    assert names.count("tiers.verify_derivation") == 2
    assert {"inference.infer", "tiers.check", "inference.typable"} <= set(names)


def test_every_export_resolves():
    missing = [name for name in tierlang.__all__ if not hasattr(tierlang, name)]
    assert missing == []
