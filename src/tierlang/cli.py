"""Command line front end.

Subcommands: parse, check, infer, run, analyze, corpus-check.  Exit codes
are a stable contract: 0 success (or typable), 1 untypable or failed
check, 2 parse or usage error (bad input, missing oracle, a program too
long or too deeply nested for the command), 3 run stuck on a bad guard,
4 fuel exhausted.

`--max-tier` takes 0 to `MAX_TIER` (10,000).  No least typing needs a
tier above the program size, which is the default cap, and a larger cap
only grows the `--emit-cnf` instance (cap + 1 clauses per record and per
edge).  A value above the limit is a usage error, raised before anything
is printed or written.

`check` and `infer` serialize the tree for `--emit-derivation` before they
print or write anything.  JSON nests one object per tree level, and at the
default recursion limit a tree more than about 490 levels deep (such as a
judgement reached by 500 lift steps) is too deep to serialize: the command
then exits 2 with one `error:` line, prints no verdict and writes no file.

Input bindings are var=VALUE where var is a variable name, and VALUE made
of 0/1 only is taken as a literal word and any other digit string as a
unary number (3 means 111).
Oracle behaviour comes from a JSON spec file; runs are otherwise fully
deterministic.  TIER_SEED in the environment overrides --seed.  Outputs
print each oracle call with the symbol it records; a program uses one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from pathlib import Path

from . import analysis
from .corpus import load_corpus
from .inference import encode, infer, to_dimacs
from .operators import builtin_registry
from .semantics import (
    FuelExhausted,
    OracleRequired,
    StuckGuard,
    TableOracle,
    run_program,
)
from .syntax import (
    KEYWORDS,
    ParseError,
    has_oracle_call,
    parse,
    pretty,
    program_to_json,
    variables_of,
)
from .tiers import audit_derivation, check

EXIT_OK = 0
EXIT_UNTYPABLE = 1
EXIT_PARSE = 2
EXIT_STUCK = 3
EXIT_FUEL = 4

MAX_TIER = 10_000


def _read_program(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _parse_input_value(text: str) -> str:
    if not text:
        return ""
    if set(text) <= {"0", "1"}:
        return text
    if text.isdigit():
        return "1" * int(text)
    raise ValueError(f"input value {text!r} is neither a word nor a number")


def _parse_bindings(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected var=value, got {pair!r}")
        name, _, value = pair.partition("=")
        name = name.strip()
        # A variable name as the lexer reads one: no program reads others.
        if (not re.fullmatch(r"\w+", name) or name in KEYWORDS
                or not (name[0].isalpha() or name[0] == "_")):
            raise ValueError(f"input name {name!r} is not a variable name")
        out[name] = _parse_input_value(value.strip())
    return out


def _parse_gamma(text: str) -> dict[str, int]:
    gamma: dict[str, int] = {}
    for item in filter(None, text.split(",")):
        name, eq, tier = item.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError(f"expected var=tier, got {item!r}")
        if name in gamma:
            raise ValueError(f"--gamma gives {name!r} twice")
        gamma[name] = int(tier)
    return gamma


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"triple needs three components, got {text!r}")
    return (parts[0], parts[1], parts[2])


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"range must be lo:hi or lo:hi:step, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step <= 0 or lo > hi:
        raise ValueError(f"range {text!r} needs lo <= hi and a positive step")
    return list(range(lo, hi + 1, step))


def _seed(args) -> int:
    env = os.environ.get("TIER_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _tier_cap(args) -> int | None:
    """The --max-tier value, refused above MAX_TIER."""
    if args.max_tier is not None and args.max_tier > MAX_TIER:
        raise ValueError(f"--max-tier {args.max_tier} is above the limit {MAX_TIER}")
    return args.max_tier


def _load_oracle(path: str | None) -> TableOracle | None:
    if path is None:
        return None
    return TableOracle.load(path)


def _derivation_text(derivation) -> str:
    # Serialized before anything is printed or opened, so a tree too deep
    # for `json` ends the command with one error line and no file.
    return json.dumps(derivation.to_json(), indent=2)


def cmd_parse(args) -> int:
    program = _read_program(args.source)
    if args.format == "json":
        print(json.dumps(program_to_json(program), indent=2))
    else:
        print(pretty(program), end="")
    return EXIT_OK


def cmd_check(args) -> int:
    program = _read_program(args.source)
    gamma = _parse_gamma(args.gamma) if args.gamma else {}
    triple = _parse_triple(args.triple)
    derivation = check(program, gamma, triple, t_max=_tier_cap(args))
    ok = derivation is not None
    tree = None
    if ok and args.emit_derivation:
        tree = _derivation_text(derivation)
    if args.format == "json":
        payload = {"ok": ok, "gamma": gamma, "triple": list(triple)}
        if tree is not None:
            payload["derivation"] = args.emit_derivation
        print(json.dumps(payload, indent=2))
    else:
        print("typable at the given judgement" if ok else "does not type there")
    if tree is not None:
        Path(args.emit_derivation).write_text(tree, encoding="utf-8")
    return EXIT_OK if ok else EXIT_UNTYPABLE


def cmd_infer(args) -> int:
    program = _read_program(args.source)
    result = infer(program, t_max=_tier_cap(args))
    tree = None
    if result is not None and args.emit_derivation:
        tree = _derivation_text(result.derivation)
    if args.emit_cnf:
        # The instance of the mode the typing was found in, so its greatest
        # model decodes to the reported typing; the sealed mode if none.
        outer_zero = result is None or result.outer_zero
        encoding = encode(program, t_max=args.max_tier, outer_zero=outer_zero)
        with open(args.emit_cnf, "w", encoding="utf-8") as fh:
            fh.write(to_dimacs(encoding))
    if result is None:
        if args.format == "json":
            print(json.dumps({"typable": False}))
        else:
            print("untypable")
        return EXIT_UNTYPABLE
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        gamma = " ".join(f"{x}:{t}" for x, t in sorted(result.gamma.items()))
        t, inner, outer = result.triple
        print(f"typable  tier {t}  inner {inner}  outer {outer}")
        print(f"gamma    {gamma}")
    if tree is not None:
        Path(args.emit_derivation).write_text(tree, encoding="utf-8")
    return EXIT_OK


def cmd_run(args) -> int:
    program = _read_program(args.source)
    inputs = _parse_bindings(args.input)
    oracle = _load_oracle(args.oracle)
    result = run_program(program, inputs, oracle=oracle, fuel=args.fuel)
    lr = analysis.count_lookahead_revisions(result.trace)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "value": result.value,
                    "steps": result.trace.steps,
                    "m": result.trace.m,
                    "lr": lr,
                    "queries": [list(q) for q in result.trace.queries],
                }
            )
        )
    else:
        print(result.value)
        print(
            f"steps {result.trace.steps}  m {result.trace.m}  lr {lr}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_analyze(args) -> int:
    program = _read_program(args.source)
    names = list(variables_of(program))
    if args.scale_vars:
        scaled = args.scale_vars.split(",")
        unknown = [name for name in scaled if name not in names]
        if unknown:
            raise ValueError(f"--scale-vars: the program has no variable {unknown[0]!r}")
        names = scaled
    # Every option is checked before anything is printed or written.
    if args.fuel < 0:
        raise ValueError(f"negative fuel {args.fuel}")
    if args.trials < 0:
        raise ValueError(f"negative trial count {args.trials}")
    t_max = _tier_cap(args)
    seed = _seed(args)
    oracle = _load_oracle(args.oracle)
    if args.sweep:
        scales = _parse_range(args.sweep)
    result = infer(program, t_max=t_max, with_derivation=False)
    if result is None:
        print(
            "warning: program is untypable; measurements carry no guarantees",
            file=sys.stderr,
        )
    payload: dict = {"typable": result is not None}
    status = EXIT_OK
    if args.sweep:
        if oracle is None and has_oracle_call(program):
            oracle = analysis.random_table_oracle(random.Random(seed))
        report = analysis.sweep(
            program,
            analysis.unary_inputs(*names),
            oracle,
            scales,
            fuel=args.fuel,
        )
        payload["sweep"] = report.to_json()
        if args.format != "json":
            print(report.to_text())
        if args.plot_data:
            with open(args.plot_data, "w", encoding="utf-8") as fh:
                fh.write(report.to_tsv())
    if args.ni:
        if result is None:
            print("cannot test non-interference without a typing", file=sys.stderr)
            status = EXIT_UNTYPABLE
        else:
            levels = sorted(set(result.gamma.values()))
            reports = []
            for level in levels:
                rep = analysis.noninterference_test(
                    program,
                    result.gamma,
                    level,
                    trials=args.trials,
                    seed=seed,
                )
                reports.append(rep)
                if args.format != "json":
                    verdict = "PASS" if rep.ok else "FAIL"
                    print(f"non-interference at level {level}: {verdict}"
                          f" ({rep.trials} trials)")
                if not rep.ok:
                    status = EXIT_UNTYPABLE
            payload["ni"] = [r.to_json() for r in reports]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    return status


def cmd_corpus_check(args) -> int:
    registry = builtin_registry()
    failures = 0
    results = []
    for entry in load_corpus():
        program = entry.program(registry)
        result = infer(program, t_max=entry.t_max, registry=registry)
        problems = []
        if (result is not None) != entry.typable:
            problems.append(
                f"expected {'typable' if entry.typable else 'untypable'}"
            )
        elif result is not None:
            if entry.gamma is not None and result.gamma != entry.gamma:
                problems.append(f"gamma {result.gamma} != {entry.gamma}")
            if entry.triple is not None and tuple(result.triple) != entry.triple:
                problems.append(f"triple {result.triple} != {entry.triple}")
            report = audit_derivation(result.derivation, result.gamma)
            if not report.ok:
                problems.append(f"audit: {report.violations[0].detail}")
        ok = not problems
        failures += not ok
        results.append({"name": entry.name, "ok": ok, "problems": problems})
        if args.format != "json":
            mark = "ok" if ok else "FAIL " + "; ".join(problems)
            print(f"{entry.name:<24} {mark}")
    if args.format == "json":
        print(json.dumps({"results": results}, indent=2))
    return EXIT_OK if failures == 0 else EXIT_UNTYPABLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tier",
        description="Tiered while-language: check, infer, run, analyze.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, source=True):
        if source:
            p.add_argument("source", help="program file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format",
        )

    p = sub.add_parser("parse", help="parse and pretty-print a program")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check", help="check one typing judgement")
    common(p)
    p.add_argument("--gamma", help="variable tiers, e.g. x=1,y=0")
    p.add_argument("--triple", required=True, help="judgement as t,inner,outer")
    p.add_argument("--max-tier", type=int, default=None)
    p.add_argument("--emit-derivation", metavar="PATH",
                   help="write the derivation tree as JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("infer", help="infer least tiers")
    common(p)
    p.add_argument("--max-tier", type=int, default=None)
    p.add_argument("--emit-cnf", metavar="PATH",
                   help="write the clause system in DIMACS form")
    p.add_argument("--emit-derivation", metavar="PATH",
                   help="write the derivation tree as JSON")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("run", help="execute a program")
    common(p)
    p.add_argument("--input", action="append", default=[], metavar="VAR=VAL",
                   help="initial store binding, repeatable")
    p.add_argument("--oracle", metavar="PATH", help="oracle spec JSON file")
    p.add_argument("--fuel", type=int, default=None,
                   help="abort after this many steps")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="measure steps, revisions, interference")
    common(p)
    p.add_argument("--sweep", metavar="LO:HI[:STEP]",
                   help="run an input sweep over this scale range")
    p.add_argument("--scale-vars", metavar="X,Y",
                   help="variables bound to 1^scale (default: all)")
    p.add_argument("--ni", action="store_true",
                   help="randomized non-interference trials")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", metavar="PATH", help="oracle spec JSON file")
    p.add_argument("--fuel", type=int, default=analysis.DEFAULT_SWEEP_FUEL)
    p.add_argument("--max-tier", type=int, default=None)
    p.add_argument("--plot-data", metavar="PATH",
                   help="write m/steps pairs as TSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("corpus-check", help="regression-check bundled programs")
    common(p, source=False)
    p.set_defaults(func=cmd_corpus_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StuckGuard as exc:
        print(f"stuck: guard evaluated to {exc.value!r}", file=sys.stderr)
        return EXIT_STUCK
    except FuelExhausted as exc:
        print(f"fuel exhausted after {exc.fuel} steps", file=sys.stderr)
        return EXIT_FUEL
    except (OracleRequired, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError as exc:
        print(f"error: program too long or too deeply nested ({exc})", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
