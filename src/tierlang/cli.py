"""Command line front end.

Subcommands: parse, check, infer, run, analyze, corpus-check.  Exit codes
are a stable contract: 0 success (or typable), 1 untypable or failed
check, 2 parse or usage error (bad input, missing oracle, a program too
long or too deeply nested for the command, a file that cannot be
written), 3 run stuck on a bad guard, 4 fuel exhausted.

Each command computes all of its output first: it returns its exit code,
its stdout and stderr text, and the files it wants written as (path,
text) pairs.  `main` alone writes, in that order: the files, then
stderr, then stdout.  A run that ends 2, 3 or 4, including one whose
file cannot be written, prints nothing on stdout and one line on stderr,
and removes the files it had already written.  So a derivation tree too
deep for `json` (at the default recursion limit, more than about 490
levels, such as a judgement reached by 500 lift steps) ends the command
with one `error:` line, no verdict and no file.

`--max-tier` takes 0 to `MAX_TIER` (10,000).  No least typing needs a
tier above the program size, which is the default cap, and a larger cap
only grows the `--emit-cnf` instance (cap + 1 clauses per record and per
edge).  The tiers of `--triple` and `--gamma` have the same limit: each
tier of the judgement can cost a lift node in the derivation.  A value
above the limit is a usage error.  A numeral above `syntax.MAX_WORD`
(10^7) is refused before its word is built: in the source as a parse
error, in `--input` or as a `--sweep` end as a usage error, before any
word or list of scales is made.  A `--sweep` range that starts below 0 is
a usage error too: no input has a negative scale.

Input bindings are var=VALUE where var is a variable name, given at most
once, and VALUE made of 0/1 only is taken as a literal word and any other
digit string as a unary number (3 means 111).
Oracle behaviour comes from a JSON spec file; runs are otherwise fully
deterministic, and `analyze` draws its random tables from `--seed`.
Outputs print each oracle call with the symbol it records; a program
uses one.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path

from . import analysis
from .corpus import load_corpus
from .inference import encode, infer, to_dimacs
from .operators import builtin_registry, is_word
from .semantics import (
    FuelExhausted,
    OracleRequired,
    StuckGuard,
    TableOracle,
    run_program,
)
from .syntax import (
    MAX_WORD,
    ParseError,
    has_oracle_call,
    is_name,
    parse,
    pretty,
    program_to_json,
    unary_word,
    variables_of,
)
from .tiers import audit_derivation, check

EXIT_OK = 0
EXIT_UNTYPABLE = 1
EXIT_PARSE = 2
EXIT_STUCK = 3
EXIT_FUEL = 4

MAX_TIER = 10_000

# What a command returns: exit code, stdout, stderr, and (path, text) files.
Outcome = tuple[int, str, str, list[tuple[str, str]]]


def _read_program(path: str):
    return parse(Path(path).read_text(encoding="utf-8"))


def _parse_input_value(text: str) -> str:
    if is_word(text):
        return text
    if text.isdigit():
        return unary_word(text)
    raise ValueError(f"input value {text!r} is neither a word nor a number")


def _parse_bindings(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected var=value, got {pair!r}")
        name, _, value = pair.partition("=")
        name = name.strip()
        # A variable name as the lexer reads one: no program reads others.
        if not (re.fullmatch(r"\w+", name) and is_name(name)):
            raise ValueError(f"input name {name!r} is not a variable name")
        if name in out:
            raise ValueError(f"--input gives {name!r} twice")
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
        gamma[name] = _capped("--gamma", int(tier))
    return gamma


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = [_capped("--triple", int(p)) for p in text.split(",")]
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
    if lo < 0:
        raise ValueError(f"range {text!r} starts below scale 0")
    if hi > MAX_WORD:
        raise ValueError(f"range {text!r} reaches past the longest word")
    return list(range(lo, hi + 1, step))


def _capped(option: str, tier: int | None) -> int | None:
    """A tier given on the command line, refused above MAX_TIER."""
    if tier is not None and tier > MAX_TIER:
        raise ValueError(f"{option} {tier} is above the limit {MAX_TIER}")
    return tier


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def cmd_parse(args) -> Outcome:
    program = _read_program(args.source)
    if args.format == "json":
        return EXIT_OK, _lines([json.dumps(program_to_json(program), indent=2)]), "", []
    return EXIT_OK, pretty(program), "", []


def cmd_check(args) -> Outcome:
    program = _read_program(args.source)
    gamma = _parse_gamma(args.gamma) if args.gamma else {}
    triple = _parse_triple(args.triple)
    derivation = check(program, gamma, triple, t_max=_capped("--max-tier", args.max_tier))
    ok = derivation is not None
    files = []
    if ok and args.emit_derivation:
        files.append((args.emit_derivation, json.dumps(derivation.to_json(), indent=2)))
    if args.format == "json":
        payload = {"ok": ok, "gamma": gamma, "triple": list(triple)}
        if files:
            payload["derivation"] = args.emit_derivation
        out = json.dumps(payload, indent=2)
    else:
        out = "typable at the given judgement" if ok else "does not type there"
    return (EXIT_OK if ok else EXIT_UNTYPABLE), _lines([out]), "", files


def cmd_infer(args) -> Outcome:
    program = _read_program(args.source)
    result = infer(program, t_max=_capped("--max-tier", args.max_tier))
    files = []
    if result is not None and args.emit_derivation:
        files.append((args.emit_derivation,
                      json.dumps(result.derivation.to_json(), indent=2)))
    if args.emit_cnf:
        # The instance of the mode the typing was found in, so its greatest
        # model decodes to the reported typing; the sealed mode if none.
        outer_zero = result is None or result.outer_zero
        encoding = encode(program, t_max=args.max_tier, outer_zero=outer_zero)
        files.append((args.emit_cnf, to_dimacs(encoding)))
    if result is None:
        out = [json.dumps({"typable": False}) if args.format == "json" else "untypable"]
        return EXIT_UNTYPABLE, _lines(out), "", files
    if args.format == "json":
        out = [json.dumps(result.to_json(), indent=2)]
    else:
        gamma = " ".join(f"{x}:{t}" for x, t in sorted(result.gamma.items()))
        t, inner, outer = result.triple
        out = [f"typable  tier {t}  inner {inner}  outer {outer}", f"gamma    {gamma}"]
    return EXIT_OK, _lines(out), "", files


def cmd_run(args) -> Outcome:
    program = _read_program(args.source)
    inputs = _parse_bindings(args.input)
    oracle = None if args.oracle is None else TableOracle.load(args.oracle)
    result = run_program(program, inputs, oracle=oracle, fuel=args.fuel)
    trace = result.trace
    lr = analysis.count_lookahead_revisions(trace)
    if args.format == "json":
        payload = {"value": result.value, "steps": trace.steps, "m": trace.m, "lr": lr,
                   "queries": [list(q) for q in trace.queries]}
        return EXIT_OK, _lines([json.dumps(payload)]), "", []
    return (EXIT_OK, _lines([result.value]),
            _lines([f"steps {trace.steps}  m {trace.m}  lr {lr}"]), [])


def cmd_analyze(args) -> Outcome:
    program = _read_program(args.source)
    names = list(variables_of(program))
    if args.scale_vars:
        scaled = args.scale_vars.split(",")
        unknown = [name for name in scaled if name not in names]
        if unknown:
            raise ValueError(f"--scale-vars: the program has no variable {unknown[0]!r}")
        names = scaled
    if args.fuel < 0:
        raise ValueError(f"negative fuel {args.fuel}")
    if args.trials < 0:
        raise ValueError(f"negative trial count {args.trials}")
    if args.plot_data and not args.sweep:
        raise ValueError("--plot-data needs --sweep")
    t_max = _capped("--max-tier", args.max_tier)
    oracle = None if args.oracle is None else TableOracle.load(args.oracle)
    if args.sweep:
        scales = _parse_range(args.sweep)
    result = infer(program, t_max=t_max)
    out, err, files = [], [], []
    if result is None:
        err.append("warning: program is untypable; measurements carry no guarantees")
    payload: dict = {"typable": result is not None}
    status = EXIT_OK
    if args.sweep:
        if oracle is None and has_oracle_call(program):
            oracle = analysis.random_table_oracle(random.Random(args.seed))
        report = analysis.sweep(
            program,
            analysis.unary_inputs(*names),
            oracle,
            scales,
            fuel=args.fuel,
        )
        payload["sweep"] = report.to_json()
        out.append(report.to_text())
        if args.plot_data:
            files.append((args.plot_data, report.to_tsv()))
    if args.ni:
        if result is None:
            err.append("cannot test non-interference without a typing")
            status = EXIT_UNTYPABLE
        else:
            reports = [
                analysis.noninterference_test(
                    program,
                    result.gamma,
                    level,
                    trials=args.trials,
                    seed=args.seed,
                    fuel=args.fuel,
                )
                for level in sorted(set(result.gamma.values()))
            ]
            for rep in reports:
                out.append(f"non-interference at level {rep.level}: "
                           f"{'PASS' if rep.ok else 'FAIL'} ({rep.trials} trials)")
            if not all(rep.ok for rep in reports):
                status = EXIT_UNTYPABLE
            payload["ni"] = [r.to_json() for r in reports]
    if args.format == "json":
        out = [json.dumps(payload, indent=2)]
    return status, _lines(out), _lines(err), files


def cmd_corpus_check(args) -> Outcome:
    registry = builtin_registry()
    results, lines = [], []
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
        results.append({"name": entry.name, "ok": not problems, "problems": problems})
        mark = "FAIL " + "; ".join(problems) if problems else "ok"
        lines.append(f"{entry.name:<24} {mark}")
    if args.format == "json":
        lines = [json.dumps({"results": results}, indent=2)]
    status = EXIT_OK if all(r["ok"] for r in results) else EXIT_UNTYPABLE
    return status, _lines(lines), "", []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tier",
        description="Tiered while-language: check, infer, run, analyze.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    shared = {
        "--max-tier": {"type": int, "default": None},
        "--oracle": {"metavar": "PATH", "help": "oracle spec JSON file"},
        "--emit-derivation": {"metavar": "PATH",
                              "help": "write the derivation tree as JSON"},
    }

    def command(name, func, help, *options, source=True):
        p = sub.add_parser(name, help=help)
        if source:
            p.add_argument("source", help="program file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format",
        )
        for option in options:
            p.add_argument(option, **shared[option])
        p.set_defaults(func=func)
        return p

    command("parse", cmd_parse, "parse and pretty-print a program")

    p = command("check", cmd_check, "check one typing judgement",
                "--max-tier", "--emit-derivation")
    p.add_argument("--gamma", help="variable tiers, e.g. x=1,y=0")
    p.add_argument("--triple", required=True, help="judgement as t,inner,outer")

    p = command("infer", cmd_infer, "infer least tiers", "--max-tier", "--emit-derivation")
    p.add_argument("--emit-cnf", metavar="PATH",
                   help="write the clause system in DIMACS form")

    p = command("run", cmd_run, "execute a program", "--oracle")
    p.add_argument("--input", action="append", default=[], metavar="VAR=VAL",
                   help="initial store binding, repeatable")
    p.add_argument("--fuel", type=int, default=None,
                   help="abort after this many steps")

    p = command("analyze", cmd_analyze, "measure steps, revisions, interference",
                "--max-tier", "--oracle")
    p.add_argument("--sweep", metavar="LO:HI[:STEP]",
                   help="run an input sweep over this scale range")
    p.add_argument("--scale-vars", metavar="X,Y",
                   help="variables bound to 1^scale (default: all)")
    p.add_argument("--ni", action="store_true",
                   help="randomized non-interference trials")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=int, default=analysis.DEFAULT_SWEEP_FUEL)
    p.add_argument("--plot-data", metavar="PATH",
                   help="write m/steps pairs as TSV")

    command("corpus-check", cmd_corpus_check, "regression-check bundled programs",
            source=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    written: list[str] = []
    try:
        code, out, err, files = args.func(args)
        for path, text in files:
            with open(path, "w", encoding="utf-8") as f:
                written.append(path)
                f.write(text)
    except ParseError as exc:
        code, err = EXIT_PARSE, f"parse error: {exc}"
    except StuckGuard as exc:
        code, err = EXIT_STUCK, f"stuck: guard evaluated to {exc.value!r}"
    except FuelExhausted as exc:
        code, err = EXIT_FUEL, f"fuel exhausted after {exc.fuel} steps"
    except (OracleRequired, ValueError, OSError) as exc:
        code, err = EXIT_PARSE, f"error: {exc}"
    except RecursionError as exc:
        code, err = EXIT_PARSE, f"error: program too long or too deeply nested ({exc})"
    else:
        sys.stderr.write(err)
        sys.stdout.write(out)
        return code
    for path in written:
        Path(path).unlink(missing_ok=True)
    print(err, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
