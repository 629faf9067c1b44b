"""The `tier` command line contract, checked on drawn command lines.

    PYTHONPATH=src python tests/fuzz_cli.py N [SEED]

Draws N command lines from a fixed seed (default 0) and runs each through
`cli.main` in-process, inside a time bound.  Each argv names a subcommand
and options taken from `build_parser()`'s own option table, with values
from pools: good values, negative, zero and huge numbers, non-numeric
text, keyword names, repeated names, unwritable paths, missing and
malformed oracle JSON, and corpus sources with random edits.  `--fuel`
and `--trials` are always given, with small values, so that no drawn run
can take long.  The contract, as `contract_violations` states it:

- `main` returns 0 to 4, or argparse exits 2, and nothing else escapes;
- on exit 2, 3 or 4, stdout is empty and stderr is one line starting
  with `error:`, `parse error:`, `stuck:` or `fuel exhausted`;
- on any exit 2, no file named by a file option is left behind.

Prints each kind of violation once, with the first command line that
showed it and how often it came up, and exits 1 if there was any.
pytest does not collect this file; `test_cli.py` runs a small fixed draw
of the same cases.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from tierlang.cli import build_parser, main as cli_main
from tierlang.corpus import load_corpus
from tierlang.syntax import MAX_WORD

HUGE = "2" + "0" * 20
OVER = str(2 * MAX_WORD)
FILE_OPTIONS = ("--emit-cnf", "--emit-derivation", "--plot-data")
# Options whose default is unbounded work: always drawn, from small values.
BOUNDED = ("--fuel", "--trials")
PREFIXES = ("error: ", "parse error: ", "stuck: ", "fuel exhausted")
ORACLES = {
    "table.json": '{"entries": [{"query": "11", "answer": "0"}],'
                  ' "default": {"kind": "echo-length"}}',
    "list.json": "[1]",
    "bad-default.json": '{"default": 3}',
    "bad-entries.json": '{"entries": {"query": "0", "answer": "1"}}',
    "truncated.json": '{"entries": [',
}
# A guard that gets stuck on any input, and a loop that never ends.
SOURCES = {"stuck.tier": 'x := "10";\nwhile (x) { x := "10" }\nreturn x\n',
           "spin.tier": "while (gt0(x)) { skip }\nreturn x\n"}
EDITS = ["while (gt0(x)) {", "}", ";", "x := suc1(x)", "x := pred(x)", '"10"', HUGE,
         "psi(x | y)", "if (x) {", "while (x) {", 'x := "10";', "return", "while",
         "y := maxlen(x, y)"]


def option_table() -> dict[str, list[argparse.Action]]:
    """Each subcommand's actions, from the parser the CLI itself builds."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


def make_pools(work: Path) -> dict[str, tuple[list[str], list[str]]]:
    """Good and bad values by option string; writes the files they name
    into `work`."""
    sources = []
    for entry in load_corpus():
        path = work / entry.file
        path.write_text(entry.source())
        sources.append(str(path))
    for name, text in {**SOURCES, **ORACLES}.items():
        (work / name).write_text(text)
    sources += [str(work / name) for name in SOURCES]
    (work / "empty.tier").write_text("")
    (work / "latin1.src").write_bytes(b"x := \xff\nreturn x\n")
    (work / "adir").mkdir()
    return {
        "source": (sources, [str(work / name) for name in
                             ("empty.tier", "latin1.src", "adir", "none")]),
        "--format": (["text", "json"], ["xml"]),
        "--gamma": (["x=1,y=0", "x=0", "x=2,y=1,z=0", "x=1,y=0,z=0"],
                    ["x=1,x=0", "x", "x=-1", f"x={HUGE}", "while=1", "x=a", "", ","]),
        "--triple": (["1,1,0", "0,0,0", "2,2,0", "1,0,1", "0,1,0"],
                     ["1,1", "a,b,c", "-1,0,0", "600,0,0", f"{HUGE},0,0", ""]),
        "--max-tier": (["0", "1", "3"], ["-1", "10001", HUGE, "x"]),
        "--oracle": ([str(work / "table.json")],
                     [str(work / name) for name in (*ORACLES, "adir", "none.json")][1:]),
        "--input": (["x=3", "y=101", "z=2", "x=", "y=11", "x=0"],
                    ["=3", "x y=3", "while=1", "x=abc", "x", f"x={HUGE}", f"x={OVER}"]),
        "--fuel": (["0", "3", "40", "400"], ["-1", "x"]),
        "--sweep": (["1:3", "0:2", "2:2", "1:4:2"],
                    ["3:1", "1:3:0", "1:3:-1", f"1:{HUGE}", f"{OVER}:{OVER}", "a:b", "1",
                     "1:2:3:4", ""]),
        "--scale-vars": (["x", "x,y", "y"], ["q", "x,", "", "while"]),
        "--trials": (["0", "2", "5"], ["-1", "x"]),
        "--seed": (["0", "3", "-1", HUGE], ["x", ""]),
    }


def pick(rng: random.Random, pool: tuple[list[str], list[str]]) -> str:
    """A good value four times in five, else a bad one."""
    return rng.choice(pool[rng.random() < 0.2])


def edited(rng: random.Random, text: str) -> str:
    """`text` with a random span deleted or a random token put in."""
    i = rng.randrange(len(text) + 1)
    if rng.random() < 0.5:
        return text[:i] + text[i + rng.randrange(1, 8):]
    return text[:i] + " " + rng.choice(EDITS) + " " + text[i:]


def draw_case(rng: random.Random, table, pools, work: Path, index: int) -> list[str]:
    """One argv list.  File options name fresh paths in `work`, a path under
    a missing directory, an existing directory or the empty string."""
    command = rng.choice(sorted(table))
    argv = [command]
    for action in table[command]:
        if not action.option_strings:
            source = pick(rng, pools["source"])
            if source.endswith(".tier") and rng.random() < 0.3:
                source_path = work / f"edited{index}.tier"
                source_path.write_text(edited(rng, Path(source).read_text()))
                source = str(source_path)
            argv.append(source)
            continue
        option = action.option_strings[0]
        if option not in BOUNDED and rng.random() >= (0.9 if action.required else 0.5):
            continue
        if action.nargs == 0:
            argv.append(option)
        elif option in FILE_OPTIONS:
            argv += [option, pick(rng, ([str(work / f"out{index}{option}")],
                                        [str(work / "none" / "out"), str(work / "adir"), ""]))]
        else:
            for _ in range(rng.choice([1, 1, 2]) if option == "--input" else 1):
                argv += [option, pick(rng, pools[option])]
    return argv


def run(argv: list[str]) -> tuple[int | str, str, str]:
    """`main(argv)`'s exit code, stdout and stderr.  An argparse exit shows
    as the code `argparse N`, an escaping exception as `raised` with its
    type and message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = f"argparse {exc.code}"
        except Exception as exc:  # reported as a violation, not raised
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def contract_violations(argv: list[str]) -> list[str]:
    """Run `argv` and name each part of the contract it breaks."""
    named = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in FILE_OPTIONS]
    fresh = [p for p in named if p and not os.path.lexists(p)]
    code, out, err = run(argv)
    problems = []
    if code not in (0, 1, 2, 3, 4, "argparse 2"):
        problems.append(f"exit {code}")
    if code in (2, 3, 4, "argparse 2") and out:
        problems.append(f"stdout on exit {code}")
    if code in (2, 3, 4) and not (err.count("\n") == 1 and err.endswith("\n")
                                  and err.startswith(PREFIXES)):
        problems.append(f"stderr on exit {code} is not one known line: {err!r}")
    if code in (2, "argparse 2"):
        problems += [f"exit 2 left a file: {p}" for p in fresh if os.path.lexists(p)]
    for p in fresh:
        with contextlib.suppress(OSError):
            os.remove(p)
    return problems


def cases(n: int, seed: int, work: Path):
    """`n` argv lists drawn from `seed`, with their files under `work`."""
    rng = random.Random(seed)
    table, pools = option_table(), make_pools(work)
    for index in range(n):
        yield draw_case(rng, table, pools, work, index)


def main(argv: list[str]) -> int:
    # Run as a script, `tests/` is the first entry of sys.path.
    from conftest import TimeBoundExceeded, time_bound

    n, seed = int(argv[0]), int(argv[1]) if len(argv) > 1 else 0
    kinds: Counter[str] = Counter()
    first: dict[str, tuple[list[str], str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases(n, seed, Path(tmp)):
            try:
                with time_bound(10):
                    problems = contract_violations(case)
            except TimeBoundExceeded:
                problems = ["still running after 10 s"]
            for problem in problems:
                kind = problem.split(":")[0]
                kinds[kind] += 1
                first.setdefault(kind, ([a.replace(tmp, "$TMP") for a in case],
                                        problem.replace(tmp, "$TMP")))
    for kind, count in kinds.most_common():
        case, problem = first[kind]
        print(f"{count:6d}  {problem}\n        tier {' '.join(map(repr, case))}")
    print(f"{sum(kinds.values())} violations in {n} cases (seed {seed})")
    return 1 if kinds else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
