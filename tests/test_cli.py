"""Command line driver tests, run in-process through main()."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import tierlang
from tierlang.cli import MAX_TIER, main
from tierlang.inference import ClauseSet, solve_2sat
from tierlang.semantics import TableOracle
from tierlang.syntax import MAX_WORD, parse

from . import fuzz_cli
from .conftest import time_bound

ADD_SRC = "while (gt0(x)) { x := pred(x); y := suc1(y) }\nreturn y\n"


@pytest.fixture()
def add_file(tmp_path):
    path = tmp_path / "add.tier"
    path.write_text(ADD_SRC)
    return str(path)


def test_parse_round_trips_source(add_file, capsys):
    assert main(["parse", add_file]) == 0
    out = capsys.readouterr().out
    assert "while (gt0(x))" in out
    assert out.endswith("return y\n")


def test_parse_json(add_file, capsys):
    assert main(["parse", add_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["return"] == "y"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tier"
    bad.write_text("while gt0(x) { skip } return x")
    assert main(["parse", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_run_add(add_file, capsys):
    assert main(["run", add_file, "--input", "x=3", "--input", "y=2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "11111"
    assert "steps 37" in captured.err
    assert "m 5" in captured.err


def test_run_accepts_raw_words(add_file, capsys):
    assert main(["run", add_file, "--input", "x=101", "--input", "y="]) == 0
    # 101 is a word, not a numeral: three loop turns
    assert capsys.readouterr().out.strip() == "111"


def test_run_fuel_exhaustion(add_file, capsys):
    assert main(["run", add_file, "--input", "x=9", "--fuel", "10"]) == 4
    assert "fuel exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--input", "x=3", "--fuel", "-1"],
    ["analyze", "--sweep", "1:4", "--fuel", "-1"],
    ["analyze", "--ni", "--trials", "-3"],
    ["analyze", "--sweep", "1:4:-1"],
    ["analyze", "--sweep", "4:1"],
    ["analyze", "--sweep=-1:3"],
    ["run", "--input", "=3"],
    ["run", "--input", "x y=3"],
    ["run", "--input", "while=3"],
    ["check", "--gamma", "x=1,x=0,y=0", "--triple", "1,1,0"],
    ["check", "--gamma", "x", "--triple", "1,1,0"],
    ["analyze", "--plot-data", "out.tsv"],
    ["run", "--input", "x=11", "--input", "x=111"],
    ["run", "--input", "1x=3"],
    ["run", "--input", "\u00b2x=3"],
    ["run", "--input", "x=abc"],
    ["analyze", "--sweep", "5"],
], ids=["negative-fuel", "negative-sweep-fuel", "negative-trials", "negative-step",
        "empty-range", "negative-start", "empty-name", "spaced-name", "keyword-name",
        "repeated-gamma-name", "gamma-without-tier", "plot-data-without-sweep", "repeated-input-name",
        "digit-first-name", "superscript-first-name", "input-not-a-word",
        "sweep-not-a-range"])
def test_bad_numbers_and_names_are_usage_errors(argv, add_file, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], add_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["add.tier"]


@pytest.mark.parametrize("argv", [
    ["check", "--triple", "1,1,0", "--emit-derivation", "out.json"],
    ["infer", "--emit-cnf", "out.cnf", "--emit-derivation", "out.json"],
    ["analyze", "--sweep", "1:3", "--plot-data", "out.tsv", "--ni", "--trials", "5"],
], ids=["check", "infer", "analyze"])
@pytest.mark.parametrize("cap", [MAX_TIER + 1, 10**20])
def test_max_tier_above_the_limit_is_a_usage_error(argv, cap, add_file, tmp_path,
                                                   capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], add_file, *argv[1:], "--max-tier", str(cap)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-tier {cap} is above the limit 10000\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["add.tier"]


def test_max_tier_at_the_limit_keeps_the_typing(add_file, capsys):
    assert main(["infer", add_file]) == 0
    default = capsys.readouterr().out
    assert main(["infer", add_file, "--max-tier", str(MAX_TIER)]) == 0
    assert capsys.readouterr().out == default
    assert main(["check", add_file, "--gamma", "x=1,y=0", "--triple", "1,1,0",
                 "--max-tier", str(MAX_TIER)]) == 0
    assert capsys.readouterr().out == "typable at the given judgement\n"


@pytest.mark.parametrize("gamma, message", [
    ("x=1,x=0,y=0", "--gamma gives 'x' twice"),
    ("x=0,x=1,y=0", "--gamma gives 'x' twice"),
    ("x", "expected var=tier, got 'x'"),
])
def test_bad_gamma_is_named(gamma, message, add_file, capsys):
    assert main(["check", add_file, "--gamma", gamma, "--triple", "1,1,0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("inputs", [
    ["x=11", "x=111"],
    ["x=1", "y=0", " x =0"],
], ids=["numbers", "spaced-words"])
def test_repeated_input_is_named(inputs, add_file, capsys):
    assert main(["run", add_file, *(a for value in inputs for a in ("--input", value))]) == 2
    assert capsys.readouterr() == ("", "error: --input gives 'x' twice\n")


@pytest.mark.parametrize("argv", [
    ["--ni", "--trials", "5", "--fuel", "3"],
    ["--ni", "--trials", "5", "--fuel", "3", "--format", "json"],
    ["--sweep", "1:1", "--ni", "--trials", "5", "--fuel", "20"],
], ids=["text", "json", "after-sweep"])
def test_non_interference_trials_stop_at_the_fuel(argv, add_file, capsys):
    # n=1 sweeps in 15 steps, within fuel 20; the trials, on words up to 12
    # symbols long, run out of it.
    assert main(["analyze", add_file, *argv]) == 4
    fuel = argv[argv.index("--fuel") + 1]
    assert capsys.readouterr() == ("", f"fuel exhausted after {fuel} steps\n")


def test_non_interference_trials_stop_at_the_fuel_in_a_loop_that_never_ends(tmp_path,
                                                                              capsys):
    source = tmp_path / "spin.tier"
    source.write_text("while (gt0(x)) { skip }\nreturn x\n")
    with time_bound(10):
        assert main(["analyze", str(source), "--ni", "--trials", "2", "--fuel", "400"]) == 4
    assert capsys.readouterr() == ("", "fuel exhausted after 400 steps\n")


def test_an_untypable_program_out_of_fuel_prints_only_the_fuel_line(corpus, tmp_path,
                                                                   capsys):
    # The untypable warning is not printed when the run fails.
    source = tmp_path / "blowup.tier"
    source.write_text(corpus["exp_blowup"].source())
    assert main(["analyze", str(source), "--sweep", "0:2", "--fuel", "40"]) == 4
    assert capsys.readouterr() == ("", "fuel exhausted after 40 steps\n")


def test_run_stuck_guard(tmp_path, capsys):
    src = tmp_path / "stuck.tier"
    src.write_text('x := "10";\nwhile (x) { x := "10" }\nreturn x\n')
    assert main(["run", str(src)]) == 3
    assert "stuck" in capsys.readouterr().err


def test_infer_text_output(add_file, capsys):
    assert main(["infer", add_file]) == 0
    out = capsys.readouterr().out
    assert "typable" in out and "tier 1" in out
    assert "x:1" in out and "y:0" in out


def test_infer_json_output(add_file, capsys):
    assert main(["infer", add_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma"] == {"x": 1, "y": 0}
    assert doc["triple"] == [1, 1, 0]


def test_infer_untypable_exit(tmp_path, capsys):
    src = tmp_path / "grow.tier"
    src.write_text(
        "while (gt0(x)) { x := pred(x); y := suc1(y); x := maxlen(x, y) }\n"
        "return y\n"
    )
    assert main(["infer", str(src)]) == 1
    assert main(["infer", str(src), "--format", "json"]) == 1
    outputs = capsys.readouterr().out.strip().splitlines()
    assert outputs[0] == "untypable"
    assert json.loads(outputs[-1]) == {"typable": False}


def test_infer_emits_cnf_and_derivation(add_file, tmp_path, capsys):
    cnf = tmp_path / "instance.cnf"
    tree = tmp_path / "derivation.json"
    code = main(["infer", add_file, "--emit-cnf", str(cnf),
                 "--emit-derivation", str(tree)])
    assert code == 0
    assert cnf.read_text().splitlines()[0].startswith("c")
    doc = json.loads(tree.read_text())
    assert doc["rule"] in {"while", "while-zero", "lift"}


def test_emitted_cnf_decodes_to_the_inferred_typing(corpus, tmp_path, capsys):
    checked = 0
    for entry in corpus.values():
        if not entry.typable:
            continue
        source = tmp_path / entry.file
        source.write_text(entry.source())
        cnf = tmp_path / f"{entry.name}.cnf"
        argv = ["infer", str(source), "--format", "json", "--emit-cnf", str(cnf)]
        if entry.t_max is not None:
            argv += ["--max-tier", str(entry.t_max)]
        assert main(argv) == 0, entry.name
        inferred = json.loads(capsys.readouterr().out)

        records, clauses, header = {}, ClauseSet(), None
        for line in cnf.read_text().splitlines():
            if line.startswith("c record "):
                _, _, _, _, span, name = line.split(" ", 5)
                records[name] = tuple(map(int, span.split("..")))
            elif line.startswith("p cnf "):
                header = tuple(map(int, line.split()[2:]))
            elif not line.startswith("c"):
                *lits, end = map(int, line.split())
                assert end == 0
                clauses.add(*lits)
        clauses.num_vars = header[0]
        assert header == (clauses.num_vars, len(clauses)), entry.name

        model = solve_2sat(clauses)
        assert model is not None, entry.name

        def tier(name):
            lo, hi = records[name]
            return model[lo - 1 : hi].index(True)

        gamma = {n[4:]: tier(n) for n in records if n.startswith("var ")}
        root = next(n for n in records if n.endswith(" at root"))
        triple = [tier(root), tier("root inner channel"), tier("root outer channel")]
        assert gamma == inferred["gamma"], entry.name
        assert triple == inferred["triple"], entry.name
        checked += 1
    assert checked == 8


def test_run_without_required_oracle_is_a_usage_error(corpus, tmp_path, capsys):
    source = tmp_path / "search.tier"
    source.write_text(corpus["oracle_search"].source())
    assert main(["run", str(source), "--input", "x=3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "oracle" in err
    assert "Traceback" not in err


def test_negative_gamma_is_a_usage_error(add_file, capsys):
    code = main(["check", add_file, "--gamma", "x=-1,y=0", "--triple", "1,1,0"])
    assert code == 2
    assert "negative tier" in capsys.readouterr().err


def _assert_one_error_line(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_negative_tier_cap_is_a_usage_error(add_file, capsys):
    assert main(["infer", add_file, "--max-tier", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


@pytest.mark.parametrize("spec", [
    '{"entries": [{"query": "0"}]}',
    "[1]",
    '{"entries": {"query": "0", "answer": "1"}}',
    '{"default": 3}',
    '{"default": {"value": "1"}}',
])
def test_malformed_oracle_spec_is_a_usage_error(spec, add_file, tmp_path, capsys):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(spec)
    assert main(["run", add_file, "--input", "x=1", "--oracle", str(oracle)]) == 2
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("entries, default, spec, message", [
    ((), ("constant", "2"), '{"default": {"kind": "constant", "value": "2"}}',
     "constant default must be a word, got '2'"),
    ((), ("echo-length", "1"), '{"default": {"kind": "echo-length", "value": "1"}}',
     "echo-length default takes no value"),
    ((), ("frob", None), '{"default": {"kind": "frob"}}', "unknown default kind 'frob'"),
    ((("0", "2"),), ("constant", "1"), '{"entries": [{"query": "0", "answer": "2"}]}',
     "table entry ('0', '2') is not a word pair"),
], ids=["non-word-constant", "echo-length-value", "unknown-kind", "non-word-entry"])
def test_bad_oracle_tables_are_rejected(entries, default, spec, message, add_file,
                                        tmp_path, capsys):
    with pytest.raises(ValueError) as error:
        TableOracle(entries, default)
    assert str(error.value) == message
    oracle = tmp_path / "oracle.json"
    oracle.write_text(spec)
    assert main(["run", add_file, "--input", "x=1", "--oracle", str(oracle)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


CHAIN_3000 = ";\n".join(["x := suc1(x)"] * 3000) + "\nreturn x\n"
NEST_1000 = "while (gt0(x)) {\n" * 1000 + "x := pred(x)" + "\n}" * 1000 + "\nreturn x\n"


@pytest.mark.parametrize("argv, source", [
    (["infer"], CHAIN_3000),
    (["parse", "--format", "json"], CHAIN_3000),
    (["infer"], NEST_1000),
    (["parse"], NEST_1000),
], ids=["chain-3000-infer", "chain-3000-parse-json", "nest-1000-infer",
        "nest-1000-parse"])
def test_too_long_or_deep_program_is_a_usage_error(argv, source, tmp_path, capsys):
    path = tmp_path / "big.tier"
    path.write_text(source)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


def test_parse_prints_a_long_chain_that_parses_back(tmp_path, capsys):
    path = tmp_path / "big.tier"
    path.write_text(CHAIN_3000)
    assert main(["parse", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert parse(captured.out) == parse(CHAIN_3000)


def test_check_judgement(add_file, capsys):
    ok = main(["check", add_file, "--gamma", "x=1,y=0", "--triple", "1,1,0"])
    assert ok == 0
    bad = main(["check", add_file, "--gamma", "x=0,y=0", "--triple", "1,1,0"])
    assert bad == 1


def test_check_without_gamma_searches(add_file):
    assert main(["check", add_file, "--triple", "1,1,0"]) == 0
    assert main(["check", add_file, "--triple", "0,0,0"]) == 1


def test_check_reaches_a_high_tier_by_a_long_lift_chain(tmp_path):
    src = tmp_path / "skip.tier"
    src.write_text("skip\nreturn x\n")
    assert main(["check", str(src), "--triple", "1200,0,0"]) == 0


def test_check_writes_a_derivation_only_when_json_can_hold_it(tmp_path, capsys):
    # 1200 lift steps nest too deep for json: one error line, no verdict and
    # no file.  Five lift steps serialize as before.
    src = tmp_path / "skip.tier"
    src.write_text("skip\nreturn x\n")
    deep, shallow = tmp_path / "deep.json", tmp_path / "shallow.json"
    argv = ["check", str(src), "--emit-derivation"]
    assert main(argv + [str(deep), "--triple", "1200,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert not deep.exists()

    assert main(argv + [str(shallow), "--triple", "5,0,0"]) == 0
    assert capsys.readouterr().out == "typable at the given judgement\n"
    node, lifted = json.loads(shallow.read_text()), []
    while node["rule"] == "lift":
        lifted.append(node["triple"])
        (node,) = node["children"]
    assert lifted == [[t, 0, 0] for t in (5, 4, 3, 2, 1)]
    assert node == {"rule": "skip", "subject": "skip", "triple": [0, 0, 0],
                    "children": []}


def test_infer_writes_no_file_when_the_derivation_is_too_deep(tmp_path, capsys):
    src = tmp_path / "chain.tier"
    src.write_text(";\n".join(["x := pred(x)"] * 600) + "\nreturn x\n")
    cnf, tree = tmp_path / "chain.cnf", tmp_path / "chain.json"
    assert main(["infer", str(src), "--emit-cnf", str(cnf),
                 "--emit-derivation", str(tree)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert not cnf.exists() and not tree.exists()


@pytest.mark.parametrize("argv", [
    ["check", "--triple", "1,1,0", "--emit-derivation", "BAD"],
    ["infer", "--emit-cnf", "BAD"],
    ["infer", "--emit-derivation", "BAD"],
    ["analyze", "--sweep", "1:3", "--plot-data", "BAD"],
    ["infer", "--emit-cnf", "ok.cnf", "--emit-derivation", "BAD"],
    ["infer", "--emit-derivation", "ok.json", "--emit-cnf", "BAD"],
], ids=["check-derivation", "infer-cnf", "infer-derivation", "analyze-plot-data",
        "cnf-then-bad-derivation", "derivation-then-bad-cnf"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_unwritable_file_fails_the_run_with_no_output(argv, fmt, add_file, tmp_path,
                                                         capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "missing" / "out"
    argv = [str(bad) if a == "BAD" else a for a in argv]
    assert main([argv[0], add_file, *argv[1:], "--format", fmt]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{bad}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["add.tier"]


def test_an_untypable_sweep_with_an_unwritable_plot_prints_only_the_error(
        corpus, tmp_path, capsys):
    source = tmp_path / "blowup.tier"
    source.write_text(corpus["exp_blowup"].source())
    bad = tmp_path / "missing" / "p.tsv"
    assert main(["analyze", str(source), "--sweep", "1:3", "--plot-data", str(bad)]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{bad}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blowup.tier"]


def test_derivations_label_calls_with_the_programs_oracle(tmp_path, capsys):
    src = tmp_path / "psi.tier"
    src.write_text("y := psi(x | z)\nreturn y\n")
    inferred, checked = tmp_path / "inferred.json", tmp_path / "checked.json"
    assert main(["infer", str(src), "--emit-derivation", str(inferred)]) == 0
    assert main(["check", str(src), "--gamma", "x=0,y=0,z=0", "--triple", "0,1,0",
                 "--emit-derivation", str(checked)]) == 0
    for tree in (inferred, checked):
        stack, subjects = [json.loads(tree.read_text())], []
        while stack:
            node = stack.pop()
            subjects.append(node["subject"])
            stack.extend(node["children"])
        assert "psi(x | z)" in subjects and "y := psi(x | z)" in subjects
        assert not any("phi" in s for s in subjects), subjects


def test_analyze_sweep(add_file, capsys, tmp_path):
    data = tmp_path / "points.tsv"
    code = main(["analyze", add_file, "--sweep", "1:17", "--scale-vars", "x",
                 "--plot-data", str(data)])
    assert code == 0
    out = capsys.readouterr().out
    assert "slope" in out
    rows = data.read_text().strip().splitlines()
    assert len(rows) == 17  # lo:hi is inclusive
    first = rows[0].split("\t")
    assert int(first[1]) == 15  # n=1 runs in 15 steps


@pytest.mark.parametrize("names", ["q", "x,"], ids=["unknown-name", "empty-name"])
def test_analyze_rejects_scale_vars_the_program_does_not_use(names, add_file, capsys):
    assert main(["analyze", add_file, "--sweep", "1:3", "--scale-vars", names]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


@pytest.mark.parametrize("argv", [
    ["--trials", "-1"],
    ["--fuel", "-1"],
], ids=["negative-trials", "negative-fuel"])
def test_analyze_checks_its_options_before_any_output(argv, add_file, tmp_path, capsys):
    plot = tmp_path / "t.tsv"
    assert main(["analyze", add_file, "--sweep", "1:3", "--plot-data", str(plot),
                 "--ni", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert not plot.exists()


@pytest.mark.parametrize("argv", [
    ["--ni", "--trials", "3"],
    ["--sweep", "1:3"],
], ids=["ni", "sweep"])
def test_analyze_loads_the_oracle_before_any_output(argv, add_file, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["analyze", add_file, *argv, "--oracle", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_analyze_ni(add_file, capsys):
    assert main(["analyze", add_file, "--ni", "--trials", "30"]) == 0
    out = capsys.readouterr().out
    assert "non-interference" in out
    assert "FAIL" not in out


def test_corpus_check(capsys):
    assert main(["corpus-check"]) == 0
    out = capsys.readouterr().out
    assert "add" in out and "ok" in out
    assert "FAIL" not in out


def test_check_json_payload(add_file, tmp_path, capsys):
    tree = tmp_path / "d.json"
    assert main(["check", add_file, "--gamma", "x=1,y=0", "--triple", "1,1,0",
                 "--format", "json", "--emit-derivation", str(tree)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "ok": True, "gamma": {"x": 1, "y": 0}, "triple": [1, 1, 0],
        "derivation": str(tree)}
    assert json.loads(tree.read_text())["triple"] == [1, 1, 0]
    assert main(["check", add_file, "--triple", "0,0,0", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "ok": False, "gamma": {}, "triple": [0, 0, 0]}


def test_run_json_payload(add_file, corpus, tmp_path, capsys):
    assert main(["run", add_file, "--input", "x=3", "--input", "y=2",
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "value": "11111", "steps": 37, "m": 5, "lr": 0, "queries": []}
    assert captured.err == ""
    source = tmp_path / "search.tier"
    source.write_text(corpus["oracle_search"].source())
    oracle = tmp_path / "oracle.json"
    oracle.write_text('{"entries": [{"query": "11", "answer": "0"}],'
                      ' "default": {"kind": "echo-length"}}')
    assert main(["run", str(source), "--input", "x=3", "--oracle", str(oracle),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "value": "1", "steps": 56, "m": 4, "lr": 1,
        "queries": [["1111", "1111"], ["111", "111"], ["11", "0"]]}


def test_analyze_json_payload(add_file, corpus, tmp_path, capsys):
    assert main(["analyze", add_file, "--sweep", "1:4", "--scale-vars", "x", "--ni",
                 "--trials", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["typable", "sweep", "ni"] and doc["typable"] is True
    sweep = doc["sweep"]
    assert list(sweep) == ["points", "slope", "max_lr"]
    assert sweep["points"] == [{"scale": n, "m": n, "steps": 11 * n + 4, "lr": 0}
                               for n in range(1, 5)]
    assert sweep["slope"] == pytest.approx(0.8367, abs=1e-4)
    assert sweep["max_lr"] == 0
    assert doc["ni"] == [{"level": level, "trials": 5, "ok": True, "failures": []}
                         for level in (0, 1)]
    # An untypable program is swept, but gets no non-interference trials.
    source = tmp_path / "blowup.tier"
    source.write_text(corpus["exp_blowup"].source())
    assert main(["analyze", str(source), "--sweep", "1:2", "--ni", "--format",
                 "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["typable", "sweep"] and doc["typable"] is False
    assert [p["steps"] for p in doc["sweep"]["points"]] == [29, 98]


def test_corpus_check_json_payload(corpus, capsys):
    assert main(["corpus-check", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"results": [
        {"name": name, "ok": True, "problems": []} for name in corpus]}


HUGE = "200000000000000000000"  # 2 * 10^20: no string is that long
# Numerals just above the word-length limit and far above it, with a
# digit other than 0 and 1, so `--input` reads them as numbers.
OVER, BIG = str(2 * MAX_WORD), "200000000000"


def refused_unbuilt(argv, message, capsys):
    """`main(argv)` exits 2 with one stderr line and no stdout, and
    allocates neither a word nor a list of scales on the way."""
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("argv, message", [
    (["run", "--input", f"x={HUGE}"], "error: numeral of 21 digits is too large"),
    (["analyze", "--sweep", f"1:{HUGE}"],
     f"error: range '1:{HUGE}' reaches past the longest word"),
    (["analyze", "--sweep", f"{HUGE}:{HUGE}"],
     f"error: range '{HUGE}:{HUGE}' reaches past the longest word"),
    (["check", "--triple", "100000000,1,0"],
     "error: --triple 100000000 is above the limit 10000"),
    (["check", "--triple", f"1,1,{MAX_TIER + 1}"],
     "error: --triple 10001 is above the limit 10000"),
    (["check", "--gamma", "x=1,y=100000000", "--triple", "1,1,0"],
     "error: --gamma 100000000 is above the limit 10000"),
    (["run", "--input", f"x={OVER}"], f"error: numeral {OVER} is above the limit {MAX_WORD}"),
    (["run", "--input", f"x={BIG}"], "error: numeral of 12 digits is too large"),
    (["analyze", "--sweep", f"1:{OVER}"], f"error: range '1:{OVER}' reaches past the longest word"),
    (["analyze", "--sweep", f"{MAX_WORD}:{BIG}:2"],
     f"error: range '{MAX_WORD}:{BIG}:2' reaches past the longest word"),
], ids=["input", "sweep-hi", "sweep-lo", "triple", "triple-outer", "gamma",
        "input-over-word-limit", "input-big", "sweep-over-word-limit", "sweep-big"])
def test_huge_numbers_are_usage_errors(argv, message, add_file, capsys):
    refused_unbuilt([argv[0], add_file, *argv[1:]], message, capsys)


@pytest.mark.parametrize("command", ["parse", "infer", "run"])
def test_a_huge_numeral_in_the_source_is_a_parse_error(command, tmp_path, capsys):
    source = tmp_path / "huge.tier"
    source.write_text(f"x := {HUGE}\nreturn x\n")
    assert main([command, str(source)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: 1:6: numeral of 21 digits is too large\n"


@pytest.mark.parametrize("numeral, message", [
    (OVER, f"numeral {OVER} is above the limit {MAX_WORD}"),
    (BIG, "numeral of 12 digits is too large"),
], ids=["over", "big"])
def test_a_source_numeral_above_the_word_limit_is_refused(numeral, message,
                                                          tmp_path, capsys):
    source = tmp_path / "big.tier"
    source.write_text(f"x := {numeral}\nreturn x\n")
    refused_unbuilt(["parse", str(source)], "parse error: 1:6: " + message, capsys)


def test_triple_and_gamma_at_the_limit_type(add_file, capsys):
    assert main(["check", add_file, "--gamma", f"x={MAX_TIER},y=0",
                 "--triple", f"{MAX_TIER},{MAX_TIER},0"]) == 0
    assert capsys.readouterr().out == "typable at the given judgement\n"


def test_the_cli_contract_holds_on_drawn_command_lines(tmp_path):
    # `tests/fuzz_cli.py` runs the same draw at any size.
    for argv in fuzz_cli.cases(500, seed=0, work=tmp_path):
        with time_bound(10):
            assert fuzz_cli.contract_violations(argv) == [], argv


def test_console_script_installed():
    # The child imports the package under test, also when only pytest's
    # `pythonpath` setting put it on the path.
    src = os.path.dirname(os.path.dirname(tierlang.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tierlang.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "infer" in proc.stdout


def test_the_cli_imports_without_numpy():
    src = os.path.dirname(os.path.dirname(tierlang.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tierlang.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")
