"""Command line driver tests, run in-process through main()."""

import json
import subprocess
import sys

import pytest

from tierlang.cli import main
from tierlang.inference import ClauseSet, solve_2sat

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


def test_check_judgement(add_file, capsys):
    ok = main(["check", add_file, "--gamma", "x=1,y=0", "--triple", "1,1,0"])
    assert ok == 0
    bad = main(["check", add_file, "--gamma", "x=0,y=0", "--triple", "1,1,0"])
    assert bad == 1


def test_check_without_gamma_searches(add_file):
    assert main(["check", add_file, "--triple", "1,1,0"]) == 0
    assert main(["check", add_file, "--triple", "0,0,0"]) == 1


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


def test_seed_env_override(add_file, monkeypatch, capsys):
    monkeypatch.setenv("TIER_SEED", "99")
    assert main(["analyze", add_file, "--ni", "--trials", "5"]) == 0


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "tierlang.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "infer" in proc.stdout
