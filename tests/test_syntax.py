"""Parser, printer and AST helper tests."""

import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tierlang import syntax
from tierlang.syntax import (
    MAX_WORD,
    Assign,
    If,
    OpApp,
    OracleCall,
    ParseError,
    Program,
    Seq,
    Skip,
    Var,
    While,
    assigned_vars,
    has_oracle_call,
    literal_op_name,
    literal_word,
    node_to_json,
    parse,
    part_names,
    pretty,
    program_size,
    program_to_json,
    unary_word,
    variables_of,
)

from .strategies import programs


ADD_SOURCE = """
while (gt0(x)) {
  x := pred(x);
  y := suc1(y)
}
return y
"""


def test_parse_add_shape():
    p = parse(ADD_SOURCE)
    assert p.return_var == "y"
    loop = p.body
    assert isinstance(loop, While)
    assert loop.guard == OpApp("gt0", (Var("x"),))
    body = loop.body
    assert isinstance(body, Seq)
    assert body.first == Assign("x", OpApp("pred", (Var("x"),)))
    assert body.rest == Assign("y", OpApp("suc1", (Var("y"),)))


def test_numerals_are_unary_words():
    p = parse("x := 3 return x")
    assert p.body == Assign("x", OpApp(literal_op_name("111")))
    assert parse("x := 0 return x").body.value == OpApp(literal_op_name(""))


@pytest.mark.parametrize("numeral", ["200000000000000000000", "9" * 5000],
                         ids=["past-the-longest-string", "past-int-digit-limit"])
def test_a_numeral_too_large_for_a_word_is_a_parse_error(numeral):
    # Refused at its position, before any word is built.
    with pytest.raises(ParseError) as err:
        parse(f"x := 1;\ny := {numeral} return y")
    assert (err.value.line, err.value.col, err.value.message) == (
        2, 6, f"numeral of {len(numeral)} digits is too large")


def test_unary_words_stop_at_the_word_limit():
    assert len(unary_word(str(MAX_WORD))) == MAX_WORD
    assert unary_word("0" * 30 + "3") == "111"
    tracemalloc.start()
    try:
        for numeral in (str(MAX_WORD + 1), "10000000000", "9" * 19):
            with pytest.raises(ValueError, match="is above the limit|is too large"):
                unary_word(numeral)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # refused before the word is built


def test_string_literals_are_raw_words():
    p = parse('x := "1001" return x')
    assert p.body.value == OpApp(literal_op_name("1001"))
    assert literal_word(p.body.value.op) == "1001"


def test_bad_string_literal_rejected():
    with pytest.raises(ParseError):
        parse('x := "102" return x')


def test_oracle_call_parses_with_pipe():
    p = parse("y := phi(x | y) return y")
    assert p.body.value == OracleCall(Var("x"), Var("y"))
    assert has_oracle_call(p)
    assert not has_oracle_call(parse("x := 1 return x"))


def test_custom_oracle_name_is_recorded():
    p = parse("y := ask(x | y) return y")
    assert p.oracle_name == "ask"
    assert isinstance(p.body.value, OracleCall)


def test_mixed_oracle_names_rejected():
    with pytest.raises(ParseError):
        parse("y := ask(x | y); z := tell(x | y) return y")


def test_sequencing_is_right_associated():
    p = parse("x := 1; y := 1; z := 1 return x")
    assert isinstance(p.body, Seq)
    assert not isinstance(p.body.first, Seq)
    assert isinstance(p.body.rest, Seq)


def test_if_requires_else():
    with pytest.raises(ParseError):
        parse("if (gt0(x)) { skip } return x")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("while gt0(x) { skip } return x")
    assert exc.value.line == 1


@pytest.mark.parametrize("source, message, where", [
    ('x := "1', "unterminated word literal", "1:6"),
    ('x := "0\n" return x', "unterminated word literal", "1:6"),
    ('x := "102" return x', 'word literal "102" has symbols outside 0/1', "1:6"),
    ("x := 1 @ return x", "unexpected character '@'", "1:8"),
    ("x : = 1 return x", "unexpected character ':'", "1:3"),
    ("x := 1;\r\n\ty := \f return y", "unexpected character '\\x0c'", "2:7"),
    # A name starts with a letter or `_`, and a numeral has decimal digits
    # only, so these are neither.
    ("x := \u00b2 return x", "unexpected character '\u00b2'", "1:6"),
    ("x := 3\u00b2 return x", "unexpected character '\u00b2'", "1:7"),
    ("x := \u00bd return x", "unexpected character '\u00bd'", "1:6"),
    ("while gt0(x) { skip } return x", "expected 'LPAREN', found 'gt0'", "1:7"),
    ("if (gt0(x)) { skip } return x", "expected 'else', found 'return'", "1:22"),
    ("x := 1", "expected 'return', found ''", "1:7"),
    # The end of the source after a trailing comment is where it ends.
    ("x := 1 # c", "expected 'return', found ''", "1:11"),
    ("x := 1 return 3", "expected 'IDENT', found '3'", "1:15"),
    ("x := 1 return x\n  y", "expected 'EOF', found 'y'", "2:3"),
    ("return x", "expected a command, found 'return'", "1:1"),
    ("x := ; return x", "expected an expression, found ';'", "1:6"),
    ("x := foo(x) return x", "unknown operator 'foo'", "1:6"),
    ("x := pred(x, x) return x", "operator 'pred' expects 1 argument(s), got 2",
     "1:6"),
    ("y := ask(x | y);\n  z := tell(x | y) return y",
     "second oracle symbol 'tell'; the program already queries 'ask'", "2:8"),
])
def test_parse_error_messages_and_positions(source, message, where):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.message == message
    assert f"{exc.value.line}:{exc.value.col}" == where
    assert str(exc.value) == f"{where}: {message}"


def test_decimal_digits_of_other_scripts_are_numerals():
    assert parse("x := \u0663 return x").body.value == OpApp(literal_op_name("111"))


SOUP = ["x", "y", "_t", "\u00e9", "x\u00b2", "ask", "pred", "suc1", "gt0", "nope",
        "skip", "if", "else", "while", "return", "0", "3", "\u0663", "\u00b2",
        "\u00bd", '""', '"01"', '"102"', '"1', ":=", ":", ";", "(", ")", "{", "}",
        ",", "|", "@", "# c", "x :=", "return x"]


@given(st.lists(st.tuples(st.sampled_from(SOUP),
                          st.sampled_from(["", " ", "\n", "\t"])), max_size=40))
@example([("x :=", " "), ("\u00b2", " "), ("return x", "")])
def test_token_soup_parses_or_raises_parse_error(pieces):
    source = "".join(token + gap for token, gap in pieces)
    try:
        assert isinstance(parse(source), Program)
    except (ParseError, RecursionError):
        pass


def test_long_chain_parses_without_recursion():
    n = 10_000
    source = ";\n".join(f"x{i % 7} := suc1(x{i % 5})" for i in range(n))
    c, count = parse(source + "\nreturn x0").body, 1
    while isinstance(c, Seq):
        assert not isinstance(c.first, Seq)
        c, count = c.rest, count + 1
    assert count == n
    assert c == Assign(f"x{(n - 1) % 7}", OpApp("suc1", (Var(f"x{(n - 1) % 5}"),)))


def test_missing_return_rejected():
    with pytest.raises(ParseError):
        parse("x := 1")


def test_program_size_counts_every_node():
    # while + gt0 + x + seq + 2*(assign + target + op + var) + return var
    assert program_size(parse(ADD_SOURCE)) == 13
    assert program_size(parse("skip return x")) == 2
    assert program_size(parse("x := phi(x | y) return x")) == 6


def test_variables_in_first_occurrence_order():
    p = parse("y := x; z := y return z")
    assert variables_of(p) == ("y", "x", "z")
    assert assigned_vars(p.body) == frozenset({"y", "z"})


def test_variables_includes_return_only_var():
    assert variables_of(parse("skip return q")) == ("q",)


@given(programs(allow_oracle=True))
def test_pretty_parse_round_trip(p: Program):
    assert parse(pretty(p)) == p


@given(programs(allow_oracle=True))
def test_json_export_is_total(p: Program):
    doc = program_to_json(p)
    assert doc["return"] == p.return_var
    assert isinstance(doc["body"], dict)


def test_json_export_takes_any_depth():
    body = Skip()
    for _ in range(3000):
        body = While(Var("x"), body)
    doc = program_to_json(Program(body, "x"))["body"]
    for _ in range(3000):
        assert doc["node"] == "while" and doc["guard"] == {"node": "var", "name": "x"}
        doc = doc["body"]
    assert doc == {"node": "skip"}


def test_cmd_json_tags():
    c = parse("if (gt0(x)) { skip } else { x := 1 } return x").body
    doc = node_to_json(c)
    assert doc["node"] == "if"
    assert doc["then"]["node"] == "skip"


def test_pretty_prints_literal_sugar():
    assert "3" in pretty(parse("x := 3 return x"))
    assert '"10"' in pretty(parse('x := "10" return x'))


def test_comments_are_ignored():
    p = parse("# doubles nothing\nx := 1  # trailing\nreturn x")
    assert p.body == Assign("x", OpApp(literal_op_name("1")))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_node_class_lists_its_parts():
    # A class missing from the table would have no children and no parts.
    classes = {*_subclasses(syntax.Expr), *_subclasses(syntax.Cmd), Program}
    assert classes == {Var, OpApp, OracleCall, Skip, Assign, Seq, If, While, Program}
    assert classes <= set(syntax._PARTS)


def test_part_names_are_the_json_exports_keys():
    p = parse("if (eq(x, phi(x | y))) { x := pred(x); skip } "
              "else { while (gt0(x)) { skip } } return x")
    for node in syntax.preorder(p):
        if isinstance(node, OpApp):
            assert part_names(node) == tuple(map(str, range(len(node.args))))
            continue
        to_json = program_to_json if isinstance(node, Program) else node_to_json
        doc = to_json(node)
        assert part_names(node) == tuple(k for k, v in doc.items() if isinstance(v, dict))


def test_equality_tells_classes_and_part_counts_apart():
    x, skip = Var("x"), Skip()
    assert OpApp("eq", (x, x)) != OpApp("eq", (x,))
    assert OpApp("eq", (x,)) != OpApp("eq", (x, x))
    assert Program(Seq(skip, skip), "x") != Program(While(skip, skip), "x")
    assert hash(Program(Seq(skip, skip), "x")) == hash(Program(Seq(Skip(), skip), "x"))
    assert x != "x" and x != skip
