"""Builtin operator behaviour and classification checks."""

import random

import pytest
from hypothesis import given, strategies as st

from tierlang.operators import (
    ALPHABET,
    DEFAULT_REGISTRY,
    Neutral,
    OperatorSpec,
    Positive,
    UnknownOperator,
    builtin_registry,
    is_subword,
    random_word,
    validate_classification,
)
from tierlang.inference import typable
from tierlang.semantics import run_program
from tierlang.syntax import literal_op_name, parse

words = st.text(alphabet="01", max_size=10)


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


def apply(reg, name, *args):
    return reg.lookup(name).fn(*args)


def test_pred_drops_leading_symbol(reg):
    assert apply(reg, "pred", "1011") == "011"
    assert apply(reg, "pred", "") == ""


def test_successors_prepend(reg):
    assert apply(reg, "suc0", "10") == "010"
    assert apply(reg, "suc1", "") == "1"


def test_predicates_answer_in_unit_words(reg):
    assert apply(reg, "gt0", "") == "0"
    assert apply(reg, "gt0", "0") == "1"
    assert apply(reg, "eq", "01", "01") == "1"
    assert apply(reg, "eq", "01", "10") == "0"
    assert apply(reg, "geq", "111", "10") == "1"
    assert apply(reg, "geq", "1", "10") == "0"


def test_lmin_picks_shorter_word(reg):
    assert apply(reg, "lmin", "111", "00") == "00"
    assert apply(reg, "lmin", "0", "111") == "0"


def test_maxlen_picks_longer_word(reg):
    assert apply(reg, "maxlen", "111", "00") == "111"
    assert apply(reg, "maxlen", "0", "11") == "11"


def test_constants(reg):
    assert apply(reg, "0") == "0"
    assert apply(reg, "1") == "1"
    assert apply(reg, "eps") == ""


def test_literal_ops_synthesized_on_lookup(reg):
    spec = reg.lookup(literal_op_name("1001"))
    assert spec.arity == 0
    assert spec.fn() == "1001"
    assert isinstance(spec.classification, Neutral)


def test_membership_agrees_with_lookup(reg):
    # Literal names are members only when their word is over 0/1.
    word = literal_op_name("1001")
    assert word in reg and reg.lookup(word).fn() == "1001"
    not_a_word = literal_op_name("012")
    assert not_a_word not in reg
    with pytest.raises(UnknownOperator):
        reg.lookup(not_a_word)


def test_literals_leave_the_registries_unchanged():
    # Each distinct literal once made the shared registry grow by one entry.
    before, copied = DEFAULT_REGISTRY.names(), DEFAULT_REGISTRY.extended().names()
    for i in range(300):
        word = format(i + 2**12, "b")
        p = parse(f'x := "{word}" return x')
        assert typable(p)
        assert run_program(p).value == word
    assert DEFAULT_REGISTRY.names() == before
    assert DEFAULT_REGISTRY.extended().names() == copied


def test_unknown_operator_raises(reg):
    with pytest.raises(KeyError):
        reg.lookup("frobnicate")


def test_extended_registry_keeps_builtins(reg):
    extra = OperatorSpec("head", 1, Neutral(), lambda w: w[:1])
    reg2 = reg.extended(extra)
    assert "head" in reg2 and "pred" in reg2
    assert "head" not in reg


def test_builtin_registry_is_a_fresh_copy():
    first, second = builtin_registry(), builtin_registry()
    assert first is not second
    assert first is not DEFAULT_REGISTRY
    assert set(DEFAULT_REGISTRY.names()) >= set(first.names())


@pytest.mark.parametrize("name", [
    "pred", "suc0", "suc1", "eq", "gt0", "geq", "lmin", "maxlen",
    "0", "1", "eps",
])
def test_builtin_classifications_hold(reg, name):
    report = validate_classification(reg.lookup(name), trials=300)
    assert report.ok, report


def test_validation_flags_a_liar():
    liar = OperatorSpec("double", 1, Neutral(), lambda w: w + w)
    report = validate_classification(liar, trials=50)
    assert not report.ok
    assert report.counterexample is not None


def test_validation_flags_wrong_slack():
    # claims growth of at most one symbol but adds two
    liar = OperatorSpec("suc11", 1, Positive(1), lambda w: w + "11")
    assert not validate_classification(liar, trials=50).ok


def test_is_subword():
    assert is_subword("01", "0011")
    assert is_subword("", "anything could go here")
    assert not is_subword("11", "00")


@given(words)
def test_pred_shrinks(reg, w):
    assert len(apply(reg, "pred", w)) == max(0, len(w) - 1)


@given(words, words)
def test_lmin_never_longer_than_either(reg, a, b):
    out = apply(reg, "lmin", a, b)
    assert len(out) <= min(len(a), len(b))


def test_random_word_draws_as_rng_choice_does():
    def reference(rng, max_len):
        n = rng.randint(0, max_len)
        return "".join(rng.choice(ALPHABET) for _ in range(n))

    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for max_len in range(65):
            assert random_word(ours, max_len) == reference(theirs, max_len)
        assert ours.getstate() == theirs.getstate()
