"""Hypothesis generators for random words, expressions and programs.

The expression stock mirrors the builtin registry: unary pred/suc0/suc1/gt0,
binary eq/geq/lmin/maxlen, plus word literals.  Named nullary constants are
left out because the surface syntax spells constants as literals.
"""

from hypothesis import strategies as st

from tierlang.syntax import (
    Assign,
    If,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
    literal_op_name,
)

VAR_NAMES = ("x", "y", "z")
UNARY_OPS = ("pred", "suc0", "suc1", "gt0")
BINARY_OPS = ("eq", "geq", "lmin", "maxlen")

words = st.text(alphabet="01", max_size=6)


def _literals():
    return st.builds(lambda w: OpApp(literal_op_name(w)), words)


def exprs(allow_oracle: bool = False, var_names=VAR_NAMES):
    base = st.one_of(
        st.builds(Var, st.sampled_from(var_names)),
        _literals(),
    )

    def extend(children):
        grown = [
            st.builds(lambda op, a: OpApp(op, (a,)),
                      st.sampled_from(UNARY_OPS), children),
            st.builds(lambda op, a, b: OpApp(op, (a, b)),
                      st.sampled_from(BINARY_OPS), children, children),
        ]
        if allow_oracle:
            grown.append(st.builds(OracleCall, children, children))
        return st.one_of(grown)

    return st.recursive(base, extend, max_leaves=6)


def _seq(a, b):
    # keep the parser's right-associated normal form
    if isinstance(a, Seq):
        return Seq(a.first, _seq(a.rest, b))
    return Seq(a, b)


def cmds(allow_oracle: bool = False, var_names=VAR_NAMES):
    e = exprs(allow_oracle, var_names)
    base = st.one_of(
        st.just(Skip()),
        st.builds(Assign, st.sampled_from(var_names), e),
    )

    def extend(children):
        return st.one_of(
            st.builds(_seq, children, children),
            st.builds(If, e, children, children),
            st.builds(While, e, children),
        )

    return st.recursive(base, extend, max_leaves=5)


def programs(allow_oracle: bool = False, var_names=VAR_NAMES,
             top_oracle: bool = False):
    """Random programs.  With `top_oracle`, two draws in three also assign
    an oracle call on two variables outside every loop, before or after the
    rest: the sealed mode pins such a call's bound to tier 0, so these
    programs often type under some environments only in the positive mode."""
    body = cmds(allow_oracle, var_names)
    if top_oracle:
        var = st.builds(Var, st.sampled_from(var_names))
        call = st.builds(Assign, st.sampled_from(var_names),
                         st.builds(OracleCall, var, var))
        body = st.one_of(body, st.builds(_seq, call, body),
                         st.builds(_seq, body, call))
    return st.builds(Program, body, st.sampled_from(var_names))
