"""Operator registry with growth classifications.

Operators compute total functions over binary words.  Each registered
operator carries a classification used by the type system:

* ``Neutral``: a nullary constant, a predicate (range inside {0, 1}),
  or an operator whose output is always a contiguous subword of one of
  its arguments.  Neutral operators never lengthen their input.
* ``Positive(slack)``: output length at most max argument length plus
  a fixed slack.  Every neutral operator is positive with slack 1.

Word literals appearing in source (``3``, ``"101"``) resolve to
synthesized nullary constants named ``lit:<word>``; every registry
creates those on demand, from one bounded cache, and stores none.  The
named constants ``0``, ``1`` and ``eps`` are ordinary registry entries
(``eps()`` is valid source; ``0`` and ``1`` are reachable through
literals).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .syntax import literal_word

ALPHABET = ("0", "1")


def is_word(w: object) -> bool:
    return isinstance(w, str) and not w.strip("01")


def is_subword(u: str, v: str) -> bool:
    """Contiguous-substring relation; the empty word is a subword of all."""
    return u in v


@dataclass(frozen=True)
class Neutral:
    predicate: bool = False


@dataclass(frozen=True)
class Positive:
    slack: int = 1


Classification = Neutral | Positive


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    name: str
    arity: int
    classification: Classification
    fn: Callable[..., str]


class UnknownOperator(KeyError):
    pass


class Registry:
    """Immutable-by-convention operator table.

    ``builtin_registry()`` returns a fresh copy, so extending one
    registry never affects another; ``DEFAULT_REGISTRY`` is one such copy,
    shared by every call that passes no registry.  ``extended`` is the
    supported way to add operators.
    """

    def __init__(self, specs: tuple[OperatorSpec, ...] = ()):
        self._specs: dict[str, OperatorSpec] = {}
        for s in specs:
            self._register(s)

    def _register(self, spec: OperatorSpec) -> None:
        if spec.name in self._specs:
            raise ValueError(f"duplicate operator {spec.name!r}")
        if spec.arity < 0:
            raise ValueError(f"negative arity for {spec.name!r}")
        self._specs[spec.name] = spec

    def extended(self, *specs: OperatorSpec) -> "Registry":
        r = Registry(tuple(self._specs.values()))
        for s in specs:
            r._register(s)
        return r

    def __contains__(self, name: str) -> bool:
        return name in self._specs or _literal(name) is not None

    def lookup(self, name: str) -> OperatorSpec:
        spec = self._specs.get(name) or _literal(name)
        if spec is None:
            raise UnknownOperator(name)
        return spec

    def names(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def resolve(self, name: str, arity: int) -> Callable[..., str]:
        """The function that applies operator ``name`` to ``arity`` words.

        Raises UnknownOperator, or ValueError on an arity mismatch.  The
        builtins and constants return words by construction and come back
        as they are; any other operator's results are checked, each time,
        for being words.
        """
        spec = self.lookup(name)
        if arity != spec.arity:
            raise ValueError(
                f"operator {name!r} expects {spec.arity} argument(s), got {arity}")
        fn = spec.fn
        if spec in _BUILTINS or type(fn) is _Constant:
            return fn

        def checked(*args: str) -> str:
            out = fn(*args)
            if not is_word(out):
                raise ValueError(f"operator {name!r} returned a non-word: {out!r}")
            return out

        return checked


@lru_cache(maxsize=1024)
def _literal(name: str) -> OperatorSpec | None:
    """The constant a word-literal name stands for, or None.  Every registry
    synthesizes the same one, and none stores it, so no table grows with
    the literals it has seen."""
    word = literal_word(name)
    if word is not None and is_word(word):
        return OperatorSpec(name, 0, Neutral(), _Constant(word))
    return None


class _Constant:
    """Function of a nullary operator that returns one fixed word."""

    __slots__ = ("word",)

    def __init__(self, word: str):
        if not is_word(word):
            raise ValueError(f"constant {word!r} is not a word over 0/1")
        self.word = word

    def __call__(self) -> str:
        return self.word


def _pred(w: str) -> str:
    return w[1:]


def _suc0(w: str) -> str:
    return "0" + w


def _suc1(w: str) -> str:
    return "1" + w


def _eq(a: str, b: str) -> str:
    return "1" if a == b else "0"


def _gt0(w: str) -> str:
    return "1" if w else "0"


def _geq(a: str, b: str) -> str:
    return "1" if len(a) >= len(b) else "0"


def _lmin(a: str, b: str) -> str:
    return a if len(a) < len(b) else b


def _maxlen(a: str, b: str) -> str:
    return a if len(a) > len(b) else b


_BUILTINS = (
    OperatorSpec("pred", 1, Neutral(), _pred),
    OperatorSpec("suc0", 1, Positive(1), _suc0),
    OperatorSpec("suc1", 1, Positive(1), _suc1),
    OperatorSpec("eq", 2, Neutral(predicate=True), _eq),
    OperatorSpec("gt0", 1, Neutral(predicate=True), _gt0),
    OperatorSpec("geq", 2, Neutral(predicate=True), _geq),
    OperatorSpec("lmin", 2, Neutral(), _lmin),
    OperatorSpec("maxlen", 2, Neutral(), _maxlen),
    OperatorSpec("0", 0, Neutral(), _Constant("0")),
    OperatorSpec("1", 0, Neutral(), _Constant("1")),
    OperatorSpec("eps", 0, Neutral(), _Constant("")),
)


def builtin_registry() -> Registry:
    return Registry(_BUILTINS)


# The table every entry point falls back on when given no registry.  It is
# shared and never changes; callers that want to extend a table start from
# `builtin_registry()` instead.
DEFAULT_REGISTRY = builtin_registry()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    trials: int
    counterexample: tuple[tuple[str, ...], str] | None = None
    reason: str | None = None


def random_word(rng: random.Random, max_len: int) -> str:
    """A word of uniformly drawn length 0..max_len with uniform symbols.

    Each symbol is drawn as ``rng.choice(ALPHABET)`` draws it, two bits at
    a time with rejection, so a seed gives the same words and leaves the
    generator in the same state, in less than half the time.
    """
    n = rng.randint(0, max_len)
    getrandbits = rng.getrandbits
    symbols: list[str] = []
    while len(symbols) < n:
        r = getrandbits(2)
        if r < 2:
            symbols.append(ALPHABET[r])
    return "".join(symbols)


def validate_classification(spec: OperatorSpec, trials: int = 500,
                            seed: int = 0, max_len: int = 48) -> ValidationReport:
    """Randomized check that an operator meets its declared classification.

    A failure is reported with a concrete argument tuple.  Passing is
    evidence, not proof: the check samples words up to ``max_len``,
    always including the all-empty tuple and single-symbol tuples.
    """
    rng = random.Random(seed)
    fixed: list[tuple[str, ...]] = [("",) * spec.arity]
    for sym in ALPHABET:
        fixed.append((sym,) * spec.arity)
    samples = fixed + [
        tuple(random_word(rng, max_len) for _ in range(spec.arity))
        for _ in range(trials)
    ]
    checked = 0
    for args in samples:
        checked += 1
        out = spec.fn(*args)
        if not is_word(out):
            return ValidationReport(False, checked, (args, repr(out)),
                                    "output is not a word over 0/1")
        cls = spec.classification
        if isinstance(cls, Neutral):
            if spec.arity == 0:
                continue
            if cls.predicate:
                if out not in ("0", "1"):
                    return ValidationReport(False, checked, (args, out),
                                            "declared predicate left {0,1}")
            elif not any(is_subword(out, a) for a in args):
                return ValidationReport(False, checked, (args, out),
                                        "output is not a subword of any argument")
        else:
            limit = max((len(a) for a in args), default=0) + cls.slack
            if len(out) > limit:
                return ValidationReport(
                    False, checked, (args, out),
                    f"output length {len(out)} exceeds max argument + {cls.slack}")
    return ValidationReport(True, checked)
