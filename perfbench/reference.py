"""Plain-Python references for the corpus programs the benchmark runs.

Each reference mirrors one `.tier` file statement by statement on a dict
of words and returns the final bindings (inputs plus every variable the
program assigns) and the oracle queries in the order asked.  Oracle
answers come from the table data itself, read through an independent
copy of truncate-pad, so a reference never calls the interpreter or the
package's oracle classes.
"""

from __future__ import annotations

from typing import Callable


def truncate_pad(v: str, bound: str) -> str:
    n = len(bound)
    kept = v[:n]
    return kept + "1" + "0" * (n - len(kept))


class TableAnswers:
    """Answers of a query table, with the table's default rule.

    `padded` reads queries the way a padded oracle does: the part before
    the last `1` marker is the key looked up.
    """

    def __init__(self, entries, default: tuple[str, str | None], padded: bool):
        self.rows: dict[str, str] = {}
        for q, a in entries:
            self.rows.setdefault(q, a)
        self.default = default
        self.padded = padded

    def __call__(self, query: str) -> str:
        key = query
        if self.padded:
            marker = query.rfind("1")
            if marker < 0:
                return self._default(query)
            key = query[:marker]
        answer = self.rows.get(key)
        return self._default(query) if answer is None else answer

    def _default(self, query: str) -> str:
        kind, value = self.default
        return value if kind == "constant" else "1" * len(query)


class _Oracle:
    """Query recorder: phi(data | bound) as the reference programs ask it."""

    def __init__(self, answers: Callable[[str], str] | None):
        self.answers = answers
        self.queries: list[tuple[str, str]] = []

    def __call__(self, data: str, bound: str) -> str:
        query = truncate_pad(data, bound)
        answer = self.answers(query)
        self.queries.append((query, answer))
        return answer


def _lmin(a: str, b: str) -> str:
    return a if len(a) < len(b) else b


def _maxlen(a: str, b: str) -> str:
    return a if len(a) > len(b) else b


def _skip(s, phi):
    return "x"


def _add(s, phi):
    while s["x"]:
        s["x"] = s["x"][1:]
        s["y"] = "1" + s["y"]
    return "y"


def _three_tiers(s, phi):
    while s["x"]:
        s["x"] = s["x"][1:]
        s["y"] = "11" + s["y"]
    while s["y"]:
        s["y"] = s["y"][1:]
        s["z"] = "11" + s["z"]
    return "z"


def _nested_copy(s, phi):
    while s["x"]:
        s["x"] = s["x"][1:]
        s["z"] = s["y"]
        while s["z"]:
            s["z"] = s["z"][1:]
            s["u"] = "1" + s["u"]
    return "u"


def _oracle_search(s, phi):
    s["y"] = s["x"]
    s["z"] = "0"
    while s["x"]:
        if phi(s["y"], s["x"]) == "0":
            s["z"] = "1"
        s["x"] = s["x"][1:]
    return "z"


def _oracle_scan_tally(s, phi):
    s["x"] = s["n"]
    s["y"] = s["x"]
    s["z"] = ""
    while s["x"]:
        s["z"] = _maxlen(phi(s["y"], s["x"]), s["z"])
        s["x"] = s["x"][1:]
    s["v"] = s["z"]
    s["u"] = ""
    while s["z"]:
        s["w"] = phi(s["v"], s["z"])
        while s["w"]:
            s["u"] = "1" + s["u"]
            s["w"] = s["w"][1:]
        s["z"] = s["z"][1:]
    return "u"


def _iterate(s, phi):
    s["x"] = s["b"]
    while s["c"]:
        s["x"] = phi(_lmin(s["x"], s["a"]), s["a"])
        s["c"] = s["c"][1:]
    return "x"


def _shared_bound(s, phi):
    while s["a"]:
        s["u"] = phi(s["s"], s["x"])
        s["b"] = "1" + s["b"]
        s["a"] = s["a"][1:]
    while s["b"]:
        s["v"] = phi(s["r"], s["x"])
        s["b"] = s["b"][1:]
    return "v"


PROGRAMS = {
    "skip": _skip,
    "add": _add,
    "three_tiers": _three_tiers,
    "nested_copy": _nested_copy,
    "oracle_search": _oracle_search,
    "oracle_scan_tally": _oracle_scan_tally,
    "iterate": _iterate,
    "shared_bound": _shared_bound,
}


class _Bindings(dict):
    """Inputs plus assigned variables; unset variables read as empty."""

    def __missing__(self, name: str) -> str:
        return ""


def run_reference(name: str, inputs: dict[str, str],
                  answers: Callable[[str], str] | None):
    """(return value, final bindings, queries) of corpus program `name`."""
    store = _Bindings(inputs)
    phi = _Oracle(answers)
    ret = PROGRAMS[name](store, phi)
    return store[ret], dict(store), phi.queries
