"""Counted work: the line and call events of `tierlang` code during a call.

`trace_events` counts the line and call events that `sys.settrace`
reports for code under `src/tierlang`, and for the code the interpreter
generates for a program (file name `<tierlang program>`), while one call
runs.  Counts are exact and the same on every machine, so where wall time
on a shared machine is too noisy to tell, a count shows how work grows
with the input.  Call events count each resumption of a generator, so a
recursive generator, which passes every node up through all its
ancestors' frames, shows too.

Neither kind of event sees work done in C: string and word copies (a
builtin such as `pred`, on a word not held in place, copies the word in
one event), argument passing, list and dict growth, `sorted`.  A stage
that turns quadratic only there, such as a walk that copies its stack per
node with `stack = stack + [...]`, passes a test built on these counts.

`package_calls` counts only the calls into the package's modules, by
function, so a test can pin how many Python calls a step makes.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import tierlang

_PACKAGE = str(Path(tierlang.__file__).parent)
# The file name `semantics._compile` gives the source it generates.
_GENERATED = "<tierlang program>"


def trace_events(fn, *args) -> int:
    """The number of line and call events in `tierlang` code, generated
    code included, while ``fn(*args)`` runs.  Each resumption of a
    generator is a call event."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        nonlocal count
        filename = frame.f_code.co_filename
        if not (filename.startswith(_PACKAGE) or filename == _GENERATED):
            return None
        count += 1
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def package_calls(fn, *args) -> Counter:
    """The calls into the package's own modules while ``fn(*args)`` runs,
    by qualified function name.  The generated code of a program is not
    counted, nor is anything it calls outside the package."""
    calls: Counter = Counter()

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(_PACKAGE):
            calls[code.co_qualname] += 1

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return calls
