"""Acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line
outside pytest's capture so the verdicts always reach the console.
Budgets are wall-clock seconds measured with time.monotonic.
"""

import random
import time

from tierlang.analysis import (
    count_lookahead_revisions,
    fit_loglog_slope,
    noninterference_test,
    random_table_oracle,
    sweep,
    unary_inputs,
)
from tierlang.bulkcheck import BulkTyping
from tierlang.bruteforce import enumerate_family
from tierlang.corpus import load_corpus
from tierlang.inference import encode, infer, typable
from tierlang.operators import builtin_registry, random_word
from tierlang.semantics import PaddedOracle, run_program, truncate_pad
from tierlang.syntax import parse, program_size
from tierlang.tiers import audit_derivation, check, verify_derivation


def announce(capfd, number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[criterion {number}] {verdict}  {detail}", flush=True)


def test_criterion_1_truncate_pad(capfd):
    start = time.monotonic()
    problems = []
    worked = [
        ("1001", "", "1"),
        ("1001", "0", "11"),
        ("1001", "00", "101"),
        ("1001", "000000", "1001100"),
    ]
    for v, bound, expect in worked:
        got = truncate_pad(v, bound)
        if got != expect:
            problems.append(f"{v} with bound {bound!r}: {got} != {expect}")
    rng = random.Random(20260823)
    for _ in range(10_000):
        v = random_word(rng, 64)
        w = random_word(rng, 64)
        out = truncate_pad(v, w)
        if len(out) != len(w) + 1:
            problems.append(f"length broke at v={v} bound={w}")
            break
        if len(v) <= len(w) and out[: out.rfind("1")] != v:
            problems.append(f"marker recovery broke at v={v} bound={w}")
            break
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    ok = not problems
    announce(capfd, 1, ok, f"4 worked values and 10^4 random words in {elapsed:.2f}s")
    assert ok, problems


def test_criterion_2_corpus_verdicts(capfd):
    start = time.monotonic()
    problems = []
    for entry in load_corpus():
        result = infer(entry.program(), t_max=entry.t_max)
        if entry.typable:
            if result is None:
                problems.append(f"{entry.name}: expected typable")
            elif result.gamma != entry.gamma or result.triple != entry.triple:
                problems.append(
                    f"{entry.name}: got {result.gamma} {result.triple}, "
                    f"want {entry.gamma} {entry.triple}"
                )
        elif result is not None:
            problems.append(f"{entry.name}: expected untypable")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget 5s")
    ok = not problems
    announce(capfd, 2, ok, f"{len(load_corpus())} corpus verdicts in {elapsed:.2f}s")
    assert ok, problems


def test_criterion_3_exhaustive_small_programs(capfd):
    start = time.monotonic()
    cap = 3
    family = enumerate_family(12, ("x", "y", "z"), ("pred", "suc1", "gt0"))
    engine = BulkTyping(cap)
    mismatches = []
    typable_count = 0
    for p in family:
        reference = engine.typable(p)
        fast = typable(p, t_max=cap)
        if fast:
            typable_count += 1
        if reference != fast:
            mismatches.append(p)
            if len(mismatches) >= 5:
                break
    elapsed = time.monotonic() - start
    problems = [f"verdicts disagree on {len(mismatches)} programs"] if mismatches else []
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, budget 120s")
    ok = not problems
    announce(
        capfd,
        3,
        ok,
        f"{len(family)} programs to 12 nodes, {typable_count} typable, "
        f"0 disagreements, {elapsed:.1f}s",
    )
    assert ok, problems


def test_criterion_4_derivations_survive_audit(capfd):
    problems = []
    audited = 0
    for entry in load_corpus():
        if not entry.typable:
            continue
        p = entry.program()
        derivation = check(p, entry.gamma, entry.triple, t_max=entry.t_max)
        if derivation is None:
            problems.append(f"{entry.name}: no derivation at its typing")
            continue
        try:
            verify_derivation(derivation, entry.gamma)
        except Exception as exc:
            problems.append(f"{entry.name}: local re-check failed: {exc}")
            continue
        report = audit_derivation(derivation, entry.gamma)
        if not report.ok:
            problems.append(f"{entry.name}: {report.violations}")
        audited += 1
    ok = not problems
    announce(capfd, 4, ok, f"{audited} corpus derivations through all five audits")
    assert ok, problems


def test_criterion_5_noninterference(capfd):
    start = time.monotonic()
    problems = []
    levels_run = 0
    for entry in load_corpus():
        if not entry.ni:
            continue
        p = entry.program()
        for level in sorted(set(entry.gamma.values())):
            report = noninterference_test(
                p, entry.gamma, level, trials=1000, seed=level
            )
            levels_run += 1
            if not report.ok:
                first = report.failures[0]
                problems.append(
                    f"{entry.name} level {level}: {first.variable} diverged "
                    f"({first.first!r} vs {first.second!r})"
                )
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    ok = not problems
    announce(
        capfd,
        5, ok,
        f"1000 trials x {levels_run} program-levels in {elapsed:.1f}s",
    )
    assert ok, problems


def test_criterion_6_lookahead_is_flat(capfd):
    problems = []
    series_checked = 0
    scales = range(1, 51)
    for entry in load_corpus():
        if entry.lr_bound is None:
            continue
        p = entry.program()
        gen = unary_inputs(*entry.scale_vars)
        for table_seed in range(5):
            oracle = random_table_oracle(random.Random(table_seed))
            series = []
            for scale in scales:
                res = run_program(p, gen(scale), oracle)
                series.append(count_lookahead_revisions(res.trace))
            series_checked += 1
            peak = max(series)
            if peak > entry.lr_bound:
                problems.append(
                    f"{entry.name} table {table_seed}: lr {peak} exceeds "
                    f"bound {entry.lr_bound}"
                )
            if max(series[: len(series) // 2]) != peak:
                problems.append(
                    f"{entry.name} table {table_seed}: revisions still "
                    f"growing in the second half: {series}"
                )
    ok = not problems
    announce(
        capfd,
        6, ok,
        f"{series_checked} series over scales 1..50 stay within their bounds",
    )
    assert ok, problems


def test_criterion_7_step_growth_matches_degree(capfd):
    problems = []
    fitted = []
    for entry in load_corpus():
        if not entry.in_sweep:
            continue
        p = entry.program()
        # Steps grow like n^degree.  The quadratic entries stop at 2^7, a cap
        # set by the cost of re-scanning every operator result for 0/1 in
        # Python, which made each step as slow as its result was long.
        top_k = 10 if entry.degree <= 1 else 7
        scales = [2 ** k for k in range(1, top_k + 1)]
        oracle = random_table_oracle(random.Random(0)) if "phi" in entry.source() else None
        report = sweep(p, unary_inputs(*entry.scale_vars), oracle, scales)
        slope = report.slope if report.slope is not None else 0.0
        fitted.append(f"{entry.name}:{slope:.2f}")
        if slope > entry.degree + 0.25:
            problems.append(
                f"{entry.name}: slope {slope:.3f} above degree {entry.degree} + 0.25"
            )
    ok = not problems
    announce(capfd, 7, ok, "log-log slopes " + ", ".join(fitted))
    assert ok, problems


def test_criterion_8_iteration_matches_reference(capfd):
    entry = next(e for e in load_corpus() if e.name == "iterate")
    p = entry.program()
    lmin = builtin_registry().lookup("lmin").fn
    problems = []
    rng = random.Random(8)
    for trial in range(100):
        table = random_table_oracle(rng, entries=10, max_answer_len=6)
        a = random_word(rng, 8)
        b = random_word(rng, 8)
        c = random_word(rng, 6)
        x = b
        for _ in range(len(c)):
            x = table.answer(lmin(x, a))
        got = run_program(p, {"a": a, "b": b, "c": c}, PaddedOracle(table))
        if got.value != x:
            problems.append(
                f"trial {trial}: program {got.value!r} != recursion {x!r} "
                f"at a={a!r} b={b!r} c={c!r}"
            )
    ok = not problems
    announce(capfd, 8, ok, "bounded iteration agrees with the recursion on 100 instances")
    assert ok, problems


def _synthetic_countdown(blocks: int):
    lines = []
    for i in range(blocks):
        lines.append(f"while (gt0(v{i})) {{ v{i} := pred(v{i}); w := suc1(w) }};")
    lines.append("w := suc1(w)")
    lines.append("return w")
    return parse("\n".join(lines))


def test_criterion_9_encoding_stays_small_and_fast(capfd):
    problems = []
    for entry in load_corpus():
        p = entry.program()
        n = program_size(p)
        t_cap = entry.t_max if entry.t_max is not None else n
        enc = encode(p, t_max=entry.t_max)
        bound = 50 * n * n * t_cap
        if len(enc.clause_set.clauses) > bound:
            problems.append(
                f"{entry.name}: {len(enc.clause_set.clauses)} clauses "
                f"over bound {bound}"
            )
    big = _synthetic_countdown(41)
    size = program_size(big)
    start = time.monotonic()
    result = infer(big)
    elapsed = time.monotonic() - start
    if size < 500:
        problems.append(f"synthetic program only has {size} nodes")
    if result is None:
        problems.append("synthetic program should be typable")
    elif any(result.gamma[f"v{i}"] != 1 for i in range(41)) or result.gamma["w"] != 0:
        problems.append(f"synthetic typing came out wrong: {result.gamma}")
    if elapsed >= 10.0:
        problems.append(f"inference took {elapsed:.1f}s, budget 10s")
    ok = not problems
    announce(
        capfd,
        9, ok,
        f"corpus clause counts within 50*n^2*t, {size}-node inference "
        f"in {elapsed:.1f}s",
    )
    assert ok, problems
