"""One workload in its own process: set up, run passes, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only]

Run from the root of a source checkout; the package is imported from its
`src` directory.  Prints one JSON object as the last line of stdout.
`run.py` starts this process and turns its report into the benchmark's
result line.

Set-up time runs from the first line of this file to the end of input
generation: importing the package with its numpy and scipy
dependencies, `load_corpus`, and making the workload's seeded inputs.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "out"
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
MIN_PASSES = 2  # every op is timed at least twice
FAILURE_NOTES = 10
# Counts that must come out the same in every pass.
REPEATING_COUNTS = ("inference.clauses", "semantics.steps", "bruteforce.programs")


class Totals:
    """Pass times, op latencies and failure counts of one measurement."""

    def __init__(self) -> None:
        self.passes = 0
        self.seconds = 0.0
        self.attempted = 0
        self.known = 0
        self.errors = 0
        self.wrong = 0
        self.ok = 0
        self.steps = 0
        # Per op: [summed seconds, count] of its successful runs.
        self.op_seconds: dict[object, list] = {}
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return self.known + self.errors + self.wrong

    def note(self, text: str) -> None:
        if len(self.notes) < FAILURE_NOTES:
            self.notes.append(text)


def check_pass(workload, log, elapsed: float, totals: Totals, first: dict) -> None:
    """Check every output of a pass and add it to the totals.  `first`
    maps op keys to the signatures of their first checked outputs."""
    from workloads import Mismatch

    bad: set[int] = set()
    for i, (key, output) in enumerate(zip(log.keys, log.outputs)):
        if isinstance(output, BaseException):
            bad.add(i)
            if workload.is_known_failure(key, output):
                totals.known += 1
            else:
                totals.errors += 1
                totals.note(f"{key}: raised {type(output).__name__}: {output}")
            continue
        try:
            signature = workload.check(key, output)
        except Mismatch as exc:
            problem = str(exc)
        except Exception as exc:  # a check that cannot read the output
            problem = f"{key}: unreadable output ({type(exc).__name__}: {exc})"
        else:
            expected = first.setdefault(key, signature)
            if expected == signature:
                continue
            problem = f"{key}: output {signature!r} differs from first pass {expected!r}"
        bad.add(i)
        totals.wrong += 1
        totals.note(problem)
    for lo, hi, key, output in log.groups:
        try:
            workload.check_group(key, output)
        except Exception as exc:  # Mismatch, or a group output it cannot read
            totals.note(str(exc))
            for i in range(lo, hi):
                if i not in bad:
                    bad.add(i)
                    totals.wrong += 1
    for i, (key, seconds) in enumerate(zip(log.keys, log.seconds)):
        if i not in bad:
            sums = totals.op_seconds.setdefault(key, [0.0, 0])
            sums[0] += seconds
            sums[1] += 1
    totals.passes += 1
    totals.seconds += elapsed
    totals.attempted += len(log.keys)
    totals.ok += len(log.keys) - len(bad)
    totals.steps += workload.steps(log)


def measure(workload, seconds: float, first: dict, min_passes: int = 1,
            tracer=None, pass_counts: list | None = None) -> Totals:
    """Run at least `min_passes` whole passes, and more while another pass
    of average length still ends within `seconds` of pass time."""
    from workloads import OpLog

    totals = Totals()
    while (totals.passes < min_passes
           or totals.seconds * (totals.passes + 1) / totals.passes <= seconds):
        log = OpLog(tracer)
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            workload.run_pass(log)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            pass_counts.append(dict(tracer.counts))
            tracer.counts.clear()
        check_pass(workload, log, elapsed, totals, first)
    return totals


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(totals: Totals) -> dict:
    """Throughput over all passes; latency percentiles over the distinct
    ops, each op timed by the mean of its runs.  The machine's speed
    switches between levels; a mean moves smoothly with the share of time
    spent at each, where a single run, a minimum or a median can jump."""
    mean_ms = [1000.0 * total / count for total, count in totals.op_seconds.values()]
    if len(mean_ms) < MIN_OPS:
        raise SystemExit(f"only {len(mean_ms)} ops succeeded; percentiles need "
                         f"{MIN_OPS}")
    return {
        "ops_per_s": metric(totals.ok / totals.seconds, "1/s"),
        "op_p50_ms": metric(statistics.median(mean_ms), "ms"),
        "op_p90_ms": metric(statistics.quantiles(mean_ms, n=10)[8], "ms"),
        "ok_ratio": metric(totals.ok / totals.attempted, "ratio"),
    }


# Per-layer self times: metric name -> span name.
LAYER_TIMES = {
    "syntax.parse_s": "syntax.parse",
    "inference.encode_s": "inference.encode",
    "inference.solve_s": "inference.solve_2sat",
    "inference.infer_s": "inference.infer",
    "inference.typable_s": "inference.typable",
    "tiers.check_s": "tiers.check",
    "tiers.build_s": "tiers.build_derivation",
    "tiers.verify_s": "tiers.verify_derivation",
    "tiers.audit_s": "tiers.audit_derivation",
    "semantics.run_s": "semantics.run_program",
    "semantics.oracle_s": "semantics.oracle",
    "operators.apply_s": "operators.apply",
    "analysis.ni_s": "analysis.noninterference_test",
    "analysis.table_gen_s": "analysis.random_table_oracle",
    "analysis.lookahead_s": "analysis.count_lookahead_revisions",
    "bulkcheck.typable_s": "bulkcheck.BulkTyping.typable",
    "bruteforce.enumerate_s": "bruteforce.enumerate_family",
}
LAYER_COUNTS = (
    "inference.clauses",
    "inference.bool_vars",
    "tiers.derivation_nodes",
    "semantics.steps",
    "semantics.queries",
    "operators.apply_calls",
    "bruteforce.programs",
)
LOAD_PROBES = 5


def per_layer(workload, seconds: float, first: dict, spans_path: Path):
    """Untraced passes for half the time, then traced passes for the rest.
    Returns the per-layer metrics and both measurements."""
    from tierlang import corpus
    from tracing import Tracer

    plain = measure(workload, seconds / 2, first)

    probe = Tracer()
    probe.install()
    try:
        for _ in range(LOAD_PROBES):
            corpus.load_corpus()
    finally:
        probe.uninstall()
    load_s = statistics.median(probe.durations("corpus.load_corpus"))

    tracer = Tracer()
    pass_counts: list[dict] = []
    origin = perf_counter()
    traced = measure(workload, seconds / 2, first, tracer=tracer,
                     pass_counts=pass_counts)
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path, origin)

    for name in REPEATING_COUNTS:
        values = {counts.get(name, 0) for counts in pass_counts}
        if len(values) > 1:
            traced.wrong += 1
            traced.note(f"{name} differs between traced passes: {sorted(values)}")
    if traced.steps != sum(c.get("semantics.steps", 0) for c in pass_counts):
        traced.wrong += 1
        traced.note("traced step count differs from the run results")

    n = traced.passes
    self_times = tracer.self_times()
    metrics = {name: metric(self_times.get(span, 0.0) / n, "s")
               for name, span in LAYER_TIMES.items()}
    metrics["harness_s"] = metric((traced.seconds - tracer.root_time()) / n, "s")
    for name in LAYER_COUNTS:
        metrics[name] = metric(sum(c.get(name, 0) for c in pass_counts) / n, "count")
    parse_s = self_times.get("syntax.parse", 0.0)
    nodes = sum(c.get("syntax.nodes", 0) for c in pass_counts)
    metrics["syntax.nodes_per_s"] = metric(nodes / parse_s if parse_s else 0.0, "1/s")
    metrics["corpus.load_s"] = metric(load_s, "s")
    metrics["steps_per_s"] = metric(plain.steps / plain.seconds, "1/s")
    failed = plain.failed + traced.failed
    metrics["failed_ratio"] = metric(failed / (plain.attempted + traced.attempted),
                                     "ratio")
    metrics["trace.overhead_ratio"] = metric(
        (traced.seconds / traced.passes) / (plain.seconds / plain.passes), "ratio")
    return metrics, (plain, traced)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import tierlang
    from tierlang import corpus

    if not Path(tierlang.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"tierlang imported from {tierlang.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, corpus.load_corpus())
    setup_s = perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.prepare()
    first: dict = {}
    if args.trace:
        spans = OUT / f"spans-{args.workload}.json"
        metrics, parts = per_layer(workload, args.seconds, first, spans)
    else:
        totals = measure(workload, args.seconds, first, min_passes=MIN_PASSES)
        metrics, parts = end_to_end(totals), (totals,)
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    report = {
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": sum(t.attempted for t in parts),
        "failed": sum(t.failed for t in parts),
        "known_failures": sum(t.known for t in parts),
        "errors": sum(t.errors for t in parts),
        "wrong": sum(t.wrong for t in parts),
        "passes": [t.passes for t in parts],
        "pass_seconds": [t.seconds for t in parts],
        "notes": [n for t in parts for n in t.notes][:FAILURE_NOTES],
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
