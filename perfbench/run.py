"""Benchmark entry point for the tierlang package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a child
process (`worker.py`), so its peak memory is its own.  With `--trace 0`
the result carries the end-to-end metrics of BENCHMARK.json; with
`--trace 1` a separate traced run gives the per-layer metrics.  Set-up
time is the median over several fresh processes.

The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`correct` is false when any op returned a wrong output or raised an
exception other than the documented known defect.  `failed` counts every
op that raised or returned a wrong output, known defect included.  The
line before it describes the environment.  The full report, with the
environment, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("infer-large", "family-small", "run-long", "analyze-short")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
NOTE = ("wall time on a possibly shared machine: no CPU pinning, no machine "
        "settings changed, other tenants may load the machine")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {' '.join(args)} printed no report")
    return json.loads(lines[-1])


def source_digest() -> str:
    """SHA-256 over the package sources, so a result names the code it ran."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tierlang").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".tier", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "note": NOTE,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="tierlang benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and waits for
    # a running worker before the exit goes on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "tierlang" / "__init__.py").is_file():
        return fail(f"no tierlang sources under {ROOT / 'src'}; run from the "
                    "root of a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(run_worker([*common, "--setup-only"], deadline)["setup_s"])
        report = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as exc:
        return fail(str(exc))
    setup.append(report["setup_s"])

    measured = dict(report["metrics"])
    measured["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            return fail(f"metric {m['name']} ({m['unit']}) not measured as declared")
        metrics[m["name"]] = got

    env = environment()
    result = {
        "correct": report["wrong"] == 0 and report["errors"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_samples_s": setup,
        "worker": report, "result": result,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(details, indent=1) + "\n")
    for note in report["notes"]:
        print(f"perfbench: failure: {note}", file=sys.stderr)
    print("perfbench env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
