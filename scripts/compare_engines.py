#!/usr/bin/env python3
"""Cross-validate the solver verdict against exhaustive rule search.

Enumerates every canonical program up to --max-size nodes over the stock
{x, y, z} x {pred, suc1, gt0}, decides typability twice (vectorized rule
search with tiers capped at --cap, and the least-tiers solver), and reports
any disagreement.  Size 12 reproduces the acceptance sweep and takes
about a minute.
"""

import argparse
import sys
import time

from tierlang.bruteforce import enumerate_family
from tierlang.bulkcheck import BulkTyping
from tierlang.inference import typable
from tierlang.syntax import pretty


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=12)
    ap.add_argument("--cap", type=int, default=3, help="largest tier tried")
    args = ap.parse_args()

    start = time.monotonic()
    family = enumerate_family(args.max_size)
    built = time.monotonic() - start
    print(f"{len(family)} canonical programs up to {args.max_size} nodes "
          f"({built:.1f}s)", file=sys.stderr)

    engine = BulkTyping(args.cap)
    positives = 0
    disagreements = 0
    for i, program in enumerate(family):
        reference = engine.typable(program)
        fast = typable(program, t_max=args.cap)
        positives += fast
        if reference != fast:
            disagreements += 1
            print(f"DISAGREE ref={reference} fast={fast}: {pretty(program)!r}")
        if (i + 1) % 50_000 == 0:
            print(f"  {i + 1} done, {time.monotonic() - start:.0f}s",
                  file=sys.stderr)
    total = time.monotonic() - start
    print(f"{len(family)} programs, {positives} typable, "
          f"{disagreements} disagreements, {total:.1f}s")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
