#!/usr/bin/env python3
"""Run the whole claim catalogue and print one verdict per instance.

Exit status follows the CLI convention: 0 all match, 1 some hypothesis
was not met (and nothing mismatched), 2 at least one mismatch.
"""

import sys
import time

import numpy as np

from dscodes import sets, theorems
from dscodes.code import DefiningSet
from dscodes.field import get_field


def _splits(ms):
    """thm2 has no scan family: split GF(2^m)* into the cubic-trace set and the rest."""
    for m in ms:
        f = get_field(2, m)
        d1 = sets.tr_cubic_set(f)
        d2 = DefiningSet(f, np.flatnonzero(~d1.mask[1:]) + 1, label="rest")
        yield theorems.verify("thm2", f, (d1, d2))


def main() -> int:
    t0 = time.perf_counter()
    scan = theorems.scan
    reports = [
        *scan("cor1", (2, 3), p=3),
        *scan("cor1", (2,), p=5),
        *scan("cor1", (2,), p=7),
        *scan("cor2", (2, 3), p=3),
        *scan("cor2", (2,), p=5),
        *_splits((5, 7)),
        *scan("cor3", (4, 5), p=2, trials=25),
        *scan("cor4odd", (3,), p=3),
        *scan("cor4even", (2, 4), p=3),
        *scan("cor5", (4, 5, 6, 7)),
        *scan("thm3", (1, 3)),
        *scan("thm4", (5, 7, 9, 11, 13)),
        *scan("thm5", (4, 6, 8, 10, 12)),
    ]
    prop = theorems.verify("thm1prop", get_field(3, 2))

    width = max(len(str(r.params)) for r in reports)
    for r in reports:
        print(f"{r.claim:<9} {str(r.params):<{width}} {r.verdict}")
    print(
        f"thm1prop  p=3 m=2 trials={prop.trials} "
        f"{'match' if prop.all_matched else 'mismatch'}"
    )

    summary = theorems.scan_summary(reports)
    print(
        f"\n{summary['total'] + 1} instances in {time.perf_counter() - t0:.1f} s: "
        f"{summary['match'] + int(prop.all_matched)} match, "
        f"{summary['mismatch']} mismatch, "
        f"{summary['hypothesis-not-met']} hypothesis-not-met"
    )
    if summary["mismatch"] or not prop.all_matched:
        return 2
    if summary["hypothesis-not-met"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
