#!/usr/bin/env python3
"""Sweep the cubic-trace family and report share-distribution viability.

For each m the minimum-to-maximum weight ratio is printed as an exact
fraction next to its closed form, then minimal codewords are counted from
the weight array.
"""

import sys

from dscodes import get_field, secretshare, sets
from dscodes.code import build_code_weights


def main(m_lo: int = 4, m_hi: int = 12) -> int:
    print(f"{'m':>3} {'n':>5} {'k':>3} {'ratio':>12} {'passes':>6}  case")
    for m in range(m_lo, m_hi + 1):
        ds = sets.tr_cubic_set(get_field(2, m))
        wd = build_code_weights(ds)
        ratio = secretshare.with_cubic_trace_case(secretshare.ratio_check(wd), m)
        frac = f"{ratio.w_min}/{ratio.w_max}"
        print(
            f"{m:>3} {wd.n:>5} {wd.k:>3} {frac:>12} "
            f"{str(ratio.passes):>6}  {ratio.m_congruence_case}"
        )

    print("\nminimal codewords:")
    for m in range(m_lo, m_hi + 1):
        ds = sets.tr_cubic_set(get_field(2, m))
        report, _ = secretshare.minimal_codewords(ds)
        print(
            f"  m={m}: {report.minimal_count}/{report.total_nonzero} minimal"
            f" (all: {report.all_minimal})"
        )
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(*args))
