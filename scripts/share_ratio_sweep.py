#!/usr/bin/env python3
"""Sweep the cubic-trace family and report share-distribution viability.

For each m the minimum-to-maximum weight ratio is printed as an exact
fraction next to its closed form, then minimal codewords are counted from
the same enumerated weight distribution.
"""

import sys

from dscodes import get_field, secretshare, sets


def main(m_lo: int = 4, m_hi: int = 12) -> int:
    print(f"{'m':>3} {'n':>5} {'k':>3} {'ratio':>12} {'passes':>6}  case")
    minimal = []
    for m in range(m_lo, m_hi + 1):
        report, ratio = secretshare.minimal_codewords(sets.tr_cubic_set(get_field(2, m)))
        ratio = secretshare.with_cubic_trace_case(ratio, m)
        frac = f"{ratio.w_min}/{ratio.w_max}"
        print(
            f"{m:>3} {report.n:>5} {report.k:>3} {frac:>12} "
            f"{str(ratio.passes):>6}  {ratio.m_congruence_case}"
        )
        minimal.append(
            f"  m={m}: {report.minimal_count}/{report.total_nonzero} minimal"
            f" (all: {report.all_minimal})"
        )

    print("\nminimal codewords:")
    for line in minimal:
        print(line)
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(*args))
