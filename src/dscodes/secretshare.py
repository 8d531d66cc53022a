"""Secret-sharing suitability of a code: weight ratio and minimal codewords.

A code works cleanly as a secret sharing scheme (first coordinate in
the dealer role) when every nonzero codeword is minimal, that is, no
other nonzero codeword's support sits strictly inside its support.
The standard sufficient condition is w_min / w_max > (p-1)/p, compared
here as exact rationals.

Minimal codewords are counted from the weight array W[x] = wt(c_x)
alone, with no codeword supports.  For codewords a and b,
sum_{c in GF(p)} wt(b + c*a) >= (p-1)*wt(a), with equality iff
supp(b) is inside supp(a) (Heng, Ding & Zhou, "Minimal linear codes
over finite fields", FFA 54, 2018, Lemma 2.1).  The y whose support sits
inside supp(c_x) form a subspace holding the kernel and GF(p)*x, so c_x
is minimal iff exactly p^(m-k+1) values y pass (Ashikhmin & Barg,
"Minimal vectors in linear codes", IEEE T-IT 44, 1998).  The test costs
q*(q-1)/(p-1) gathers, bounded by MINIMAL_GATHER_BOUND before any work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .code import (
    DefiningSet,
    WeightDistribution,
    distribution_from_weights,
    weights_by_zero_count,
)
from .field import Field

# bound on the gathers of the minimal-codeword test: 2^16, 3^10 and 83^3
# fit, 2^17, 3^11 and 89^3 do not
MINIMAL_GATHER_BOUND = 1 << 32
# gather cells per chunk of x rows; larger chunks raise the peak RSS, not the
# speed.  Under the bound q/p <= 2^16, so a chunk holds at least one row.
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class RatioReport:
    p: int
    w_min: int
    w_max: int
    ratio: Fraction
    threshold: Fraction
    passes: bool
    m_congruence_case: str = ""
    closed_form_ratio: Fraction | None = None

    def to_json_dict(self) -> dict:
        out = {
            "w_min": self.w_min,
            "w_max": self.w_max,
            "ratio": [self.ratio.numerator, self.ratio.denominator],
            "raw_ratio": [self.w_min, self.w_max],
            "threshold": [self.threshold.numerator, self.threshold.denominator],
            "passes": self.passes,
        }
        if self.m_congruence_case:
            out["m_congruence_case"] = self.m_congruence_case
            out["closed_form_ratio"] = [
                self.closed_form_ratio.numerator,
                self.closed_form_ratio.denominator,
            ]
        return out


def cubic_trace_ratio_case(m: int) -> tuple[str, Fraction]:
    """Closed-form w_min/w_max for the binary cubic-trace family, keyed
    by the residue of m (mod 8 in the odd cases, mod 4 in the even)."""
    if m < 4:
        raise ValueError("cases start at m = 4")
    u = 2 ** (m - 2)
    if m % 2 == 0:
        if m % 4 == 2:
            half = 2 ** ((m - 2) // 2)
            return "m = 2 mod 4", Fraction(u - half, u + half)
        if m % 8 == 4:
            return "m = 4 mod 8", Fraction(u, u + 2 ** (m // 2))
        return "m = 0 mod 8", Fraction(u - 2 ** (m // 2), u)
    half = 2 ** ((m - 1) // 2)
    if m % 8 in (1, 7):
        return "m = 1 or 7 mod 8", Fraction(u, u + half)
    return "m = 3 or 5 mod 8", Fraction(u - half, u)


def ratio_check(wd: WeightDistribution) -> RatioReport:
    """Exact w_min/w_max > (p-1)/p test on a weight distribution."""
    if wd.w_max is None:
        raise ValueError("distribution has no nonzero weight")
    ratio = Fraction(wd.d_min, wd.w_max)
    threshold = Fraction(wd.p - 1, wd.p)
    return RatioReport(
        p=wd.p, w_min=wd.d_min, w_max=wd.w_max, ratio=ratio,
        threshold=threshold, passes=ratio > threshold,
    )


def with_cubic_trace_case(report: RatioReport, m: int) -> RatioReport:
    """The report with the binary cubic-trace family's closed form for
    GF(2^m) attached; a closed form that disagrees aborts."""
    if report.p != 2:
        raise ValueError("the cubic-trace family is binary")
    case, closed = cubic_trace_ratio_case(m)
    if closed != report.ratio:
        raise AssertionError(
            f"closed-form ratio {closed} disagrees with computed {report.ratio}"
        )
    return replace(report, m_congruence_case=case, closed_form_ratio=closed)


@dataclass(frozen=True)
class MinimalReport:
    p: int
    n: int
    k: int
    total_nonzero: int
    minimal_count: int
    all_minimal: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "n": self.n, "k": self.k,
            "total_nonzero": self.total_nonzero,
            "minimal_count": self.minimal_count,
            "all_minimal": self.all_minimal,
        }


def minimal_scan_fits(p: int, m: int) -> bool:
    """Whether the minimal-codeword test over GF(p^m) fits
    MINIMAL_GATHER_BOUND: one gather per projective class of x, z-coset
    and c in GF(p), q*(q-1)/(p-1) in all."""
    q = p**m
    return q * (q - 1) // (p - 1) <= MINIMAL_GATHER_BOUND


def _minimal_classes(f: Field, weights: np.ndarray, kernel: int) -> int:
    """Number of x outside the kernel, one per projective class
    {c*x : c in GF(p)*}, whose codeword is minimal.

    y = x*z passes when sum_c W[x*(z + c)] = (p-1)*W[x].  Adding c in
    GF(p) changes only digit 0 of z, so one z per coset z + GF(p) is
    tested, all in log space: W[x*w] = wlog[log x + LOG[w]], and w = 0
    reads a padded zero slot.  c_x is minimal iff exactly `kernel`
    cosets pass, p^(m-k+1) values of y.
    """
    p, q = f.p, f.q
    classes = (q - 1) // (p - 1)
    span = classes + q - 2  # largest log x + LOG[w], plus one
    # int32: a sum of p weights is at most p*q, and p <= field.MAX_P = 251
    # with the bound keeps p*q below 2^26 (test_gather_bound_keeps_sums_in_int32)
    wlog = np.zeros(span + classes, dtype=np.int32)
    wlog[:span] = weights[f.EXP[:span]]
    logz = f.LOG.astype(np.int64)
    logz[0] = span
    cosets = np.arange(0, q, p)
    shifts = [logz[cosets + c] for c in range(p)]
    target = (p - 1) * wlog[:classes]
    passed = np.empty(classes, dtype=np.int64)
    rows = _CHUNK_CELLS // len(cosets)
    for lo in range(0, classes, rows):
        hi = min(lo + rows, classes)
        lx = np.arange(lo, hi)[:, None]
        sums = np.take(wlog, lx + shifts[0])
        for shift in shifts[1:]:
            sums += np.take(wlog, lx + shift)
        passed[lo:hi] = np.count_nonzero(sums == target[lo:hi, None], axis=1)
    passed = passed[target != 0]
    # the kernel plus GF(p)*x always passes
    if passed.min() < kernel:
        raise AssertionError("a codeword misses the kernel in its support test")
    minimal = int(np.count_nonzero(passed == kernel))
    if minimal % kernel:
        raise AssertionError("minimal class count not divisible by the kernel size")
    return minimal


def minimal_codewords(ds: DefiningSet) -> tuple[MinimalReport, RatioReport]:
    """Count the minimal codewords from the weight array alone.

    When the ratio criterion passes, every nonzero codeword must come
    out minimal; a counterexample would break the scheme built on the
    code, so it aborts with an error instead of a quiet report.  The
    weight array is computed once and the distribution is read off it.
    """
    f = ds.field
    if not minimal_scan_fits(f.p, f.m):
        raise ValueError(f"GF({f.p}^{f.m}) needs more gathers than MINIMAL_GATHER_BOUND")
    weights = weights_by_zero_count(f, ds.elements)
    wd = distribution_from_weights(ds, weights)
    ratio = ratio_check(wd)
    kernel = f.p ** (f.m - wd.k)
    classes = _minimal_classes(f, weights, kernel)
    # minimal x come in p - 1 scalings and p^(m-k) kernel translates
    minimal_count = classes // kernel * (f.p - 1)
    total = f.p**wd.k - 1
    all_minimal = minimal_count == total
    if ratio.passes and not all_minimal:
        raise RuntimeError(
            "ratio criterion passed but a non-minimal codeword exists; "
            f"{total - minimal_count} of {total} codewords are covered"
        )
    report = MinimalReport(
        p=f.p, n=ds.n, k=wd.k, total_nonzero=total,
        minimal_count=minimal_count, all_minimal=all_minimal,
    )
    return report, ratio
