"""Secret-sharing suitability of a code: weight ratio and minimal codewords.

A code works cleanly as a secret sharing scheme (first coordinate in
the dealer role) when every nonzero codeword is minimal, that is, no
other nonzero codeword's support sits strictly inside its support.
The standard sufficient condition is w_min / w_max > (p-1)/p, compared
here as exact rationals.

Minimal codewords are counted from the weight array W[x] = wt(c_x)
alone, with no codeword supports.  Each projective class of x is
settled by the first of three exact steps that applies:

1. One weight threshold, O(q) at every p.  Were supp(c_y) inside
   supp(c_x) with c_y not a multiple of c_x, the p - 1 codewords
   c_x - c*c_y, c in GF(p)*, would be nonzero with weights summing to
   (p-1)*W[x] - wt(c_y) (Heng, Ding & Zhou, "Minimal linear codes over
   finite fields", FFA 54, 2018, Lemma 2.1); so c_x is minimal whenever
   (p-1)*W[x] < p*w_min, the per-class form of the Ashikhmin & Barg
   condition ("Minimal vectors in linear codes", IEEE T-IT 44, 1998).
   With k = dim<D> >= 2, c_x is also minimal iff D meet H_x spans the
   hyperplane H_x meet <D> of dimension k - 1 (Alfarano, Borello & Neri,
   AMC 2022).  D has (n - [0 in D]) - W[x] nonzero points on H_x, and
   p^(k-2) of them cannot fit in a (k-2)-space, so that many certify c_x.
   When the ratio criterion passes, every class is settled here.
2. At p = 2, weight-class correlations.  For codewords a and b,
   sum_{c in GF(p)} wt(b + c*a) >= (p-1)*wt(a), with equality iff
   supp(b) is inside supp(a) (the same lemma).  The y whose support
   sits inside supp(c_x) form a subspace holding the kernel and GF(p)*x,
   so c_x is minimal iff exactly p^(m-k+1) values y pass.  At
   p = 2, y passes iff W[y] + W[y + x] = W[x], and the number that pass
   is a sum of correlations of weight-class indicators, read off
   Walsh-Hadamard spectra; the transforms' cells are bounded by
   code.TRANSFORM_MAX_CELLS before any allocation.
3. The same test by gathers, |rows|*q cells for the rows left, when p is
   odd or the correlations exceed their cap, bounded by
   MINIMAL_GATHER_BOUND on those cells.

When classes are left that neither route fits, the count is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import code
from .code import (
    DefiningSet,
    WeightDistribution,
    distribution_from_weights,
    walsh_hadamard,
    weights_by_zero_count,
)
from .field import Field

# bound on the cells of the minimal-codeword gather, |rows|*q for the rows
# the threshold leaves: the 65,535 classes of a sparse set over GF(2^16)
# fit and take about 10 s.  Past it, the classes are skipped.
MINIMAL_GATHER_BOUND = 1 << 32
# gather cells per chunk of x rows; larger chunks raise the peak RSS, not the
# speed.  A chunk holds at least one row.
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
    """Minimal-codeword count of a code; minimal_count is None when the
    count was skipped, no route fitting its bound."""

    p: int
    n: int
    k: int
    total_nonzero: int
    minimal_count: int | None

    @property
    def all_minimal(self) -> bool | None:
        return None if self.minimal_count is None else self.minimal_count == self.total_nonzero

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "n": self.n, "k": self.k,
            "total_nonzero": self.total_nonzero,
            "minimal_count": self.minimal_count,
            "all_minimal": self.all_minimal,
        }


def _gather_passes(f: Field, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For x = alpha^s, s in rows, the number of y with supp(c_y) inside
    supp(c_x), by |rows|*q gathers.

    y = x*z passes when sum_c W[x*(z + c)] = (p-1)*W[x].  Adding c in
    GF(p) changes only digit 0 of z, so one z per coset z + GF(p) is
    tested, all in log space: W[x*w] = wlog[log x + LOG[w]], and w = 0
    reads a padded zero slot.  A passing coset holds p passing y.
    """
    p, q = f.p, f.q
    classes = (q - 1) // (p - 1)
    span = classes + q - 2  # largest log x + LOG[w], plus one
    # a sum of p weights is at most p*max(W)
    wide = p * int(weights.max()) >= 1 << 31
    wlog = np.zeros(span + classes, dtype=np.int64 if wide else np.int32)
    wlog[:span] = weights[f.EXP[:span]]
    logz = f.LOG.copy()  # int32, as span + classes < 2^26
    logz[0] = span
    cosets = np.arange(0, q, p)
    shifts = [logz[cosets + c] for c in range(p)]
    passed = np.empty(len(rows), dtype=np.int64)
    chunk = max(_CHUNK_CELLS // len(cosets), 1)
    for lo in range(0, len(rows), chunk):
        lx = rows[lo : lo + chunk, None]
        sums = np.take(wlog, lx + shifts[0])
        for shift in shifts[1:]:
            sums += np.take(wlog, lx + shift)
        passed[lo : lo + chunk] = np.count_nonzero(sums == (p - 1) * wlog[lx], axis=1)
    return p * passed


def _weight_pairs(levels: np.ndarray, targets) -> dict[int, list[tuple[int, int]]]:
    """For each target weight t, the pairs 0 < a <= b of weights that
    occur (levels) with a + b = t."""
    occurs = np.zeros(levels[-1] + 1, dtype=bool)
    occurs[levels] = True
    pairs = {}
    for t in targets:
        low = levels[(levels > 0) & (2 * levels <= t)]
        low = low[occurs[t - low]]
        pairs[t] = [(a, t - a) for a in low.tolist()]
    return pairs


def _weights_read(pairs) -> list[int]:
    """The weights whose spectra the correlations read."""
    return sorted({w for plan in pairs.values() for pair in plan for w in pair})


def _correlation_cells(q: int, rows: int, pairs) -> int:
    """int32 cells the correlation over `rows` classes holds at its peak:
    one int32 count per row, and when a spectrum is read, one int32
    spectrum of q cells per weight read, the rows' codes and mask, under
    2 per row, and the larger of two transients.  One is S_t in int64
    with one int64 product, 4*q, which the in-place transform adds
    nothing to.  The other is the readout of the target's rows, at most
    6 per row: their int64 values with the int64 quotient and remainder.
    numpy's strided ufunc buffers, at most 192 KB whatever q, are apart."""
    read = _weights_read(pairs)
    return rows + (q * len(read) + 2 * rows + max(4 * q, 6 * rows) if read else 0)


def _pair_sum(spectra: dict, plan, q: int) -> np.ndarray:
    """S_t = sum over the ordered pairs of the plan of H_a * H_b, int64."""
    s_t = np.zeros(q, dtype=np.int64)
    for a, b in plan:
        prod = np.multiply(spectra[a], spectra[b], dtype=np.int64)
        if a != b:
            prod *= 2
        s_t += prod
    return s_t


def _correlation_passes(f: Field, weights: np.ndarray, rows: np.ndarray, pairs) -> np.ndarray:
    """At p = 2: for x = alpha^s, s in rows, the number of y with
    W[y] + W[y + x] = W[x], from Walsh-Hadamard spectra of weight classes.

    With 1_a the indicator of {y : W[y] = a}, the number is the sum over
    a + b = W[x] of corr_ab(x) = sum_y 1_a(y) 1_b(y + x).  The pairs with
    a = 0 or b = 0 give 2*|kernel| for every x, as W[y + x] = W[x] for y
    in the kernel.  The rest is (1/q) sum_u S_t(u) (-1)^(u.x) for
    S_t = sum_{a+b=t} H_a H_b, H_a the Walsh-Hadamard transform of 1_a
    (MacWilliams & Sloane, Ch. 2), by `code.walsh_hadamard`: one inverse
    transform per target t with a pair, in place on S_t.
    Exact: |H_a| <= q, so the spectra are int32.  By Cauchy-Schwarz over
    (u, a) and Parseval, sum_u |S_t(u)| <= sum_{u,a} H_a(u)^2 = q*q, the
    classes partitioning GF(q); every cell of the inverse transform is a
    signed partial sum of S_t, so int64 holds every value for q <= 2^31
    without wraparound.  Refused with ValueError before any allocation
    when `_correlation_cells` exceeds TRANSFORM_MAX_CELLS.
    """
    q = f.q
    if _correlation_cells(q, len(rows), pairs) > code.TRANSFORM_MAX_CELLS:
        raise ValueError("weight-class correlation exceeds TRANSFORM_MAX_CELLS")
    # at most q values of y pass
    passed = np.full(len(rows), 2 * np.count_nonzero(weights == 0), dtype=np.int32)
    read = _weights_read(pairs)
    if not read:
        return passed
    spectra = {a: walsh_hadamard((weights == a).astype(np.int32)) for a in read}
    xs = f.EXP[rows]
    for t, plan in pairs.items():
        if plan:
            at = weights[xs] == t
            count, rem = np.divmod(walsh_hadamard(_pair_sum(spectra, plan, q))[xs[at]], q)
            if rem.any():
                raise ArithmeticError("a weight-class correlation is not divisible by q")
            passed[at] += count
    return passed


def _certified_weight(p: int, k: int, points: int, w_min: int) -> int:
    """The largest weight the threshold settles: x outside the kernel
    with W[x] up to it has a minimal codeword.  By weight, every x with
    (p-1)*W[x] < p*w_min; at k <= 1 that is every x outside the kernel.
    By spanning, at k >= 2: D has points - W[x] nonzero points on H_x,
    and p^(k-2) of them cannot fit in a (k-2)-space, so they span
    H_x meet <D>."""
    by_weight = (p * w_min - 1) // (p - 1)
    return max(by_weight, points - p ** (k - 2)) if k >= 2 else by_weight


def _minimal_classes(f: Field, weights: np.ndarray, k: int, points: int, levels) -> int | None:
    """Number of x outside the kernel, one per projective class
    {c*x : c in GF(p)*}, whose codeword is minimal; None when classes
    are left that no route fits.

    The threshold settles the classes up to `_certified_weight`.  The
    rest count the y with supp(c_y) inside supp(c_x), by the
    correlations at p = 2 when their cells fit TRANSFORM_MAX_CELLS, else
    by the gather when its |rows|*q cells fit MINIMAL_GATHER_BOUND; c_x
    is minimal iff exactly p^(m-k+1) values of y pass.
    """
    p, q = f.p, f.q
    # levels[0] is the kernel's weight 0
    bound = _certified_weight(p, k, points, int(levels[1]))
    # W[c*x] = W[x], so each class holds p - 1 values of x
    minimal = int(np.count_nonzero(weights <= bound) - np.count_nonzero(weights == 0)) // (p - 1)
    targets = levels[levels > bound]
    if targets.size:
        rest = np.flatnonzero(weights[f.EXP[: (q - 1) // (p - 1)]] > bound)
        pairs = _weight_pairs(levels, targets.tolist()) if p == 2 else None
        if p == 2 and _correlation_cells(q, rest.size, pairs) <= code.TRANSFORM_MAX_CELLS:
            passed = _correlation_passes(f, weights, rest, pairs)
        elif rest.size * q <= MINIMAL_GATHER_BOUND:
            passed = _gather_passes(f, weights, rest)
        else:
            return None
        kernel = p ** (f.m - k + 1)
        # the kernel plus GF(p)*x always passes
        if passed.min() < kernel:
            raise AssertionError("a codeword misses the kernel in its support test")
        minimal += int(np.count_nonzero(passed == kernel))
    if minimal % p ** (f.m - k):
        raise AssertionError("minimal class count not divisible by the kernel size")
    return minimal


def minimal_codewords(ds: DefiningSet) -> tuple[MinimalReport, RatioReport]:
    """Count the minimal codewords from the weight array alone.

    The weight array is computed once and the distribution and ratio are
    read off it; the count is skipped (minimal_count None) when classes
    are left that no route fits.  When the ratio criterion passes, the
    threshold settles every class, so every nonzero codeword is counted
    minimal.
    """
    f = ds.field
    weights = weights_by_zero_count(ds)
    wd = distribution_from_weights(ds, weights)
    ratio = ratio_check(wd)
    total = f.p**wd.k - 1
    points = ds.n - int(ds.mask[0])  # nonzero elements of D
    classes = _minimal_classes(f, weights, wd.k, points, np.array([0, *(w for w, _ in wd.pairs)]))
    minimal_count = None
    if classes is not None:
        # minimal x come in p - 1 scalings and p^(m-k) kernel translates
        minimal_count = classes // f.p ** (f.m - wd.k) * (f.p - 1)
    report = MinimalReport(p=f.p, n=ds.n, k=wd.k, total_nonzero=total, minimal_count=minimal_count)
    return report, ratio
