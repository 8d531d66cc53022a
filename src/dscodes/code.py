"""Trace codes cut out by a defining set.

A defining set D = (d_1, ..., d_n) over GF(q), q = p^m, defines the code
whose codeword for x in GF(q) is (Tr(x d_1), ..., Tr(x d_n)) with entries
in GF(p).  The weight of the codeword for x is n minus the number of
indices with Tr(x d_i) = 0, which is how the enumeration kernel counts.

Everything here is exact integer arithmetic.  One dual layer, a
Krawtchouk recurrence on Python big integers, yields the MacWilliams
transform that the full dual, the dual distance and the power-moment
checks all read; the enumeration kernel runs on int64 numpy gathers,
which cannot overflow at the supported field sizes.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .field import Field


@dataclass(frozen=True)
class DefiningSet:
    """Multiplicity-free tuple of field elements with a provenance label.

    Elements are stored in canonical order: 0 first when present, then
    ascending discrete log.  The code built from the set does not depend
    on the order; the canonical form makes serialisation deterministic.
    """

    field: Field
    elements: tuple[int, ...]
    label: str = dc_field(default="", compare=False)

    def __post_init__(self):
        q = self.field.q
        elems = tuple(int(e) for e in self.elements)
        if len(set(elems)) != len(elems):
            raise ValueError(f"defining set {self.label!r} has repeated elements")
        for e in elems:
            if not 0 <= e < q:
                raise ValueError(f"element {e} outside GF({q})")
        ordered = tuple(sorted(elems, key=lambda e: -1 if e == 0 else self.field.LOG[e]))
        object.__setattr__(self, "elements", ordered)

    @property
    def n(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"DefiningSet({self.label or 'unlabeled'}, n={self.n})"


@dataclass(frozen=True)
class WeightDistribution:
    """Weight -> multiplicity map of a p-ary [n, k] code, zero weight included."""

    p: int
    m: int
    n: int
    k: int
    counts: dict

    def __post_init__(self):
        if self.counts.get(0) != 1:
            raise ValueError("weight 0 must appear exactly once")
        total = 0
        for w, a in self.counts.items():
            if not 0 <= w <= self.n:
                raise ValueError(f"weight {w} outside [0, {self.n}]")
            if a <= 0:
                raise ValueError(f"multiplicity of weight {w} must be positive")
            total += a
        if total != self.p**self.k:
            raise ValueError(f"multiplicities sum to {total}, expected {self.p}^{self.k}")

    def __eq__(self, other):
        if not isinstance(other, WeightDistribution):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and self.k == other.k
            and self.counts == other.counts
        )

    def nonzero_items(self) -> list[tuple[int, int]]:
        return sorted((w, a) for w, a in self.counts.items() if w > 0)

    @property
    def d_min(self):
        nz = [w for w in self.counts if w > 0]
        return min(nz) if nz else None

    @property
    def w_max(self):
        nz = [w for w in self.counts if w > 0]
        return max(nz) if nz else None

    def enumerator(self) -> str:
        """Polynomial string like '1+10z^4+16z^6+5z^8'."""
        parts = ["1"]
        for w, a in self.nonzero_items():
            coeff = "" if a == 1 else str(a)
            expo = "z" if w == 1 else f"z^{w}"
            parts.append(coeff + expo)
        return "+".join(parts)

    def to_json_dict(self, dual: dict | None = None) -> dict:
        out = {
            "p": self.p,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "weights": [{"w": w, "count": a} for w, a in self.nonzero_items()],
            "d_min": self.d_min,
        }
        if dual is not None:
            out["dual"] = dual
        return out


# ----------------------------------------------------------------------
# enumeration


def codeword(ds: DefiningSet, x: int) -> list[int]:
    """The codeword for x as a list of base field digits."""
    f = ds.field
    return [f.trace(f.mul(x, d)) for d in ds.elements]


def weight_by_counting_oracle(ds: DefiningSet, x: int) -> int:
    """Weight as n minus the zero-trace count; no vector is materialised."""
    f = ds.field
    zeros = 0
    for d in ds.elements:
        if f.trace(f.mul(x, d)) == 0:
            zeros += 1
    return ds.n - zeros


def _nonzero_logs(f: Field, elements) -> np.ndarray:
    els = np.asarray([e for e in elements if e != 0], dtype=np.int64)
    return f.LOG[els].astype(np.int64)


def weights_by_zero_count(f: Field, elements, threads: int = 1) -> np.ndarray:
    """Weight of the codeword for every x, by counting zero traces of x*d."""
    q = f.q
    n = len(elements)
    logs = _nonzero_logs(f, elements)
    # t0[t] = 1 iff Tr(alpha^t) = 0, doubled so s + log d never needs a mod
    t0 = (f.TR[f.EXP] == 0).astype(np.int64)
    has_zero = n - len(logs)
    counts = np.empty(q - 1, dtype=np.int64)

    def run(lo, hi):
        if len(logs) == 0:
            counts[lo:hi] = 0
            return
        idx = np.arange(lo, hi, dtype=np.int64)[:, None] + logs[None, :]
        counts[lo:hi] = t0[idx].sum(axis=1)

    chunk = max(1, (1 << 22) // max(1, len(logs)))
    spans = [(lo, min(q - 1, lo + chunk)) for lo in range(0, q - 1, chunk)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda s: run(*s), spans))
    else:
        for lo, hi in spans:
            run(lo, hi)

    weights = np.zeros(q, dtype=np.int64)
    weights[f.EXP[: q - 1]] = n - (counts + has_zero)
    return weights


def weights_by_codeword_scan(f: Field, elements) -> np.ndarray:
    """Weight of every codeword by materialising its digits and counting
    the nonzero ones.  Independent route kept for cross-checks."""
    q = f.q
    n = len(elements)
    logs = _nonzero_logs(f, elements)
    tr_at = f.TR[f.EXP]
    weights = np.zeros(q, dtype=np.int64)
    if len(logs):
        chunk = max(1, (1 << 22) // len(logs))
        for lo in range(0, q - 1, chunk):
            hi = min(q - 1, lo + chunk)
            digits = tr_at[np.arange(lo, hi, dtype=np.int64)[:, None] + logs[None, :]]
            weights[f.EXP[lo:hi]] = np.count_nonzero(digits, axis=1)
    return weights


def build_code_weights(ds: DefiningSet, threads: int = 1) -> WeightDistribution:
    """Exact weight distribution of the code defined by ds.

    Enumerates all q codewords, then divides the raw histogram by the
    kernel size p^(m-k); the division must be exact or the run aborts.
    """
    if ds.n == 0:
        raise ValueError("defining set is empty")
    f = ds.field
    weights = weights_by_zero_count(f, ds.elements, threads=threads)
    hist = np.bincount(weights, minlength=ds.n + 1)
    return distribution_from_raw_histogram(f, ds.n, hist)


def distribution_from_raw_histogram(f: Field, n: int, hist) -> WeightDistribution:
    raw0 = int(hist[0])
    kernel = raw0
    t = 0
    while kernel % f.p == 0:
        kernel //= f.p
        t += 1
    if kernel != 1:
        raise ArithmeticError(f"zero-weight count {raw0} is not a power of p = {f.p}")
    k = f.m - t
    counts = {}
    for w in np.flatnonzero(hist):
        c = int(hist[w])
        if c % raw0:
            raise ArithmeticError(f"raw count {c} at weight {int(w)} not divisible by {raw0}")
        counts[int(w)] = c // raw0
    return WeightDistribution(p=f.p, m=f.m, n=n, k=k, counts=counts)


# ----------------------------------------------------------------------
# MacWilliams transform, dual distance, moments


DUAL_MAX_N = 1 << 15  # n + 1 entries of up to n*log2(p) bits: about 128 MB at p = 2


def _dual_counts(wd: WeightDistribution):
    """Yield (j, A'_j) for j = 0..n, the MacWilliams transform of wd.

    A'_j = sum_w A_w K_j(w) / |C|.  The Krawtchouk values K_j(w) are kept
    only at the weights that occur and advance by the three-term
    recurrence in j (MacWilliams & Sloane, Ch. 5):
    (j+1) K_{j+1}(w) = [(n-j)(p-1) + j - p w] K_j(w) - (p-1)(n-j+1) K_{j-1}(w).
    Every division must be exact or the run aborts.
    """
    p, n = wd.p, wd.n
    size = p**wd.k
    weights = list(wd.counts)
    mults = [wd.counts[w] for w in weights]
    prev = [0] * len(weights)
    cur = [1] * len(weights)
    for j in range(n + 1):
        val, rem = divmod(sum(a * kw for a, kw in zip(mults, cur)), size)
        if rem or val < 0:
            raise ArithmeticError(f"dual multiplicity at weight {j} is not a nonnegative integer")
        yield j, val
        if j == n:
            return
        step = (n - j) * (p - 1) + j
        back = (p - 1) * (n - j + 1)
        nxt = []
        for w, kw, kb in zip(weights, cur, prev):
            kn, rem = divmod((step - p * w) * kw - back * kb, j + 1)
            if rem:
                raise ArithmeticError(f"Krawtchouk value K_{j + 1}({w}) is not an integer")
            nxt.append(kn)
        prev, cur = cur, nxt


def macwilliams_dual(wd: WeightDistribution) -> WeightDistribution:
    """Exact dual weight distribution.

    Cost is O(n*s) big-integer recurrence steps, s the number of weights
    that occur.  The result holds n + 1 integers of up to n*log2(p) bits,
    so n above DUAL_MAX_N is refused with ValueError before any work.
    """
    if wd.n > DUAL_MAX_N:
        raise ValueError(f"full dual of length n = {wd.n} exceeds DUAL_MAX_N = {DUAL_MAX_N}")
    dual_counts = {j: a for j, a in _dual_counts(wd) if a}
    return WeightDistribution(p=wd.p, m=wd.m, n=wd.n, k=wd.n - wd.k, counts=dual_counts)


def dual_distance(wd: WeightDistribution):
    """Smallest j >= 1 with nonzero dual multiplicity; None for a zero dual."""
    return next((j for j, a in _dual_counts(wd) if j >= 1 and a), None)


@dataclass(frozen=True)
class MomentCheck:
    name: str
    applicable: bool
    ok: bool
    lhs: int
    rhs: Fraction


@dataclass(frozen=True)
class PlessReport:
    ok: bool
    checks: tuple[MomentCheck, ...]
    dual_a1: int
    dual_a2: int


def pless_moments_check(wd: WeightDistribution) -> PlessReport:
    """First three power moment identities.

    The count identity always applies.  The first moment needs dual
    distance >= 2 and the second needs >= 3; both preconditions are read
    off the transform itself (A'_1, A'_2), so a failing identity can
    never be blamed on an unchecked hypothesis.
    """
    p, n, k = wd.p, wd.n, wd.k
    low = dict(itertools.islice(_dual_counts(wd), 3))
    a1, a2 = low.get(1, 0), low.get(2, 0)
    s0 = sum(a for w, a in wd.counts.items() if w > 0)
    s1 = sum(w * a for w, a in wd.counts.items())
    s2 = sum(w * w * a for w, a in wd.counts.items())
    checks = []

    rhs0 = Fraction(p**k - 1)
    checks.append(MomentCheck("count", True, Fraction(s0) == rhs0, s0, rhs0))

    rhs1 = Fraction(n * (p - 1) * p**k, p)
    app1 = a1 == 0 and k >= 1
    checks.append(MomentCheck("first", app1, (not app1) or Fraction(s1) == rhs1, s1, rhs1))

    rhs2 = rhs1 + Fraction(n * (n - 1) * (p - 1) ** 2 * p**k, p**2)
    app2 = a1 == 0 and a2 == 0 and k >= 1
    checks.append(MomentCheck("second", app2, (not app2) or Fraction(s2) == rhs2, s2, rhs2))

    return PlessReport(
        ok=all(c.ok for c in checks),
        checks=tuple(checks),
        dual_a1=a1,
        dual_a2=a2,
    )


@dataclass(frozen=True)
class GriesmerResult:
    bound: int
    meets_bound: bool


def griesmer_check(n: int, k: int, d: int, p: int) -> GriesmerResult:
    """Sum of ceil(d / p^i) for i < k, compared against n."""
    if k < 1 or d < 1:
        raise ValueError("griesmer_check needs k >= 1 and d >= 1")
    bound = sum(-(-d // p**i) for i in range(k))
    return GriesmerResult(bound=bound, meets_bound=(n == bound))


@dataclass(frozen=True)
class Dual3Certificate:
    certified: bool
    has_zero: bool
    proportional_pair: tuple[int, int] | None


def dual_distance_at_least_3(ds: DefiningSet) -> Dual3Certificate:
    """Certify dual distance >= 3: no zero element, no GF(p)-proportional pair."""
    if ds.n < 3:
        raise ValueError("certificate needs |D| >= 3")
    f = ds.field
    has_zero = 0 in ds.elements
    seen = {}
    pair = None
    for d in ds.elements:
        if d == 0:
            continue
        rep = min(f.mul(lam, d) for lam in range(1, f.p))
        if rep in seen:
            pair = (seen[rep], d)
            break
        seen[rep] = d
    return Dual3Certificate(
        certified=(not has_zero) and pair is None,
        has_zero=has_zero,
        proportional_pair=pair,
    )


# ----------------------------------------------------------------------
# summary


@dataclass(frozen=True)
class CodeSummary:
    n: int
    k: int
    d_min: int | None
    enumerator: str
    dual_n_minus_k: int
    dual_d: int | None
    griesmer_bound: int | None
    griesmer_tight: bool | None
    notes: tuple[str, ...]


def summarize(ds: DefiningSet, wd: WeightDistribution | None = None) -> CodeSummary:
    if wd is None:
        wd = build_code_weights(ds)
    d = wd.d_min
    dd = dual_distance(wd)
    if d is not None and wd.k >= 1:
        g = griesmer_check(wd.n, wd.k, d, wd.p)
        gb, gt = g.bound, g.meets_bound
    else:
        gb, gt = None, None
    notes = ["optimality is reported against the Griesmer bound only"]
    if dd is not None and dd > 3:
        notes.append(f"dual distance {dd} exceeds 3")
    return CodeSummary(
        n=wd.n,
        k=wd.k,
        d_min=d,
        enumerator=wd.enumerator(),
        dual_n_minus_k=wd.n - wd.k,
        dual_d=dd,
        griesmer_bound=gb,
        griesmer_tight=gt,
        notes=tuple(notes),
    )
