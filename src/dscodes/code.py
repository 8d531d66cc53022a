"""Trace codes cut out by a defining set.

A defining set D = (d_1, ..., d_n) over GF(q), q = p^m, defines the code
whose codeword for x in GF(q) is (Tr(x d_1), ..., Tr(x d_n)) with entries
in GF(p).  The weight of the codeword for x is n minus the number of
indices with Tr(x d_i) = 0, that is n minus |D meet H_x| for the
hyperplane H_x = {d : Tr(x d) = 0}.

Everything here is exact integer arithmetic.  One weight kernel counts
each set of a batch over one field on every hyperplane, by one of two
routes that a size rule (`_route`) picks for the whole batch: an int32
transform or a gather that sums n rows of a uint8 window in blocks,
O(q*n) a set, which is also the oracle the tests check the transform
against.  The transform is an in-place Walsh-Hadamard butterfly at
p = 2, O(q*m) on q cells a set, and a (p, q) state at odd p,
O(q*m*p^2).  Both routes return int32 weights in their own order of x,
the transform by pi(x) and the gather by log x, and each reader takes
that order: `weight_distributions` histograms them with one bincount a
chunk (`build_code_weights` is its batch of one), and the minimal
codewords read a route's rows as they come.  A distribution holds
its nonzero (w, A_w) as one ascending tuple, from which `counts` is
derived.  One dual layer yields the MacWilliams transform that the
full dual, the dual distance and the power-moment checks all read: a
column A_w K_j(w) for each weight that occurs, stepped through blocks of
rows by the Krawtchouk recurrence on Python big integers, and at p = 2
only through the rows j <= n/2, which mirror the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .field import Field


@dataclass(frozen=True, eq=False, init=False)
class DefiningSet:
    """A multiplicity-free set of field elements with a provenance label.

    Held as `mask`, a read-only q-byte membership mask indexed by element
    code, with `n` its number of members.  `elements`, the members as a
    read-only ascending int64 array, is read off the mask on first use
    and kept.  The code built from the set does not depend on any order
    of its members.  Two sets are equal when they share the field and
    the mask; the label is provenance only.
    """

    field: Field
    mask: np.ndarray
    label: str
    n: int

    def __init__(self, field: Field, elements, label: str = ""):
        q = field.q
        elems = np.asarray(elements)
        if elems.dtype.kind not in "iu":  # a float or a string is refused, never truncated
            if elems.size:
                raise ValueError(f"defining set {label!r} needs integer codes in [0, {q}), got {elems.dtype}")
            elems = elems.astype(np.int64)
        if elems.ndim != 1:
            raise ValueError(f"defining set {label!r} must be a flat sequence of elements")
        # range first: a negative code would index the mask from the end
        bad = elems[(elems < 0) | (elems >= q)]
        if bad.size:
            raise ValueError(f"element {int(bad[0])} outside GF({q})")
        mask = np.zeros(q, dtype=bool)
        mask[elems] = True
        n = int(np.count_nonzero(mask))
        if n != elems.size:
            raise ValueError(f"defining set {label!r} has repeated elements")
        self._hold(field, mask, label, n)

    @classmethod
    def from_mask(cls, field: Field, mask, label: str = "") -> DefiningSet:
        """The set of the codes x with mask[x] true, held as a copy of mask."""
        return cls.__new__(cls)._hold(field, np.array(mask, dtype=bool), label)

    def _hold(self, field, mask, label, n=None) -> DefiningSet:
        """Hold mask, made read-only, as the set of n members (counted if None)."""
        if mask.shape != (field.q,):
            raise ValueError(f"set {label!r}: mask of shape {mask.shape}, not ({field.q},)")
        mask.setflags(write=False)
        if n is None:
            n = int(np.count_nonzero(mask))
        # past the frozen __setattr__, as cached_property writes `elements`
        vars(self).update(field=field, mask=mask, label=label, n=n)
        return self

    @cached_property
    def elements(self) -> np.ndarray:
        elements = np.flatnonzero(self.mask)
        elements.setflags(write=False)
        return elements

    def __eq__(self, other):
        if not isinstance(other, DefiningSet):
            return NotImplemented
        return self.field is other.field and np.array_equal(self.mask, other.mask)

    def __hash__(self):
        return hash((self.field, self.mask.tobytes()))

    def __repr__(self):
        return f"DefiningSet({self.label or 'unlabeled'}, n={self.n})"


@dataclass(frozen=True, eq=False)
class WeightDistribution:
    """Weights of a p-ary [n, k] code: `pairs`, its nonzero (w, A_w) in
    strictly ascending w, weight 0 (A_0 = 1) implied.  `counts`, the
    weight -> multiplicity map with 0 included, is derived from them."""

    p: int
    m: int
    n: int
    k: int
    pairs: tuple

    def __post_init__(self):
        prev, total, n = 0, 1, self.n
        for w, a in self.pairs:
            if not prev < w <= n:
                if not 0 <= w <= n:
                    raise ValueError(f"weight {w} outside [0, {n}]")
                if w == 0:
                    raise ValueError("weight 0 must appear exactly once")
                raise ValueError(f"weight {w} after weight {prev}: weights must strictly ascend")
            if a <= 0:
                raise ValueError(f"multiplicity of weight {w} must be positive")
            prev, total = w, total + a
        if total != self.p**self.k:
            raise ValueError(f"multiplicities sum to {total}, expected {self.p}^{self.k}")

    @classmethod
    def from_counts(cls, p: int, m: int, n: int, k: int, counts: dict) -> WeightDistribution:
        """The distribution of a weight -> multiplicity map, weight 0 included."""
        if counts.get(0) != 1:
            raise ValueError("weight 0 must appear exactly once")
        return cls(p, m, n, k, tuple(sorted((w, a) for w, a in counts.items() if w != 0)))

    @property
    def counts(self) -> dict:
        return {0: 1, **dict(self.pairs)}

    def __eq__(self, other):
        if not isinstance(other, WeightDistribution):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and self.k == other.k
            and self.pairs == other.pairs
        )

    @property
    def d_min(self):
        return self.pairs[0][0] if self.pairs else None

    @property
    def w_max(self):
        return self.pairs[-1][0] if self.pairs else None

    def enumerator(self) -> str:
        """Polynomial string like '1+10z^4+16z^6+5z^8'."""
        parts = ["1"]
        for w, a in self.pairs:
            coeff = "" if a == 1 else str(a)
            expo = "z" if w == 1 else f"z^{w}"
            parts.append(coeff + expo)
        return "+".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "weights": [{"w": w, "count": a} for w, a in self.pairs],
            "d_min": self.d_min,
        }


# ----------------------------------------------------------------------
# enumeration


# bound on q*p: the int32 cells of one (p, q) state at odd p, 256 MB, two of
# which a step holds; at p = 2 the butterfly holds q cells
TRANSFORM_MAX_CELLS = 1 << 26
# the time of one transform pass over q cells, counted per cell in gather
# cells: m passes at p = 2, one per butterfly step, and m*p^2 at odd p, one
# per slice pair.  Fitted on a (p, m, n) grid of both routes (CHANGES.md)
TRANSFORM_CELL_COST = 16
# fixed cost of one pass, counted in its cells
TRANSFORM_CALL_CELLS = 1 << 12
# the time a pass spends on a cell of each set past the first in a batch,
# in gather cells: those rows share the first set's numpy calls.  Fitted on
# a grid of batches of 1, 16 and 100 sets of both routes (BENCH_25.json)
TRANSFORM_BATCH_CELL_COST = 4
# cells the gather may touch, about 7 s at 1e10 cells/s (2-core x86 VM):
# simplex over GF(127^3), 3.3e10 cells, fits; its complement, 4.2e12, does not
GATHER_MAX_CELLS = 1 << 36
# uint8 cells the gather copies and sums in one numpy call, 512 KB: half
# that was up to 25 % slower at q = 2^12..2^14, twice that raised peak RSS
GATHER_BLOCK_CELLS = 1 << 19
# the row length from which the gather adds rows one numpy call each: a
# call costs about 1 us, the copy of 2^14 cells into a block about as much
GATHER_ROW_CELLS = 1 << 14
# cells of one chunk of a batch, p*q a set (one set a chunk past it), and
# the most cells the histogram counts by bincount, through an 8 MB intp copy
BATCH_CELLS = 1 << 20


def _masks(sets) -> np.ndarray:
    """The sets' masks as one (len(sets), q) bool array, a view for one set."""
    return sets[0].mask[None] if len(sets) == 1 else np.array([ds.mask for ds in sets])


def _weights_by_gather(sets) -> np.ndarray:
    """Weights of sets of one field by counting, for every x, the d with
    Tr(x d) = 0: q*n uint8 cells a set, summed in blocks of rows.  The
    route for small sets, and the oracle.  Row b of the (len(sets), q)
    int32 result holds set b's weight at x = 0 in column 0 and at
    x = alpha^s in column 1 + s.

    Row l < q - 1 of the window is the zero indicator of d = alpha^l
    over x = alpha^s, s < q - 1, and in a batch of more than one set row
    2(q - 1) is all ones, the indicator of d = 0.  Each set's logs are
    padded with that row to the longest in the batch, so every set counts
    `width` rows and its weight is width minus its count: d = 0 never
    adds weight.  A block of at
    most 255 rows a set is summed in uint8, which is exact because each
    cell of the sum counts at most 255 zeros, and then added into the
    int32 counts.  Below GATHER_ROW_CELLS a block is the rows of one
    fancy index over one or more sets, at most GATHER_BLOCK_CELLS cells,
    summed in one numpy call; from there on each row is added as a view,
    with no copy.
    """
    f, q = sets[0].field, sets[0].field.q
    # logs of the nonzero members: n reads of LOG, not q of a mask in exp order
    if len(sets) == 1:
        logs = f.LOG[np.flatnonzero(sets[0].mask[1:]) + 1][None]
    else:
        owner, members = np.nonzero(_masks(sets)[:, 1:])
        sizes = np.bincount(owner, minlength=len(sets))
        logs = np.full((len(sets), sizes.max()), 2 * (q - 1), dtype=np.int32)
        place = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        logs[owner, place] = f.LOG[members + 1]
    width = logs.shape[1]
    # t0[t] = 1 iff Tr(alpha^t) = 0, doubled so s + log d never needs a mod,
    # then for a batch q - 1 ones; row l of the window is t0[l : l + q - 1]
    t0 = f.TR[f.EXP] == 0
    if len(sets) > 1:
        t0 = np.concatenate((t0, np.ones(q - 1, dtype=bool)))
    win = np.ndarray((len(t0) - q + 2, q - 1), np.uint8, t0.view(np.uint8), 0, (1, 1))
    win.setflags(write=False)
    weights = np.zeros((len(sets), q), dtype=np.int32)
    counts = weights[:, 1:]  # the weight at x = 0 stays 0
    if q - 1 >= GATHER_ROW_CELLS:
        for row, set_logs in zip(counts, logs):
            for i in range(0, width, 255):
                block = np.zeros(q - 1, dtype=np.uint8)
                for lo in set_logs[i : i + 255].tolist():
                    block += win[lo]
                row += block
    else:
        rows = max(1, min(255, width, GATHER_BLOCK_CELLS // (q - 1)))
        step = max(1, GATHER_BLOCK_CELLS // (rows * (q - 1)))
        for b in range(0, len(sets), step):
            for i in range(0, width, rows):
                block = win[logs[b : b + step, i : i + rows]]
                counts[b : b + step] += block.sum(axis=1, dtype=np.uint8)
    np.subtract(width, counts, out=counts)
    return weights


def walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """The Walsh-Hadamard transform sum_d vec[d] (-1)^(d.u) for every u,
    in place on vec, a signed integer array of 2^m cells or a batch of
    such rows, which is returned.

    Step i combines each pair of cells that differ in bit i of the code
    into their sum and difference, the butterfly lo, hi <- lo + hi, lo - hi,
    done as lo += hi, hi *= -2, hi += lo with no scratch (MacWilliams &
    Sloane, Ch. 2; Fino & Algazi, IEEE T-C 25, 1976).  The arithmetic
    wraps modulo 2^bits, so every value is exact whenever the true values
    fit the dtype, that is while sum |vec[d]| does.  Cost O(q*m) a row.
    """
    step = 1
    while step < vec.shape[-1]:
        # code = sum_j d_j 2^j, so in C order bit i sits on axis 1, the rows
        # of a batch on axis 0 with the higher bits
        pairs = vec.reshape(-1, 2, step)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2
        hi += lo
        step *= 2
    return vec


def hyperplane_counts(f: Field, vec, dtype) -> np.ndarray:
    """N[u] = sum of vec[d] over the d with <d, u> = 0, for every
    coordinate vector u (indexed like an element code), on a state that
    keeps one count per value t of <d, u>: the body for odd p.  vec is
    one row of q cells or a batch of such rows.  At p = 2 the counts are
    (sum(vec) + W(u))/2 of `walsh_hadamard`, which is cheaper; at odd p
    the characters are not integers.

    Before step i, F[t, c] sums vec over the d that share the digits of
    c from i up and have sum_{j<i} d_j u_j = t, u's digits being those of
    c below i.  Step i replaces digit d_i by u_i through
    F[t, ..u_i..] = sum_{d_i} F[(t - d_i u_i) mod p, ..d_i..].  The state
    is laid out as (p, rows*q), so every slice add runs over p^i
    contiguous cells, and the rows of a batch act as digits above the
    top one.  The first step reads vec as the only nonzero row, t = 0,
    and the last keeps only row t = 0, so each of them adds about p*q
    cells, against p^2*q for a step in between.  Every cell is a sum of
    entries of vec, so it stays exact while the sum of their absolute
    values fits the dtype.  Cost O(q*m*p^2) a row; at most two states of
    p*q cells a row are held.
    """
    p, m = f.p, f.m
    vec = np.asarray(vec)
    state = vec.reshape(1, -1)
    for i in range(m):
        # code = sum_j d_j p^j, so in C order digit i sits on axis 2
        src = state.reshape(len(state), -1, p, p**i)
        rows_in, rows_out = len(src), 1 if i == m - 1 else p
        # from a full state, d = 0 (s = 0) writes every row of out first
        copied = rows_in == p
        out = (np.empty if copied else np.zeros)((rows_out, *src.shape[1:]), dtype=dtype)
        for u in range(p):
            for d in range(p):
                if copied and d == 0:
                    out[:, :, u] = src[:rows_out, :, 0]
                    continue
                s = d * u % p
                # out[t] += src[(t - s) mod p] for every row t kept and read:
                # t >= s reads row t - s, t < s reads row t - s + p
                top = min(rows_out, s + rows_in)
                if s < top:
                    out[s:top, :, u] += src[: top - s, :, d]
                top = min(s, rows_out, rows_in + s - p)
                if top > 0:
                    out[:top, :, u] += src[p - s : p - s + top, :, d]
        state = out
    return state.reshape(vec.shape)


def _weights_by_hyperplane_count(sets) -> np.ndarray:
    """Weights of sets of one field from N(u) = |D meet u-perp| for
    every coordinate vector u.  Row b of the (len(sets), q) int32 result
    holds set b's weight at x in column pi(x).

    Tr is GF(p)-linear, so Tr(x d) = sum_i d_i Tr(x b_i), b_i the element
    with code p^i, and the zero count of x is N(pi(x)) with
    pi(x)_i = Tr(x b_i), a GF(p)-linear bijection (`Field.PI`).  A
    histogram and the GF(2)-linear correlations read the columns as they
    come; only a gather by log x needs pi.  At p = 2 the weight is
    (n - W(u))/2 for the Walsh-Hadamard transform W of the mask of D, in
    place on one int32 row of q cells a set; at odd p, N is
    `hyperplane_counts` on the masks read as uint8, two int32 states of
    at most q*p cells a set.  Every value is at most n <= q <= 2^24 in
    absolute value, so int32 cannot overflow.
    """
    f = sets[0].field
    p, q = f.p, f.q
    if q * p > TRANSFORM_MAX_CELLS:
        raise ValueError(f"transform state of {q}*{p} cells exceeds TRANSFORM_MAX_CELLS")
    sizes = np.array([[ds.n] for ds in sets], dtype=np.int32)
    if p == 2:
        weights = walsh_hadamard(_masks(sets).astype(np.int32))
        np.subtract(sizes, weights, out=weights)
        weights >>= 1
    else:
        weights = hyperplane_counts(f, _masks(sets).view(np.uint8), np.int32)
        np.subtract(sizes, weights, out=weights)
    return weights


def _route(p: int, m: int, *ns: int):
    """The weight route for a batch of sets of GF(p^m), q = p^m, of ns
    elements each.

    The transform makes m passes over q cells a set at p = 2 and m*p^2
    at odd p, each pass also costing TRANSFORM_CALL_CELLS once for the
    batch, at TRANSFORM_CELL_COST gather cells a cell for the first set
    and TRANSFORM_BATCH_CELL_COST for each set after it; the gather
    touches q*n cells a set.  So a batch of one set costs what that set
    costs alone.  A size is refused with ValueError, before any
    allocation, only when some set fits neither the transform's q*p
    cells (TRANSFORM_MAX_CELLS) nor the gather's q*n cells
    (GATHER_MAX_CELLS).  When the batch fits one route, that route runs;
    when it fits both, the one that costs less.
    """
    q, n = p**m, max(ns)
    transform_fits = q * p <= TRANSFORM_MAX_CELLS
    gather_fits = q * n <= GATHER_MAX_CELLS
    passes = m if p == 2 else m * p * p
    cost = passes * (TRANSFORM_CELL_COST * (q + TRANSFORM_CALL_CELLS)
                     + TRANSFORM_BATCH_CELL_COST * (len(ns) - 1) * q)
    if transform_fits and (not gather_fits or cost < q * sum(ns)):
        return _weights_by_hyperplane_count
    if gather_fits:
        return _weights_by_gather
    raise ValueError(f"{n} elements of GF({p}^{m}) fit neither GATHER_MAX_CELLS"
                     " nor TRANSFORM_MAX_CELLS")


def weight_distributions(sets) -> list[WeightDistribution]:
    """Exact weight distributions of the codes defined by sets, all over
    one field, in their order.

    One route serves the whole batch (`_route`), run on chunks of sets of
    at most BATCH_CELLS cells.  Each chunk's weights, in the route's own
    order of x, feed one histogram; the raw histograms are divided by
    each kernel size p^(m-k), which must divide them exactly or the run
    aborts.
    """
    sets = list(sets)
    if not sets:
        return []
    f, ns = sets[0].field, [ds.n for ds in sets]
    if len(sets) > 1 and any(ds.field is not f for ds in sets):
        raise ValueError("the sets of one batch must share their field")
    if 0 in ns:
        raise ValueError("defining set is empty")
    route = _route(f.p, f.m, *ns)
    step = max(1, BATCH_CELLS // (f.q * f.p))
    out = []
    for lo in range(0, len(sets), step):
        chunk = ns[lo : lo + step]
        hist = _histogram(chunk, route(sets[lo : lo + step]))
        out += distributions_from_raw_histograms(f, chunk, hist)
    return out


def build_code_weights(ds: DefiningSet) -> WeightDistribution:
    """Exact weight distribution of the code defined by ds: the batch of one."""
    return weight_distributions([ds])[0]


def _starts(ns) -> list[int]:
    """Where the n + 1 counts of each n in ns start when laid one after
    another, and, last, their total."""
    starts = [0]
    for n in ns:
        starts.append(starts[-1] + n + 1)
    return starts


def _histogram(ns, weights: np.ndarray) -> np.ndarray:
    """The raw histograms of rows of weights, row b the weights of an
    n = ns[b] code over all q values of x in any order, laid out as
    `_starts` says: one bincount of the rows shifted to their own
    offsets.  Past BATCH_CELLS cells, which only one row of a large
    field reaches, np.add.at counts in place: bincount would copy the
    cells to intp, and in chunks it would add a second histogram of up
    to q cells a chunk."""
    starts = _starts(ns)
    if len(ns) > 1:
        weights = weights + np.array(starts[:-1], dtype=np.int32)[:, None]
    if weights.size <= BATCH_CELLS:
        return np.bincount(weights.ravel(), minlength=starts[-1])
    hist = np.zeros(starts[-1], dtype=np.int64)
    np.add.at(hist, weights, 1)
    return hist


def distributions_from_raw_histograms(f: Field, ns, hist) -> list[WeightDistribution]:
    """Distributions from raw weight counts over all q values of x, the
    n + 1 counts of each n in ns one after another in hist.  Each set's
    zero-weight count is its kernel size p^(m-k), and each count must be
    a multiple of it, or the run aborts."""
    p, m = f.p, f.m
    starts, hist = _starts(ns), np.asarray(hist)
    (at,) = hist.nonzero()
    # the nonzero counts of set b are at cuts[b]:cuts[b + 1], in ascending weight
    cuts = np.searchsorted(at, starts)
    weights = (at - np.repeat(starts[:-1], np.diff(cuts))).tolist()
    values = hist[at].tolist()
    out = []
    for n, a, z in zip(ns, cuts.tolist(), cuts[1:].tolist()):
        raw0 = values[a] if a < z and weights[a] == 0 else 0
        kernel, t = raw0, 0
        while kernel > 1 and kernel % p == 0:
            kernel //= p
            t += 1
        if kernel != 1 or t > m:
            raise ArithmeticError(f"zero-weight count {raw0} is not a power of p = {p}")
        counts = values[a + 1 : z]  # past the zero weight at a
        if raw0 > 1:
            for w, c in zip(weights[a + 1 : z], counts):
                if c % raw0:
                    raise ArithmeticError(f"raw count {c} at weight {w} not divisible by {raw0}")
            counts = [c // raw0 for c in counts]
        out.append(WeightDistribution(p, m, n, m - t, tuple(zip(weights[a + 1 : z], counts))))
    return out


# ----------------------------------------------------------------------
# MacWilliams transform, dual distance, moments


# n + 1 entries of up to n*log2(p) bits: the full dual of Tr(x^3 + x) = 0
# over GF(2^16), n = 32511, holds 100.7 MB and peaks at 100.8 MB (tracemalloc)
DUAL_MAX_N = 1 << 15
# most rows of the transform one block sums at once: blocks double from 8,
# and a block of more rows is no faster but holds more sums
DUAL_BLOCK = 128


def _dual_counts(wd: WeightDistribution):
    """Yield (j, A'_j) for j = 0..n, the MacWilliams transform of wd.

    A'_j = sum_w A_w K_j(w) / |C|.  Each weight w that occurs keeps one
    column A_w K_j(w), advanced by the three-term Krawtchouk recurrence
    in j (MacWilliams & Sloane, Ch. 5), which is linear, so the scaled
    column divides exactly:
    (j+1) K_{j+1}(w) = [(n-j)(p-1) + j - p w] K_j(w) - (p-1)(n-j+1) K_{j-1}(w).
    Weight 0 takes K_{j+1}(0) = K_j(0) (p-1)(n-j) / (j+1).  Rows come in
    blocks of 8 rows doubling to DUAL_BLOCK, whose coefficients are
    computed once, and each column steps through a whole block.  At
    p = 2, K_{n-j}(w) = (-1)^w K_j(w): only rows j <= n/2 are stepped,
    with even and odd w summed apart, and row n - j is their difference.
    Each row is divided by |C| and checked when it is yielded, so an
    early-stopping reader checks the rows it reads; every division must
    be exact or the run aborts.
    """
    p, n = wd.p, wd.n
    size = p**wd.k
    top = n // 2 if p == 2 else n  # the last row stepped
    cols = [(w, 0, a) for w, a in wd.pairs]  # (w, A_w K_{j-1}(w), A_w K_j(w)) at block start j
    k0, mirrors, j, rows = 1, [], 0, 8

    def row(i, total):
        val, rem = divmod(total, size)
        if rem or val < 0:
            raise ArithmeticError(f"dual multiplicity at weight {i} is not a nonnegative integer")
        return i, val

    while j <= top:
        block = [(i, (n - i) * (p - 1) + i, (p - 1) * (n - i + 1)) for i in range(j, min(j + rows, top + 1))]
        even, odd = [], [0] * len(block)
        for i, _, _ in block:
            even.append(k0)
            k0, rem = divmod(k0 * (p - 1) * (n - i), i + 1)
            if rem:
                raise ArithmeticError(f"Krawtchouk value K_{i + 1}(0) is not an integer")
        for c, (w, prev, cur) in enumerate(cols):
            sums, pw = odd if p == 2 and w & 1 else even, p * w
            for t, (i, step, back) in enumerate(block):
                nxt, rem = divmod((step - pw) * cur - back * prev, i + 1)
                if rem:
                    raise ArithmeticError(f"Krawtchouk value K_{i + 1}({w}) is not an integer")
                sums[t] += cur
                prev, cur = cur, nxt
            cols[c] = (w, prev, cur)
        for (i, _, _), e, o in zip(block, even, odd):
            if i < n - top:  # row n - i lies past top
                mirrors.append(e - o)
            yield row(i, e + o)
        j += len(block)
        rows = min(2 * rows, DUAL_BLOCK)
    for i in reversed(range(len(mirrors))):
        yield row(n - i, mirrors.pop())


def macwilliams_dual(wd: WeightDistribution) -> WeightDistribution:
    """Exact dual weight distribution.

    Cost is O(n*s) big-integer recurrence steps, s the number of weights
    that occur, and half that at p = 2.  The result holds n + 1 integers
    of up to n*log2(p) bits, so n above DUAL_MAX_N is refused with
    ValueError before any work.
    """
    if wd.n > DUAL_MAX_N:
        raise ValueError(f"full dual of length n = {wd.n} exceeds DUAL_MAX_N = {DUAL_MAX_N}")
    pairs = tuple((j, a) for j, a in _dual_counts(wd) if j and a)
    return WeightDistribution(wd.p, wd.m, wd.n, wd.n - wd.k, pairs)


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
    s0 = sum(a for _, a in wd.pairs)
    s1 = sum(w * a for w, a in wd.pairs)
    s2 = sum(w * w * a for w, a in wd.pairs)
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
