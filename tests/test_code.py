import collections
import math
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from dscodes import code, sets, spectra
from dscodes.code import (
    DUAL_MAX_N,
    GATHER_MAX_CELLS,
    TRANSFORM_CALL_CELLS,
    TRANSFORM_CELL_COST,
    TRANSFORM_MAX_CELLS,
    DefiningSet,
    WeightDistribution,
    _dual_counts,
    _route,
    _weights_by_gather,
    _weights_by_hyperplane_count,
    build_code_weights,
    distributions_from_raw_histograms,
    dual_distance,
    griesmer_check,
    hyperplane_counts,
    macwilliams_dual,
    pless_moments_check,
    summarize,
    walsh_hadamard,
    weight_distributions,
)
from dscodes.field import Field, get_field
from dscodes.secretshare import minimal_codewords
from moduli import alternate_field, transport
from test_field import _trace_by_definition

# enumerators frozen after computing them by both enumeration routes;
# every dual here has minimum distance exactly 3
CUBIC_TRACE_EXPECTED = {
    4: (11, 4, "1+2z^4+12z^6+z^8"),
    5: (11, 5, "1+10z^4+16z^6+5z^8"),
    6: (31, 6, "1+10z^12+47z^16+6z^20"),
    7: (71, 7, "1+35z^32+64z^36+28z^40"),
    8: (111, 8, "1+36z^48+192z^56+27z^64"),
    10: (511, 10, "1+136z^240+767z^256+120z^272"),
}


@pytest.mark.parametrize("m", sorted(CUBIC_TRACE_EXPECTED))
def test_cubic_trace_codes_frozen(m):
    n, k, enumerator = CUBIC_TRACE_EXPECTED[m]
    ds = sets.tr_cubic_set(get_field(2, m))
    wd = build_code_weights(ds)
    assert (wd.n, wd.k) == (n, k)
    assert wd.enumerator() == enumerator
    dual = macwilliams_dual(wd)
    assert (dual.n, dual.k) == (n, n - k)
    assert dual_distance(wd) == 3


def gf_rank(f, elements):
    """Dimension of the GF(p)-span of the elements, by row reduction on
    their coordinate digits.  Independent route to the code dimension."""
    rows = []
    for e in elements:
        digits = []
        x = e
        for _ in range(f.m):
            digits.append(x % f.p)
            x //= f.p
        rows.append(digits)
    mat = np.array(rows, dtype=np.int64) % f.p
    rank = 0
    for col in range(f.m):
        pivot = None
        for r in range(rank, len(rows)):
            if mat[r, col] % f.p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        inv = pow(int(mat[rank, col]), -1, f.p)
        mat[rank] = (mat[rank] * inv) % f.p
        for r in range(len(rows)):
            if r != rank and mat[r, col]:
                mat[r] = (mat[r] - mat[r, col] * mat[rank]) % f.p
        rank += 1
    return rank


def test_dimension_matches_span_rank(catalog_with_weights):
    for ds, wd in catalog_with_weights:
        assert wd.k == gf_rank(ds.field, ds.elements), ds


def test_two_enumeration_routes_agree(catalog_with_weights):
    # the size rule sends most of these small sets to the gather, so
    # both routes are called directly
    for ds, wd in catalog_with_weights:
        check_route_orders(ds, _weights_by_definition(ds.field, ds.elements))


# every small field, m = 1 included, where the odd-p transform runs only
# its last step; then fields where the route picks the transform
TRANSFORM_FIELDS = [(2, 14), (3, 9), (5, 6), (7, 5)]
ORACLE_FIELDS = [
    (p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 12) if p**m <= 1 << 11
] + TRANSFORM_FIELDS


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_transform_matches_gather_on_random_sets(p, m):
    f = get_field(p, m)
    rng = random.Random(1000 * p + m)
    if (p, m) in TRANSFORM_FIELDS:
        assert _route(p, m, f.q) is _weights_by_hyperplane_count
    for n in sorted({1, f.q, rng.randint(1, f.q), rng.randint(1, f.q)}):
        ds = DefiningSet(f, rng.sample(range(f.q), n))
        (a,) = _weights_by_hyperplane_count([ds])
        (b,) = _weights_by_gather([ds])
        assert a.dtype == np.int32
        # both at x = alpha^s: the transform's column pi(x), the gather's 1 + s
        assert a[0] == b[0] == 0
        assert np.array_equal(a[f.PI[f.EXP[: f.q - 1]]], b[1:]), (p, m, n)


def _weights_by_definition(f, elements):
    """wt(c_x) = #{d : Tr(x d) != 0}, each trace the sum of the Frobenius
    conjugates, on the products x d of every unit x and d != 0."""
    tr = np.array([_trace_by_definition(f, y) for y in range(f.q)])
    logs = f.LOG[np.array([d for d in elements if d], dtype=np.int64)]
    prods = f.EXP[(np.arange(f.q - 1)[:, None] + logs[None, :]) % (f.q - 1)]
    weights = np.zeros(f.q, dtype=np.int64)
    weights[f.EXP[: f.q - 1]] = np.count_nonzero(tr[prods], axis=1)
    return weights


def check_route_orders(ds, expected, routes=(_weights_by_hyperplane_count, _weights_by_gather)):
    """Each route's weights of ds in its own order against `expected`,
    the weights indexed by x: the transform's column pi(x), the gather's
    column 1 + log x, both holding x = 0 in column 0."""
    f = ds.field
    for route in routes:
        (weights,) = route([ds])
        assert weights.dtype == np.int32, (route, ds)
        if route is _weights_by_hyperplane_count:
            assert np.array_equal(weights[f.PI], expected), ds
        else:
            assert weights[0] == expected[0], ds
            assert np.array_equal(weights[1:], expected[f.EXP[: f.q - 1]]), ds


# every supported p; the units of GF(2^10) put 511 zeros on each hyperplane,
# past the 255 that one uint8 block may sum
GATHER_FIELDS = [(2, 5), (2, 10), (3, 4), (5, 3), (7, 2), (11, 2)]


@pytest.mark.parametrize("p,m", GATHER_FIELDS)
def test_gather_blocks_match_both_oracles(monkeypatch, p, m):
    f = get_field(p, m)
    rng = random.Random(100 * p + m)
    units = list(range(1, f.q))
    cases = [
        [0],  # no log left, so no block at all
        rng.sample(range(f.q), rng.randint(2, f.q - 2)),
        rng.sample(units, f.q - 2),
        units,
        [0] + units,
    ]
    for elements in cases:
        expected = _weights_by_definition(f, elements)
        ds = DefiningSet(f, elements)
        check_route_orders(ds, expected, (_weights_by_hyperplane_count,))
        # blocks of 255 rows, of 7 rows, and one row at a time by views
        for block_cells, row_cells in ((1 << 19, 1 << 14), (7 * (f.q - 1), 1 << 14), (1 << 19, 1)):
            with monkeypatch.context() as patch:
                patch.setattr(code, "GATHER_BLOCK_CELLS", block_cells)
                patch.setattr(code, "GATHER_ROW_CELLS", row_cells)
                check_route_orders(ds, expected, (_weights_by_gather,))


def _distribution_by_definition(f, elements):
    """(counts, kernel size) of the code, off the weights by definition."""
    raw = collections.Counter(_weights_by_definition(f, elements).tolist())
    return {w: c // raw[0] for w, c in raw.items()}, raw[0]


def _random_batch(f, rng):
    """Sets of mixed n over f: {0}, a set holding 0, GF(q)*, one element
    and random sizes."""
    units = list(range(1, f.q))
    return [
        [0],
        [0] + rng.sample(units, rng.randint(1, f.q - 2)),
        units,
        [rng.randrange(1, f.q)],
    ] + [rng.sample(range(f.q), rng.randint(1, f.q)) for _ in range(4)]


@pytest.mark.parametrize("p,m", [(2, 7), (3, 5), (5, 3), (7, 3)])
def test_batched_routes_match_the_definition(monkeypatch, p, m):
    f = get_field(p, m)
    rng = random.Random(31 * p + m)
    batch = _random_batch(f, rng)
    expected = [_distribution_by_definition(f, elements) for elements in batch]
    sets_ = [DefiningSet(f, elements) for elements in batch]
    for route in (None, _weights_by_gather, _weights_by_hyperplane_count):
        with monkeypatch.context() as patch:
            if route is not None:
                patch.setattr(code, "_route", lambda p, m, *ns, _route=route: _route)
            wds = weight_distributions(sets_)
        for wd, (counts, kernel), ds in zip(wds, expected, sets_):
            assert (wd.n, wd.counts, p ** (m - wd.k)) == (ds.n, counts, kernel), (route, ds)


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4)])
def test_batches_over_several_chunks_match_the_batch_of_one(monkeypatch, p, m):
    f = get_field(p, m)
    sets_ = [DefiningSet(f, elements) for elements in _random_batch(f, random.Random(p + m))]
    alone = [build_code_weights(ds) for ds in sets_]
    assert weight_distributions(sets_) == alone
    # two sets a chunk; one set a chunk and its histogram in column chunks;
    # gather blocks of two sets and three rows, and rows added as views
    for cells, block, row in ((2 * f.q * p, 1 << 19, 1 << 14), (f.q // 3, 1 << 19, 1 << 14),
                              (1 << 20, 6 * (f.q - 1), 1 << 14), (1 << 20, 1 << 19, 1)):
        with monkeypatch.context() as patch:
            patch.setattr(code, "BATCH_CELLS", cells)
            patch.setattr(code, "GATHER_BLOCK_CELLS", block)
            patch.setattr(code, "GATHER_ROW_CELLS", row)
            for route in (_weights_by_gather, _weights_by_hyperplane_count):
                patch.setattr(code, "_route", lambda p, m, *ns, _route=route: _route)
                assert weight_distributions(sets_) == alone, (cells, block, row, route)
                assert [weight_distributions([ds])[0] for ds in sets_] == alone


def test_batch_refusals():
    f, g = get_field(2, 4), get_field(3, 2)
    assert weight_distributions([]) == []
    with pytest.raises(ValueError, match="share their field"):
        weight_distributions([DefiningSet(f, [1]), DefiningSet(g, [1])])
    with pytest.raises(ValueError, match="empty"):
        weight_distributions([DefiningSet(f, [1]), DefiningSet(f, [])])


def test_batch_route_counts_the_fixed_cost_once():
    # one set of 200 elements of GF(2^11) goes to the gather; 40 of them
    # share one transform call, which then costs less than 40 gathers
    q = 1 << 11
    assert TRANSFORM_CELL_COST * 11 * (q + TRANSFORM_CALL_CELLS) > q * 200
    assert _route(2, 11, 200) is _weights_by_gather
    assert TRANSFORM_CELL_COST * 11 * (40 * q + TRANSFORM_CALL_CELLS) < q * 200 * 40
    assert _route(2, 11, *[200] * 40) is _weights_by_hyperplane_count
    # a set no route fits refuses the whole batch, with that set's size
    with pytest.raises(ValueError, match="200000 elements of GF"):
        _route(251, 3, 5, 200000)


def test_batch_route_rule():
    # points of the batch grid in BENCH_25.json: batches of complements of
    # random sets of m to m + 6 elements, and of such sets; a lone
    # complement keeps the gather that the rule for one set picks
    assert _route(2, 7, 120) is _weights_by_gather
    assert _route(2, 7, *[120] * 100) is _weights_by_hyperplane_count
    assert _route(2, 7, *[10] * 100) is _weights_by_gather
    assert _route(2, 8, 248) is _weights_by_gather
    assert _route(2, 8, *[248] * 16) is _weights_by_hyperplane_count
    assert _route(3, 6, *[720] * 16) is _weights_by_hyperplane_count
    assert _route(3, 6, *[10] * 100) is _weights_by_gather
    assert _route(7, 3, *[335] * 100) is _weights_by_gather


# the gather below its row bound, and the transform, at p = 2 and 3
@pytest.mark.parametrize("p,m,n", [(2, 6, 5), (2, 12, 4000), (3, 4, 5), (3, 8, 6000)])
def test_weight_distributions_never_build_pi(p, m, n):
    f = Field(p, m)  # uncached, so PI is not built yet
    ds = DefiningSet(f, random.Random(n).sample(range(f.q), n))
    route = _route(p, m, n)
    assert route is (_weights_by_gather if n < 10 else _weights_by_hyperplane_count)
    wd = build_code_weights(ds)
    assert weight_distributions([ds, sets.complement(ds)])[0] == wd
    assert "PI" not in vars(f)


@pytest.mark.parametrize("m", [1, 3, 6])
def test_hyperplane_counts_at_p2_give_the_walsh_hadamard_transform(m):
    # at p = 2 the hyperplane counts are (sum + W(u))/2 of the butterfly's W
    vec = np.random.default_rng(m).integers(-(1 << 40), 1 << 40, 1 << m)
    expected = [sum(int(vec[d]) * (-1) ** (u & d).bit_count() for d in range(1 << m))
                for u in range(1 << m)]
    spectrum = walsh_hadamard(vec.copy())
    assert spectrum.dtype == np.int64
    assert spectrum.tolist() == expected


@pytest.mark.parametrize("p,m", [(3, 1), (3, 4), (5, 1), (5, 3), (7, 1), (7, 2)])
def test_hyperplane_counts_at_odd_p_match_the_brute_force_sum(p, m):
    # at m = 1 the one step both reads a single row and keeps a single row
    f = get_field(p, m)
    vec = np.random.default_rng(p * 10 + m).integers(-(1 << 40), 1 << 40, f.q)
    digits = np.arange(f.q)[:, None] // p ** np.arange(m) % p
    on_plane = digits @ digits.T % p == 0  # <u, d> = 0
    expected = [sum(int(vec[d]) for d in np.flatnonzero(row)) for row in on_plane]
    counts = hyperplane_counts(f, vec, np.int64)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected


def test_route_rule():
    # calibration points read off the (p, m, n) grid in CHANGES.md: the
    # gather wins on every set of a small field, the transform from about
    # TRANSFORM_CELL_COST * m elements on at p = 2 and
    # TRANSFORM_CELL_COST * m * p^2 at odd p, more where q is not far above
    # TRANSFORM_CALL_CELLS
    assert _route(2, 4, 11) is _weights_by_gather
    assert _route(2, 11, 256) is _weights_by_gather
    assert _route(2, 11, 2048) is _weights_by_hyperplane_count
    assert _route(2, 16, 256) is _weights_by_gather
    assert _route(2, 16, 1024) is _weights_by_hyperplane_count
    assert _route(2, 16, 4096) is _weights_by_hyperplane_count
    assert _route(2, 16, 32511) is _weights_by_hyperplane_count
    assert _route(3, 12, 1024) is _weights_by_gather
    assert _route(3, 12, 4096) is _weights_by_hyperplane_count
    assert _route(5, 7, 2048) is _weights_by_gather
    assert _route(5, 7, 12000) is _weights_by_hyperplane_count
    # a state of 23^6 cells does not fit, the gather's 23^5 * 5000 cells do
    assert 23**6 > TRANSFORM_MAX_CELLS and 23**5 * 5000 <= GATHER_MAX_CELLS
    assert _route(23, 5, 5000) is _weights_by_gather
    # neither the gather's 251^3 * 200000 cells nor a state of 251^4 cells fits
    assert 251**3 * 200000 > GATHER_MAX_CELLS and 251**4 > TRANSFORM_MAX_CELLS
    with pytest.raises(ValueError, match="GATHER_MAX_CELLS"):
        _route(251, 3, 200000)
    # 147 passes, each with its fixed cost, on a field of 343 elements;
    # simplex over GF(7^5), 2801 of 16807 elements; and 8192 of them
    assert _route(7, 3, 300) is _weights_by_gather
    assert _route(7, 5, 2801) is _weights_by_gather
    assert _route(7, 5, 8192) is _weights_by_hyperplane_count


def test_route_takes_a_transform_that_fits_past_the_gathers_bound():
    # 15000 elements of GF(13^6): the transform costs more than the gather
    # would, but only its state fits
    q = 13**6
    assert TRANSFORM_CELL_COST * 6 * 13**2 * (q + TRANSFORM_CALL_CELLS) > q * 15000
    assert q * 15000 > GATHER_MAX_CELLS and q * 13 <= TRANSFORM_MAX_CELLS
    assert _route(13, 6, 15000) is _weights_by_hyperplane_count


def test_distribution_is_order_invariant():
    f = get_field(3, 3)
    rng = random.Random(3)
    els = tuple(rng.sample(range(1, f.q), 9))
    shuffled = list(els)
    rng.shuffle(shuffled)
    wd1 = build_code_weights(DefiningSet(f, els))
    wd2 = build_code_weights(DefiningSet(f, tuple(shuffled)))
    assert wd1 == wd2


def test_distribution_is_modulus_invariant(code_catalog):
    for ds in code_catalog[:10]:
        f = ds.field
        if f.q > 1 << 8:
            continue
        g = alternate_field(f)
        moved = transport(ds, g)
        assert build_code_weights(ds) == build_code_weights(moved), ds


def test_subfield_set_drops_dimension():
    # the sub-GF(4) units inside GF(16) span only 2 dimensions
    f = get_field(2, 4)
    step = (f.q - 1) // 3
    subfield_units = tuple(f.antilog(t) for t in range(0, f.q - 1, step))
    wd = build_code_weights(DefiningSet(f, subfield_units))
    assert wd.k == 2
    assert wd.n == 3
    assert sum(wd.counts.values()) == 4


def test_zero_only_set():
    f = get_field(2, 3)
    wd = build_code_weights(DefiningSet(f, (0,)))
    assert (wd.n, wd.k) == (1, 0)
    assert wd.counts == {0: 1}
    assert wd.d_min is None


def test_histogram_division_rejects_inexact():
    # raw zero counts over GF(4), n = 3: raw0 = 2 does not divide the count 3
    f = get_field(2, 2)
    with pytest.raises(ArithmeticError, match="not divisible"):
        distributions_from_raw_histograms(f, [3], np.array([2, 0, 3, 0]))


@pytest.mark.parametrize("hist", [[6, 0, 2], [0, 8, 0], [16, 0, 0]], ids=["6", "0", "p^4"])
def test_histogram_refuses_a_zero_weight_count_that_is_no_kernel_size(hist):
    # over GF(8), n = 2: the count at weight 0 must be p^t for some t <= m = 3
    f = get_field(2, 3)
    with pytest.raises(ArithmeticError, match=rf"zero-weight count {hist[0]} is not a power of p = 2"):
        distributions_from_raw_histograms(f, [2], np.array(hist))


def test_dual_refuses_a_krawtchouk_step_that_is_not_integral():
    # K_(j+1)(0) = K_j(0) (p-1)(n-j)/(j+1) is an integer for an integer n:
    # a half-integer length makes the first step fractional
    half = types.SimpleNamespace(p=2, n=Fraction(7, 2), k=0, pairs=())
    with pytest.raises(ArithmeticError, match=r"^Krawtchouk value K_1\(0\) is not an integer"):
        list(_dual_counts(half))
    # the step of the column of w reads the coefficient (n-j)(p-1) + j - p w:
    # w = 1/2 at p = 3 leaves the column integral at j = 1, not at j = 2
    half_weight = types.SimpleNamespace(p=3, n=2, k=1, pairs=((Fraction(1, 2), 2),))
    with pytest.raises(ArithmeticError, match=r"^Krawtchouk value K_2\(1/2\) is not an integer"):
        list(_dual_counts(half_weight))


def test_macwilliams_involution(catalog_with_weights):
    for _, wd in catalog_with_weights:
        dual = macwilliams_dual(wd)
        assert sum(dual.counts.values()) == wd.p ** dual.k
        assert macwilliams_dual(dual) == wd


def krawtchouk(n, p, j, w):
    """K_j(w) = sum_s (-1)^s (p-1)^(j-s) C(w, s) C(n-w, j-s), the direct sum."""
    return sum(
        (-1) ** s * (p - 1) ** (j - s) * math.comb(w, s) * math.comb(n - w, j - s)
        for s in range(min(j, w) + 1)
    )


def _dual_edge_cases():
    """Codes for the dual oracle: binary ones of n = 1, n = 2 and k = n = 3,
    then random binary and ternary sets of odd and even n whose stepped
    rows (n // 2 + 1 at p = 2, n + 1 at odd p) fall one below, on and one
    above the row counts 8, 16, 24, 32, 56, 64 and 120."""
    f2, f8 = get_field(2, 3), get_field(2, 8)
    odd_fields = [get_field(3, m) for m in (3, 4, 5)]
    rng = random.Random(29)
    chosen = [DefiningSet(f2, (1,)), DefiningSet(f2, (1, 6)), DefiningSet(f2, (1, 2, 4))]
    for rows in (8, 16, 24, 32, 56, 64, 120):
        for r in (rows - 1, rows, rows + 1):
            chosen += [DefiningSet(f8, rng.sample(range(f8.q), n)) for n in (2 * r - 2, 2 * r - 1)]
            odd_f = next(f for f in odd_fields if r <= f.q)
            chosen.append(DefiningSet(odd_f, rng.sample(range(odd_f.q), r - 1)))
    return [build_code_weights(ds) for ds in chosen]


def test_dual_recurrence_matches_direct_krawtchouk_sum(catalog_with_weights):
    f7 = get_field(7, 2)
    rng = random.Random(17)
    sevens = [DefiningSet(f7, tuple(rng.sample(range(f7.q), rng.randint(1, 20)))) for _ in range(4)]
    edges = _dual_edge_cases()
    assert {(wd.n % 2, w % 2) for wd in edges if wd.p == 2 for w in wd.counts} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    full = edges[2]
    assert (full.n, full.k) == (3, 3) and dual_distance(full) is None
    assert macwilliams_dual(full).pairs == ()
    cases = [wd for _, wd in catalog_with_weights] + [build_code_weights(ds) for ds in sevens] + edges
    for wd in cases:
        size = wd.p**wd.k
        expected = []
        for j in range(wd.n + 1):
            total = sum(a * krawtchouk(wd.n, wd.p, j, w) for w, a in wd.counts.items())
            assert total % size == 0, (wd, j)
            expected.append((j, total // size))
        assert list(_dual_counts(wd)) == expected, wd


def test_dual_rows_are_checked_when_read():
    # not a code: its transform rows are 1, 1, 3, -1, 0, so the readers
    # that stop by row 2 see no fault and the full dual fails at row 3
    wd = WeightDistribution.from_counts(2, 2, 4, 2, {0: 1, 1: 2, 4: 1})
    assert dual_distance(wd) == 1
    report = pless_moments_check(wd)
    assert (report.dual_a1, report.dual_a2) == (1, 3)
    with pytest.raises(ArithmeticError, match="at weight 3 "):
        macwilliams_dual(wd)


def test_full_dual_peak_memory_is_near_its_result():
    wd = build_code_weights(sets.tr_cubic_set(get_field(2, 14)))
    assert wd.n == 8191
    tracemalloc.start()
    try:
        dual = macwilliams_dual(wd)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dual.n == wd.n
    assert peak <= 1.15 * held, peak / held


def test_full_dual_refuses_oversized_length(monkeypatch):
    n = DUAL_MAX_N + 1
    wd = WeightDistribution.from_counts(p=2, m=16, n=n, k=1, counts={0: 1, n: 1})

    def no_work(_):
        raise AssertionError("the transform ran before the size check")

    with monkeypatch.context() as mp:
        mp.setattr(code, "_dual_counts", no_work)
        with pytest.raises(ValueError, match="DUAL_MAX_N"):
            macwilliams_dual(wd)
    # the early-stopping views are not capped
    assert dual_distance(wd) == 2
    assert pless_moments_check(wd).dual_a2 == n * (n - 1) // 2


def test_macwilliams_on_simplex():
    # [(q-1)/(p-1), m] one-weight code; its dual is the Hamming-parameter
    # code with 3 as minimum distance whenever m >= 2
    f = get_field(3, 3)
    wd = build_code_weights(sets.simplex_coset_reps(f))
    assert wd.pairs == ((9, 26),)
    assert dual_distance(wd) == 3


def test_pless_moments_hold(catalog_with_weights):
    for _, wd in catalog_with_weights:
        report = pless_moments_check(wd)
        assert report.ok, wd


def test_pless_reports_applicability():
    f = get_field(3, 2)
    # 2 = -1 in GF(9), so 1 and 2 are one projective point: dual distance
    # 2 with A'_2 = 2, and the second-moment identity (lhs 46, rhs 42)
    # must be reported inapplicable, not failed
    ds = DefiningSet(f, (1, 2, 3))
    wd = build_code_weights(ds)
    report = pless_moments_check(wd)
    assert dual_distance(wd) == 2
    assert (report.dual_a1, report.dual_a2) == (0, 2)
    assert [c.applicable for c in report.checks] == [True, True, False]
    assert (report.checks[2].lhs, report.checks[2].rhs) == (46, 42)
    assert report.ok


def test_griesmer_simplex_meets_bound():
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        f = get_field(p, m)
        wd = build_code_weights(sets.simplex_coset_reps(f))
        g = griesmer_check(wd.n, wd.k, wd.d_min, p)
        assert g.meets_bound


def test_griesmer_bound_values():
    # by hand: ceil(4/2^i) over i < k
    assert griesmer_check(11, 5, 4, 2).bound == 9
    assert griesmer_check(7, 3, 4, 2).bound == 7


def test_summary_fields():
    ds = sets.tr_cubic_set(get_field(2, 5))
    s = summarize(ds)
    assert (s.n, s.k, s.d_min) == (11, 5, 4)
    assert s.dual_d == 3
    assert s.griesmer_bound == 9 and s.griesmer_tight is False
    assert any("Griesmer" in note for note in s.notes)


def test_defining_set_validation():
    f = get_field(2, 3)
    with pytest.raises(ValueError):
        DefiningSet(f, (1, 1))
    with pytest.raises(ValueError):
        DefiningSet(f, (9,))
    with pytest.raises(ValueError):
        DefiningSet(f, (-1,))
    with pytest.raises(ValueError):
        DefiningSet(f, (1 << 70,))
    with pytest.raises(ValueError):
        DefiningSet(f, ((1, 2), (3, 4)))
    # a float or a string is refused, never truncated
    for bad in ([1.5, 2], ["3", 4]):
        with pytest.raises(ValueError, match="integer codes"):
            DefiningSet(f, bad)
    ds = DefiningSet(f, (3, 1, 0, 2))
    assert ds.elements.tolist() == [0, 1, 2, 3]
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64):
        assert DefiningSet(f, np.array([3, 1], dtype=dtype)) == DefiningSet(f, (1, 3)), dtype
    assert DefiningSet(f, []).n == 0
    # a mask is held as a copy, and only a flat mask of q cells is taken
    mask = np.zeros(f.q, dtype=bool)
    mask[[1, 2]] = True
    ds = DefiningSet.from_mask(f, mask)
    mask[3] = True
    assert ds == DefiningSet(f, (1, 2)) and ds.n == 2
    for bad in (np.zeros(f.q - 1, bool), np.zeros((1, f.q), bool), np.zeros((f.q, 1), bool), True):
        with pytest.raises(ValueError, match="shape"):
            DefiningSet.from_mask(f, bad)


def _canonical_by_sort(f, elements):
    """Oracle for the order of `elements`: ascending codes."""
    return sorted(set(elements))


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_canonical_elements_match_sort_oracle(p):
    rng = random.Random(700 + p)
    m = 1
    while p**m <= 1 << 11:
        f = get_field(p, m)
        for _ in range(4):
            els = rng.sample(range(f.q), rng.randint(1, f.q))
            ds = DefiningSet(f, els)
            assert ds.elements.dtype == np.int64
            assert ds.elements.tolist() == _canonical_by_sort(f, els), (p, m)
            assert ds.n == len(els) and ds.mask[els].all(), (p, m)
        m += 1


def test_defining_set_is_read_only_and_compares_by_value(code_catalog):
    f = get_field(3, 3)
    a = DefiningSet(f, (5, 0, 1), label="a")
    b = DefiningSet(f, np.array([1, 5, 0]), label="b")
    assert a == b and hash(a) == hash(b)  # the label is provenance, not identity
    assert len({a, b}) == 1
    assert a != DefiningSet(f, (5, 1))
    assert a != DefiningSet(alternate_field(f), (5, 0, 1))
    assert a.mask.shape == (f.q,) and a.mask.dtype == bool
    with pytest.raises(ValueError):
        a.elements[0] = 2
    with pytest.raises(ValueError):
        a.mask[0] = False
    # both constructors give the same set, whichever form it is read from
    for ds in code_catalog:
        f = ds.field
        for other in (DefiningSet.from_mask(f, ds.mask), DefiningSet(f, ds.elements)):
            assert other == ds and hash(other) == hash(ds), ds
        assert ds.elements.dtype == np.int64 and np.all(np.diff(ds.elements) > 0), ds
        assert not ds.elements.flags.writeable and not ds.mask.flags.writeable, ds


def test_pipeline_never_builds_the_element_array(monkeypatch):
    # the constructors, the kernel, the summary, the minimal-codeword count
    # and the Walsh spectrum read the mask; `elements` is derived only when
    # read, so none of them leaves it behind on a set it saw or made
    made = []
    from_mask = DefiningSet.from_mask

    def record(*args, **kwargs):
        made.append(from_mask(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(DefiningSet, "from_mask", record)
    f = get_field(2, 10)
    table = spectra.tr_cubic_table(f)
    cubic = sets.tr_cubic_set(f)
    built = [cubic, sets.complement(cubic), sets.boolean_support(f, table),
             sets.hkm_set(1, get_field(3, 3))]
    for ds in built:
        summarize(ds, build_code_weights(ds))
        minimal_codewords(ds)
    spectra.walsh_transform(f, table)
    # the two built above by from_mask (a complement holds its own fresh
    # mask and skips it); the Walsh spectrum builds no set
    assert len(made) == 2
    for ds in built + made:
        assert "elements" not in vars(ds), ds


def test_weight_distribution_validation():
    with pytest.raises((ValueError, AssertionError)):
        WeightDistribution.from_counts(p=2, m=2, n=3, k=2, counts={1: 4})
    with pytest.raises((ValueError, AssertionError)):
        WeightDistribution.from_counts(p=2, m=2, n=3, k=2, counts={0: 1, 1: 2})


def _random_counts(rng, p):
    """(m, n, k, counts): a valid weight -> multiplicity dict, its items
    in random order, weight 0 among them."""
    k, n = rng.randint(0, 3), rng.randint(1, 30)
    rest = p**k - 1  # the nonzero codewords, cut into positive parts
    s = min(rest, n, rng.randint(1, 5))
    weights = sorted(rng.sample(range(1, n + 1), s))
    cuts = [0, *sorted(rng.sample(range(1, rest), s - 1)), rest] if s else [0]
    items = [(0, 1), *zip(weights, (b - a for a, b in zip(cuts, cuts[1:])))]
    rng.shuffle(items)
    return rng.randint(max(k, 1), 6), n, k, dict(items)


def _dict_oracle(counts):
    """enumerator, d_min, w_max and the JSON weights read off a dict by sorting."""
    nz = sorted((w, a) for w, a in counts.items() if w > 0)
    terms = ["1"] + [("" if a == 1 else str(a)) + ("z" if w == 1 else f"z^{w}") for w, a in nz]
    ws = [w for w, _ in nz]
    return ("+".join(terms), min(ws, default=None), max(ws, default=None),
            [{"w": w, "count": a} for w, a in nz])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ascending_pairs_match_their_dict_oracle(p):
    rng = random.Random(p)
    for _ in range(60):
        m, n, k, counts = _random_counts(rng, p)
        from_dict = WeightDistribution.from_counts(p, m, n, k, counts)
        pairs = tuple(sorted((w, a) for w, a in counts.items() if w))
        from_pairs = WeightDistribution(p, m, n, k, pairs)
        assert from_dict == from_pairs and from_dict.pairs == pairs
        assert from_pairs.counts == counts
        enumerator, d_min, w_max, weights = _dict_oracle(counts)
        for wd in (from_dict, from_pairs):
            assert (wd.enumerator(), wd.d_min, wd.w_max) == (enumerator, d_min, w_max)
            assert wd.to_json_dict() == {"p": p, "m": m, "n": n, "k": k,
                                         "weights": weights, "d_min": d_min}


# (n, k, the pairs or None, the dict or None, the refusal): p = 2
DISTRIBUTION_REFUSALS = [
    (3, 2, None, {2: 4}, "weight 0 must appear exactly once"),
    (3, 2, None, {0: 2, 2: 2}, "weight 0 must appear exactly once"),
    (3, 2, ((0, 1), (2, 2)), None, "weight 0 must appear exactly once"),
    (3, 2, ((2, 1), (0, 2)), None, "weight 0 must appear exactly once"),
    (3, 2, ((3, 1), (2, 2)), None, "weight 2 after weight 3: weights must strictly ascend"),
    (3, 2, ((2, 1), (2, 2)), None, "weight 2 after weight 2: weights must strictly ascend"),
    (3, 2, ((1, 1), (5, 2)), {0: 1, 1: 1, 5: 2}, r"weight 5 outside \[0, 3\]"),
    (3, 2, ((-1, 3),), {0: 1, -1: 3}, r"weight -1 outside \[0, 3\]"),
    (3, 2, ((1, 0), (2, 3)), {0: 1, 1: 0, 2: 3}, "multiplicity of weight 1 must be positive"),
    (3, 2, ((1, 4), (2, -1)), {0: 1, 1: 4, 2: -1}, "multiplicity of weight 2 must be positive"),
    (3, 2, ((1, 2),), {0: 1, 1: 2}, r"multiplicities sum to 3, expected 2\^2"),
]


@pytest.mark.parametrize("n, k, pairs, counts, message", DISTRIBUTION_REFUSALS)
def test_distribution_refusals_keep_their_messages(n, k, pairs, counts, message):
    if pairs is not None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightDistribution(2, 2, n, k, pairs)
    if counts is not None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightDistribution.from_counts(2, 2, n, k, counts)


def test_distribution_equality_ignores_field_degree():
    a = WeightDistribution.from_counts(p=2, m=4, n=3, k=2, counts={0: 1, 2: 3})
    b = WeightDistribution.from_counts(p=2, m=2, n=3, k=2, counts={0: 1, 2: 3})
    assert a == b
