import contextlib
import io
import itertools
import random
import runpy
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dscodes import code, secretshare, sets
from dscodes.code import DefiningSet, build_code_weights
from dscodes.field import Field, get_field


def cubic_ratio(m):
    wd = build_code_weights(sets.tr_cubic_set(get_field(2, m)))
    return secretshare.with_cubic_trace_case(secretshare.ratio_check(wd), m)


def test_ratio_m6():
    r = cubic_ratio(6)
    assert (r.w_min, r.w_max) == (12, 20)
    assert r.ratio == Fraction(12, 20)
    assert r.passes
    assert r.m_congruence_case == "m = 2 mod 4"


def test_ratio_m7():
    r = cubic_ratio(7)
    assert (r.w_min, r.w_max) == (32, 40)
    assert r.passes
    assert r.m_congruence_case == "m = 1 or 7 mod 8"


def test_ratio_m8():
    r = cubic_ratio(8)
    assert (r.w_min, r.w_max) == (48, 64)
    assert r.ratio == Fraction(3, 4)
    assert r.passes
    assert r.m_congruence_case == "m = 0 mod 8"


def test_ratio_m5_sits_exactly_on_threshold():
    r = cubic_ratio(5)
    assert (r.w_min, r.w_max) == (4, 8)
    assert r.ratio == Fraction(1, 2)
    assert r.threshold == Fraction(1, 2)
    assert not r.passes  # the comparison is strict


@pytest.mark.parametrize("m", range(4, 13))
def test_closed_form_ratio_matches_enumeration(m):
    r = cubic_ratio(m)
    assert r.closed_form_ratio == r.ratio


def test_congruence_case_covers_all_residues():
    seen = {secretshare.cubic_trace_ratio_case(m)[0] for m in range(4, 20)}
    assert seen == {
        "m = 2 mod 4",
        "m = 4 mod 8",
        "m = 0 mod 8",
        "m = 1 or 7 mod 8",
        "m = 3 or 5 mod 8",
    }


def test_ratio_report_json_uses_exact_rationals():
    r = cubic_ratio(6)
    d = r.to_json_dict()
    assert d["ratio"] == [3, 5]
    assert d["raw_ratio"] == [12, 20]
    assert d["threshold"] == [1, 2]
    assert d["closed_form_ratio"] == [3, 5]


# ----------------------------------------------------------------------
# minimal codewords

ORACLE_MAX_Q = 1 << 12


def _support_counts(ds, k):
    """Oracle: support bitmask -> number of nonzero codewords with that
    support, from one codeword per x; bit i is coordinate i of ds."""
    f = ds.field
    assert f.q <= ORACLE_MAX_Q
    els = np.asarray(ds.elements, dtype=np.int64)
    raw = {}
    for x in range(f.q):
        nz = f.TR[f.scalar_mul_vec(x, els)] != 0
        mask = int.from_bytes(np.packbits(nz, bitorder="little").tobytes(), "little")
        raw[mask] = raw.get(mask, 0) + 1
    kernel = raw.pop(0)
    assert kernel == f.p ** (f.m - k)
    assert all(c % kernel == 0 for c in raw.values())
    return {mask: c // kernel for mask, c in raw.items()}


def _minimal_by_support_scan(counts):
    """Oracle: the number of codewords whose support contains no other
    support, testing every support against every lighter one."""
    by_popcount = sorted(counts, key=lambda mk: (mk.bit_count(), mk))
    minimal_count = 0
    for mask in by_popcount:
        w = mask.bit_count()
        lighter = itertools.takewhile(lambda o: o.bit_count() < w, by_popcount)
        if not any(o & mask == o for o in lighter):
            minimal_count += counts[mask]
    return minimal_count


def _forced_report(ds, gather):
    """minimal_codewords with the threshold off and one route forced:
    the gather when `gather`, else the correlations (p = 2 only)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(secretshare, "_certified_weight", lambda *args: 0)
        if gather:
            mp.setattr(secretshare, "_correlation_cells", lambda *args: code.TRANSFORM_MAX_CELLS + 1)
        else:
            mp.setattr(secretshare, "MINIMAL_GATHER_BOUND", 0)
        return secretshare.minimal_codewords(ds)[0]


def _check_routes(ds, k):
    """Each route alone against the full gather, one row per projective
    class outside the kernel: the classes the weight threshold certifies
    pass exactly p^(m-k+1) values of y there, and at p = 2 the
    correlations count the same y.  The gather reads the weights by
    log x, the gather route's columns past x = 0; the correlations read
    them by u = pi(x), the transform route's columns."""
    f = ds.field
    wlog = code._weights_by_gather([ds])[0][1:]
    rows = np.flatnonzero(wlog[: (f.q - 1) // (f.p - 1)])
    full = secretshare._gather_passes(f, wlog, rows)
    w = wlog[rows]
    certified = w <= secretshare._certified_weight(f.p, k, ds.n - int(ds.mask[0]), int(w.min()))
    assert np.all(full[certified] == f.p ** (f.m - k + 1))
    if f.p == 2:
        (weights,) = code._weights_by_hyperplane_count([ds])
        levels = np.flatnonzero(np.bincount(weights))
        pairs = secretshare._weight_pairs(levels, np.unique(w).tolist())
        us = f.PI[f.EXP[rows]]
        assert np.array_equal(secretshare._correlation_passes(f, weights, us, pairs), full)
    return full, certified


def _check_against_oracle(ds):
    report, _ = secretshare.minimal_codewords(ds)
    counts = _support_counts(ds, report.k)
    minimal = _minimal_by_support_scan(counts)
    assert report.total_nonzero == sum(counts.values())
    assert report.minimal_count == minimal
    assert report.all_minimal == (minimal == report.total_nonzero)
    _check_routes(ds, report.k)
    for gather in (True, False) if ds.field.p == 2 else (True,):
        assert _forced_report(ds, gather) == report
    return report


# every p with q <= ORACLE_MAX_Q, a middle and the largest field per p but 2
ORACLE_FIELDS = [
    (2, 6), (2, 10), (3, 4), (3, 7), (5, 3), (5, 5),
    (7, 2), (7, 4), (11, 2), (11, 3), (13, 2), (13, 3),
]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_minimal_count_matches_support_oracle_on_random_sets(p, m):
    f = get_field(p, m)
    rng = random.Random(1000 * p + m)
    reports = []
    for n in (2, 3, rng.randrange(4, f.q // 4), rng.randrange(f.q // 4, f.q)):
        reports.append(_check_against_oracle(DefiningSet(f, tuple(rng.sample(range(f.q), n)))))
    # inside the proper subspace of codes below p^(m-1): k < m
    for n in (2, rng.randrange(3, p ** (m - 1))):
        ds = DefiningSet(f, tuple(rng.sample(range(1, p ** (m - 1)), n)))
        reports.append(_check_against_oracle(ds))
    assert any(r.k < m for r in reports)
    assert any(not r.all_minimal for r in reports)


@pytest.mark.parametrize("m", range(5, 13))
def test_minimal_count_matches_support_oracle_on_cubic_trace_codes(m):
    report = _check_against_oracle(sets.tr_cubic_set(get_field(2, m)))
    assert report.all_minimal == (m != 5)


@pytest.mark.parametrize("m", [13, 14])
def test_routes_agree_with_the_full_gather_on_cubic_trace_codes(m):
    # past the bitmask oracle's fields; m = 5..12 run through _check_against_oracle
    ds = sets.tr_cubic_set(get_field(2, m))
    full, _ = _check_routes(ds, m)
    report, _ = secretshare.minimal_codewords(ds)
    assert report.all_minimal and np.all(full == 2)
    assert _forced_report(ds, gather=False) == report


def test_correlations_match_the_gather_on_a_set_with_many_weights():
    f = get_field(2, 10)
    ds = DefiningSet(f, tuple(random.Random(12).sample(range(f.q), 40)))
    (weights,) = code._weights_by_hyperplane_count([ds])
    levels = np.flatnonzero(np.bincount(weights))
    pairs = secretshare._weight_pairs(levels, levels[1:].tolist())
    assert len(levels) >= 15 and sum(map(len, pairs.values())) >= 30
    report = _check_against_oracle(ds)
    assert not report.all_minimal


def _subspace(f, basis):
    """Every GF(p)-combination of the basis elements."""
    span = {0}
    for v in basis:
        span = {f.add(s, f.mul(c, v)) for s in span for c in range(f.p)}
    return span


@pytest.mark.parametrize("p,m", [(2, 4), (2, 6), (3, 3), (5, 3)])
def test_certificate_boundary_stays_uncertified_and_non_minimal(p, m):
    # D holds p^(k-2) - 1 nonzero points on H_1, all in a (k-2)-space V, and
    # every element off H_1, so k = m and D meet H_1 spans V, not H_1
    f = get_field(p, m)
    on_h = [d for d in range(1, f.q) if f.trace(d) == 0]
    basis = []
    for d in on_h:
        if len(basis) < m - 2 and d not in _subspace(f, basis):
            basis.append(d)
    span = _subspace(f, basis)
    assert len(span) == p ** (m - 2)
    off_h = {d for d in range(f.q) if f.trace(d) != 0}
    ds = DefiningSet(f, tuple(sorted((span - {0}) | off_h)))
    report = _check_against_oracle(ds)
    assert report.k == m and not report.all_minimal
    full, certified = _check_routes(ds, m)
    # x = 1 is row 0, log 0
    assert not certified[0]
    assert full[0] > p ** (m - m + 1)


@pytest.mark.parametrize("p,m,elements,minimal,total", [
    (2, 4, (1,), 1, 1),  # k = 1
    (3, 3, (5, 7), 2, 2),  # k = 1: 7 = 2*5 digit by digit
    (2, 4, (1, 2), 2, 3),  # k = 2, (1, 1) covers (1, 0) and (0, 1)
    (2, 4, (1, 2, 3), 3, 3),  # the k = 2 simplex code, all certified
    (3, 3, (1, 3), 4, 8),  # k = 2, the full-support words cover the others
])
def test_minimal_count_at_dimension_one_and_two(p, m, elements, minimal, total, monkeypatch):
    ds = DefiningSet(get_field(p, m), elements)
    report = _check_against_oracle(ds)
    assert report.k == (1 if total == p - 1 else 2)
    assert (report.minimal_count, report.total_nonzero) == (minimal, total)
    if report.k == 1:
        # settled outright: neither route runs
        def boom(*args):
            raise AssertionError("a route ran at k = 1")

        monkeypatch.setattr(secretshare, "_gather_passes", boom)
        monkeypatch.setattr(secretshare, "_correlation_passes", boom)
        assert secretshare.minimal_codewords(ds)[0] == report


def test_minimal_count_matches_support_oracle_on_ternary_simplex():
    report = _check_against_oracle(sets.simplex_coset_reps(get_field(3, 7)))
    assert report.all_minimal


def test_binary_simplex_all_minimal():
    f = get_field(2, 2)
    ds = sets.simplex_coset_reps(f)
    report, ratio = secretshare.minimal_codewords(ds)
    assert report.total_nonzero == 3
    assert report.minimal_count == 3
    assert report.all_minimal
    # one-weight code: ratio is exactly 1, strictly above the threshold
    assert ratio.passes
    assert ratio.ratio == Fraction(1, 1)


def test_full_space_code_has_covering_word():
    # D = the two trace-one elements of GF(4): the code is all of GF(2)^2,
    # where (1,1) strictly covers (1,0)
    f = get_field(2, 2)
    trace_one = tuple(x for x in range(1, f.q) if f.trace(x) == 1)
    ds = DefiningSet(f, trace_one)
    report, _ = secretshare.minimal_codewords(ds)
    assert report.total_nonzero == 3
    assert report.minimal_count == 2
    assert not report.all_minimal


@pytest.mark.parametrize("m,expected_minimal", [(6, 63), (7, 127), (8, 255)])
def test_cubic_trace_codes_all_minimal(m, expected_minimal):
    ds = sets.tr_cubic_set(get_field(2, m))
    report, ratio = secretshare.minimal_codewords(ds)
    assert ratio.passes
    assert report.all_minimal
    assert report.minimal_count == expected_minimal


def test_cubic_trace_m5_not_all_minimal():
    report, ratio = secretshare.minimal_codewords(sets.tr_cubic_set(get_field(2, 5)))
    assert not ratio.passes
    assert report.total_nonzero == 31
    assert report.minimal_count == 26
    assert not report.all_minimal


def test_minimal_supports_scalar_closure():
    # nonbinary: each support is shared by the p - 1 scalar multiples
    rng = random.Random(7)
    cases = [DefiningSet(get_field(3, 2), (1, 2, 4, 5))]
    for p, m, n in ((5, 3, 3), (7, 2, 4), (13, 2, 5)):
        cases.append(DefiningSet(get_field(p, m), tuple(rng.sample(range(p**m), n))))
    totals = []
    for ds in cases:
        p = ds.field.p
        report, _ = secretshare.minimal_codewords(ds)
        counts = _support_counts(ds, report.k)
        assert report.total_nonzero == sum(counts.values())
        assert all(c % (p - 1) == 0 for c in counts.values())
        assert report.minimal_count % (p - 1) == 0
        assert report.minimal_count == _minimal_by_support_scan(counts)
        assert not report.all_minimal
        totals.append(report.total_nonzero)
    assert totals[0] == 8


def test_minimal_codewords_refuses_past_bound_before_any_work(monkeypatch):
    def boom(*args):
        raise AssertionError("a gather started")

    f = get_field(5, 4)
    ds = sets.quadratic_form_image(f, ((0, 1, 1),))
    # the classes' weights, W[alpha^s] for s < (q - 1)/4
    w = code._weights_by_gather([ds])[0][1 : 1 + (f.q - 1) // 4]
    bound = secretshare._certified_weight(5, 4, ds.n - int(ds.mask[0]), int(w[w > 0].min()))
    # the threshold leaves 26 classes: 26*625 gather cells
    assert np.count_nonzero(w > bound) == 26
    monkeypatch.setattr(secretshare, "_gather_passes", boom)
    monkeypatch.setattr(secretshare, "MINIMAL_GATHER_BOUND", 26 * 625)
    with pytest.raises(AssertionError, match="a gather started"):
        secretshare.minimal_codewords(ds)
    monkeypatch.setattr(secretshare, "MINIMAL_GATHER_BOUND", 26 * 625 - 1)
    report, ratio = secretshare.minimal_codewords(ds)
    assert report.minimal_count is None and report.all_minimal is None
    assert (report.k, report.total_nonzero) == (4, 5**4 - 1)
    assert ratio == secretshare.ratio_check(build_code_weights(ds))


def test_correlation_refuses_past_the_cap_before_allocating(monkeypatch):
    def boom(*args):
        raise AssertionError("work started past the cap")

    f = get_field(2, 8)
    ds = DefiningSet(f, tuple(random.Random(3).sample(range(f.q), 12)))
    (weights,) = code._weights_by_hyperplane_count([ds])
    rows = np.flatnonzero(weights)
    levels = np.flatnonzero(np.bincount(weights))
    pairs = secretshare._weight_pairs(levels, levels[1:].tolist())
    assert any(pairs.values())
    monkeypatch.setattr(code, "TRANSFORM_MAX_CELLS", 1 << 10)
    monkeypatch.setattr(secretshare, "walsh_hadamard", boom)
    with pytest.raises(ValueError, match="TRANSFORM_MAX_CELLS"):
        secretshare._correlation_passes(f, weights, rows, pairs)
    # nor does any route start once the gather's bound is past too
    monkeypatch.setattr(secretshare, "_gather_passes", boom)
    monkeypatch.setattr(secretshare, "MINIMAL_GATHER_BOUND", 1 << 10)
    report, _ = secretshare.minimal_codewords(ds)
    assert report.minimal_count is None


@pytest.mark.parametrize("p,m,build", [(2, 12, sets.tr_cubic_set), (3, 8, sets.simplex_coset_reps)])
def test_a_settled_count_never_builds_pi(p, m, build):
    f = Field(p, m)  # uncached, so PI is not built yet
    ds = build(f)
    assert code._route(p, m, ds.n) is code._weights_by_hyperplane_count
    report, ratio = secretshare.minimal_codewords(ds)
    assert ratio.passes and report.all_minimal
    assert "PI" not in vars(f)


def test_correlations_read_the_transform_row_as_it_comes(monkeypatch):
    def boom(*args):
        raise AssertionError("the gather ran")

    # the subspace of codes below 2^9 and 20 codes above it: the threshold
    # leaves classes, and the correlations settle them on the transform
    # route's weights by u = pi(x), with no table of pi
    f = Field(2, 12)  # uncached, so PI is not built yet
    ds = DefiningSet(f, (*range(1 << 9), *random.Random(12).sample(range(1 << 9, f.q), 20)))
    assert ds.n == 532 and code._route(2, 12, ds.n) is code._weights_by_hyperplane_count
    monkeypatch.setattr(secretshare, "_gather_passes", boom)
    report, ratio = secretshare.minimal_codewords(ds)
    assert "PI" not in vars(f)
    assert not ratio.passes and (report.minimal_count, report.total_nonzero) == (4080, 4095)
    assert report.minimal_count == _minimal_by_support_scan(_support_counts(ds, report.k))


@pytest.mark.parametrize("p,m,n", [(2, 8, 12), (3, 5, 30), (5, 3, 20)])
def test_a_skipped_count_reads_no_weights_by_x(p, m, n, monkeypatch):
    def boom(*args):
        raise AssertionError("the weights were read by x")

    f = get_field(p, m)
    ds = DefiningSet(f, tuple(random.Random(n).sample(range(f.q), n)))
    wd = build_code_weights(ds)
    # the distribution is read once; no route enumerates the weights again
    monkeypatch.setattr(secretshare, "build_code_weights", lambda ds: wd)
    monkeypatch.setattr(code, "_weights_by_gather", boom)
    monkeypatch.setattr(code, "_weights_by_hyperplane_count", boom)
    monkeypatch.setattr(secretshare, "_correlation_cells", lambda *args: code.TRANSFORM_MAX_CELLS + 1)
    monkeypatch.setattr(secretshare, "MINIMAL_GATHER_BOUND", f.q - 1)
    report, ratio = secretshare.minimal_codewords(ds)
    assert report.minimal_count is None and not ratio.passes
    assert (report.k, report.total_nonzero) == (m, p**m - 1)
    assert ratio == secretshare.ratio_check(wd)


def test_correlation_peak_memory_is_within_its_cell_count():
    f = get_field(2, 14)
    ds = DefiningSet(f, tuple(random.Random(1).sample(range(f.q), 80)))
    (weights,) = code._weights_by_hyperplane_count([ds])
    rows = np.flatnonzero(weights)
    levels = np.flatnonzero(np.bincount(weights))
    pairs = secretshare._weight_pairs(levels, levels[1:].tolist())
    cells = secretshare._correlation_cells(f.q, rows.size, pairs)
    assert rows.size > f.q // 2 and cells > 12 * f.q
    secretshare._correlation_passes(f, weights, rows, pairs)  # warm imports
    tracemalloc.start()
    try:
        secretshare._correlation_passes(f, weights, rows, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy reports its arrays to tracemalloc; its strided ufunc buffers
    # take up to 192 KB whatever q, and a few KB are Python objects
    assert 0.8 * 4 * cells < peak <= 4 * cells + (1 << 18)


def test_fixed_threshold_for_binary():
    r = cubic_ratio(6)
    assert r.p == 2
    assert r.threshold == Fraction(1, 2)


def test_cubic_trace_case_refuses_a_disagreeing_ratio():
    # the binary simplex code is one-weight: ratio 1, not the m = 6 form 3/5
    wd = build_code_weights(sets.simplex_coset_reps(get_field(2, 6)))
    with pytest.raises(AssertionError, match="disagrees"):
        secretshare.with_cubic_trace_case(secretshare.ratio_check(wd), 6)


def test_ratio_check_without_family_flag():
    wd = build_code_weights(sets.simplex_coset_reps(get_field(3, 3)))
    r = secretshare.ratio_check(wd)
    assert r.m_congruence_case == ""
    assert r.closed_form_ratio is None
    assert r.ratio == Fraction(1, 1)


@pytest.mark.parametrize("p,m", [(3, 12), (251, 3)])
def test_gather_is_bounded_by_its_cells_and_sums_past_int32_in_int64(p, m):
    # the bound is on |rows|*q cells, whatever the field
    assert secretshare.MINIMAL_GATHER_BOUND == 1 << 32
    # x = 1: the coset GF(p) passes, W[0] + (p-1)*A = (p-1)*A.  The coset
    # z + GF(p) has p weights B with p*B = (p-1)*A + 2^32, so it passes
    # too if the sums wrap in int32.  At GF(3^12) a row has q/p > 2^16 cells
    f = Field(p, m)
    a = (1 << 32) % p
    b = ((1 << 32) + (p - 1) * a) // p
    assert p * b == (p - 1) * a + (1 << 32) and b < 1 << 31 <= p * b
    by_x = np.zeros(f.q, dtype=np.int32)
    by_x[1:p] = a
    by_x[p : 2 * p] = b
    passed = secretshare._gather_passes(f, by_x[f.EXP[: f.q - 1]], np.array([0]))
    assert passed.tolist() == [p]


def test_share_ratio_sweep_counts_minimal_codewords_over_the_whole_range():
    script = runpy.run_path(
        str(Path(__file__).resolve().parents[1] / "scripts/share_ratio_sweep.py"),
        run_name="share_ratio_sweep",
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script["main"](4, 8) == 0
    minimal = out.getvalue().split("minimal codewords")[1].splitlines()[1:]
    assert [line.split(":")[0].strip() for line in minimal] == [f"m={m}" for m in range(4, 9)]
    assert minimal[1] == "  m=5: 26/31 minimal (all: False)"
    for m, line in zip((6, 7, 8), minimal[2:]):
        assert line == f"  m={m}: {2**m - 1}/{2**m - 1} minimal (all: True)"
