import math
import random

import numpy as np
import pytest

from dscodes import code, sets
from dscodes.code import (
    DUAL_MAX_N,
    DefiningSet,
    WeightDistribution,
    _dual_counts,
    build_code_weights,
    codeword,
    distribution_from_raw_histogram,
    dual_distance,
    dual_distance_at_least_3,
    griesmer_check,
    macwilliams_dual,
    pless_moments_check,
    summarize,
    weight_by_counting_oracle,
    weights_by_codeword_scan,
    weights_by_zero_count,
)
from dscodes.field import alternate_field, get_field

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
    ds = sets.tr_cubic_set(m)
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
    for ds, wd in catalog_with_weights:
        if ds.field.q > 1 << 10:
            continue
        a = weights_by_zero_count(ds.field, ds.elements)
        b = weights_by_codeword_scan(ds.field, ds.elements)
        assert np.array_equal(a, b), ds


def test_counting_oracle_spot_checks(code_catalog):
    rng = random.Random(7)
    for ds in code_catalog[:8]:
        f = ds.field
        fast = weights_by_zero_count(f, ds.elements)
        for x in rng.sample(range(f.q), min(f.q, 10)):
            assert int(fast[x]) == weight_by_counting_oracle(ds, x)
            assert int(fast[x]) == sum(1 for c in codeword(ds, x) if c)


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
        moved = sets.transport(ds, g)
        assert build_code_weights(ds) == build_code_weights(moved), ds


def test_threaded_enumeration_matches_serial():
    ds = sets.tr_cubic_set(8)
    assert build_code_weights(ds, threads=4) == build_code_weights(ds)


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
    f = get_field(2, 2)
    with pytest.raises((ValueError, AssertionError)):
        distribution_from_raw_histogram(f, 3, {0: 1, 2: 3})


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


def test_dual_recurrence_matches_direct_krawtchouk_sum(catalog_with_weights):
    f7 = get_field(7, 2)
    rng = random.Random(17)
    sevens = [DefiningSet(f7, tuple(rng.sample(range(f7.q), rng.randint(1, 20)))) for _ in range(4)]
    cases = [wd for _, wd in catalog_with_weights] + [build_code_weights(ds) for ds in sevens]
    for wd in cases:
        size = wd.p**wd.k
        expected = []
        for j in range(wd.n + 1):
            total = sum(a * krawtchouk(wd.n, wd.p, j, w) for w, a in wd.counts.items())
            assert total % size == 0, (wd, j)
            expected.append((j, total // size))
        assert list(_dual_counts(wd)) == expected, wd


def test_full_dual_refuses_oversized_length(monkeypatch):
    n = DUAL_MAX_N + 1
    wd = WeightDistribution(p=2, m=16, n=n, k=1, counts={0: 1, n: 1})

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
    assert wd.nonzero_items() == [(9, 26)]
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


def test_dual3_certificate():
    ds = sets.tr_cubic_set(5)
    cert = dual_distance_at_least_3(ds)
    assert cert.certified
    f = get_field(2, 4)
    bad = DefiningSet(f, (0, 1, 2))
    cert2 = dual_distance_at_least_3(bad)
    assert not cert2.certified and cert2.has_zero
    f9 = get_field(3, 2)
    prop = DefiningSet(f9, (1, f9.mul(2, 1), 4))
    cert3 = dual_distance_at_least_3(prop)
    assert not cert3.certified and cert3.proportional_pair is not None


def test_summary_fields():
    ds = sets.tr_cubic_set(5)
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
    ds = DefiningSet(f, (3, 1, 0, 2))
    assert ds.elements[0] == 0  # canonical order: 0 first, then by dlog


def test_weight_distribution_validation():
    with pytest.raises((ValueError, AssertionError)):
        WeightDistribution(p=2, m=2, n=3, k=2, counts={1: 4})
    with pytest.raises((ValueError, AssertionError)):
        WeightDistribution(p=2, m=2, n=3, k=2, counts={0: 1, 1: 2})


def test_distribution_equality_ignores_field_degree():
    a = WeightDistribution(p=2, m=4, n=3, k=2, counts={0: 1, 2: 3})
    b = WeightDistribution(p=2, m=2, n=3, k=2, counts={0: 1, 2: 3})
    assert a == b
