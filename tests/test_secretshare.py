import contextlib
import io
import itertools
import random
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dscodes import secretshare, sets
from dscodes.code import DefiningSet, build_code_weights
from dscodes.field import MAX_P, get_field, is_prime


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


def _check_against_oracle(ds):
    report, _ = secretshare.minimal_codewords(ds)
    counts = _support_counts(ds, report.k)
    minimal = _minimal_by_support_scan(counts)
    assert report.total_nonzero == sum(counts.values())
    assert report.minimal_count == minimal
    assert report.all_minimal == (minimal == report.total_nonzero)
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
        raise AssertionError("work started past the bound")

    monkeypatch.setattr(secretshare, "MINIMAL_GATHER_BOUND", 1 << 10)
    monkeypatch.setattr(secretshare, "weights_by_zero_count", boom)
    monkeypatch.setattr(secretshare, "_minimal_classes", boom)
    with pytest.raises(ValueError, match="MINIMAL_GATHER_BOUND"):
        secretshare.minimal_codewords(sets.tr_cubic_set(get_field(2, 6)))


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


def test_caps_are_exported():
    assert secretshare.MINIMAL_GATHER_BOUND == 1 << 32
    for p, m in ((2, 16), (3, 10), (83, 3)):
        assert secretshare.minimal_scan_fits(p, m)
    for p, m in ((2, 17), (3, 11), (89, 3)):
        assert not secretshare.minimal_scan_fits(p, m)


def test_gather_bound_keeps_sums_in_int32():
    # the test sums p weights of at most q each in int32
    largest = 0
    for p in filter(is_prime, range(2, MAX_P + 1)):
        m = 1
        while secretshare.minimal_scan_fits(p, m):
            largest = max(largest, p * p**m)
            m += 1
    assert largest < 1 << 31


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
