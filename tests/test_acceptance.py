"""Acceptance gate: ten criteria, one test per criterion.

Every check is integer-exact; the only tolerances are the stated wall
clock budgets, which are asserted where a criterion names one.
"""

import random
import time
from fractions import Fraction

import numpy as np

from dscodes import secretshare, sets, spectra, theorems
from dscodes.code import (
    DefiningSet,
    build_code_weights,
    dual_distance,
    macwilliams_dual,
    pless_moments_check,
    _weights_by_gather,
    _weights_by_hyperplane_count,
    _x_ordered,
)
from dscodes.field import get_field
from moduli import alternate_field, transport

WORKED_EXAMPLES = {
    4: (11, 4, "1+2z^4+12z^6+z^8"),
    5: (11, 5, "1+10z^4+16z^6+5z^8"),
    6: (31, 6, "1+10z^12+47z^16+6z^20"),
    7: (71, 7, "1+35z^32+64z^36+28z^40"),
    8: (111, 8, "1+36z^48+192z^56+27z^64"),
    10: (511, 10, "1+136z^240+767z^256+120z^272"),
}


def test_criterion_01_worked_examples_exact_and_fast():
    for m, (n, k, enumerator) in sorted(WORKED_EXAMPLES.items()):
        t0 = time.perf_counter()
        ds = sets.tr_cubic_set(get_field(2, m))
        wd = build_code_weights(ds)
        dual = macwilliams_dual(wd)
        elapsed = time.perf_counter() - t0
        assert (wd.n, wd.k) == (n, k), m
        assert wd.enumerator() == enumerator, m
        assert (dual.n, dual.k, dual.d_min) == (n, n - k, 3), m
        assert elapsed < 1.0, (m, elapsed)
    print("PASS criterion 1: six worked examples exact, each under 1 s")


def test_criterion_02_cubic_trace_families_across_m():
    t0 = time.perf_counter()
    for m in (5, 7, 9, 11, 13):
        rep = theorems.verify("thm4", get_field(2, m))
        assert rep.verdict == "match", (m, rep.first_diff)
    for m in (4, 6, 8, 10, 12):
        rep = theorems.verify("thm5", get_field(2, m))
        assert rep.verdict == "match", (m, rep.first_diff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    print(f"PASS criterion 2: ten parameter sets match in {elapsed:.2f} s")


def test_criterion_03_half_orbit_family():
    t0 = time.perf_counter()
    rep1 = theorems.verify("thm3", arg=1)
    t1 = time.perf_counter() - t0
    assert rep1.verdict == "match"
    assert (rep1.computed.n, rep1.computed.k, rep1.computed.d_min) == (23, 3, 14)
    assert dict(rep1.computed.nonzero_items()) == {14: 6, 15: 8, 16: 12}
    assert t1 < 1.0, t1

    t0 = time.perf_counter()
    rep3 = theorems.verify("thm3", arg=3)
    t3 = time.perf_counter() - t0
    assert rep3.verdict == "match", rep3.first_diff
    assert rep3.computed.n == 16403
    assert rep3.computed.k == 9
    mid, off = 5 * 3**7, 3**4
    assert dict(rep3.computed.nonzero_items()) == {
        mid - off: 3**6 - 3**3,
        mid: 3**9 - 2 * 3**6 - 1,
        mid + off: 3**6 + 3**3,
    }
    assert t3 < 600.0, t3
    print(f"PASS criterion 3: h=1 in {t1:.2f} s, h=3 (n=16403) in {t3:.2f} s")


def test_criterion_04_exponential_sum_closed_forms():
    for m in (3, 5, 7, 9, 11, 13):
        f = get_field(2, m)
        assert spectra.weil_sum(f, 1, 1) == spectra.carlitz_prediction(m), m

    mismatches = 0
    for m in (4, 6, 8):
        f = get_field(2, m)
        for a in range(1, f.q):
            if spectra.coulter_s_a0(f, a) != spectra.weil_sum(f, a, 0):
                mismatches += 1
            for b in range(1, f.q):
                if spectra.coulter_s_ab(f, a, b) != spectra.weil_sum(f, a, b):
                    mismatches += 1
    assert mismatches == 0

    rng = random.Random(404)
    for m in (10, 12):
        f = get_field(2, m)
        for _ in range(1000):
            a = rng.randint(1, f.q - 1)
            b = rng.randint(0, f.q - 1)
            closed = (
                spectra.coulter_s_a0(f, a) if b == 0 else spectra.coulter_s_ab(f, a, b)
            )
            assert closed == spectra.weil_sum(f, a, b), (m, a, b)

    for m, solvable in [(4, True), (6, False), (8, True), (10, False), (12, True)]:
        assert solvable is (m % 4 == 0), m
        found = spectra.QuarticSolver(get_field(2, m), 1).solve(1)
        assert (found is not None) is solvable, m
    print("PASS criterion 4: all closed-form sums match direct summation")


def test_criterion_05_semibent_spectra_all_odd_m():
    for m in (3, 5, 7, 9, 11, 13):
        f = get_field(2, m)
        spectrum = spectra.walsh_transform(f, spectra.tr_cubic_table(f))
        level = 1 << ((m + 1) // 2)
        values = set(int(v) for v in spectrum.values)
        assert values <= {0, level, -level}, (m, values)
    print("PASS criterion 5: cubic-trace spectra three-valued for odd m <= 13")


def test_criterion_06_one_weight_codes_for_every_scalar_subset():
    for p, m in [(3, 2), (3, 3), (5, 2), (7, 2)]:
        f = get_field(p, m)
        rep = theorems.verify("cor1", f)
        assert rep.verdict == "match", (p, m)
        for mask in range(1, 1 << (p - 1)):
            e_digits = tuple(d for d in range(1, p) if mask >> (d - 1) & 1)
            rep = theorems.verify("cor2", f, (e_digits, sets.simplex_coset_reps(f)))
            assert rep.verdict == "match", (p, m, e_digits)
            ell = len(e_digits)
            assert rep.computed.nonzero_items() == [
                (ell * p ** (m - 1), p**m - 1)
            ], (p, m, e_digits)
    print("PASS criterion 6: every scalar expansion is one-weight as predicted")


def test_criterion_07_complement_reflection_sweep():
    total = 0
    for p, m, count in [(2, 4, 34), (3, 3, 33), (2, 5, 33)]:
        rng = random.Random(1000 + p**m)
        for inst in theorems._reflectable_sets(theorems._complement, p, m, rng, count):
            rep = theorems._run(inst)
            assert rep.verdict == "match", (p, m, rep.params, rep.first_diff)
            total += 1
    assert total == 100
    print("PASS criterion 7: 100 random reflection instances all match")


def test_criterion_08_boolean_complement_family():
    for m in (5, 7):
        f = get_field(2, m)
        rep = theorems.verify("cor5", f, spectra.tr_cubic_table(f))
        assert rep.verdict == "match", m

    for m in (4, 5, 6):
        f = get_field(2, m)
        rng = random.Random(2000 + m)
        found = 0
        while found < 20:
            table = np.array(
                [0] + [rng.randint(0, 1) for _ in range(f.q - 1)], dtype=np.int64
            )
            rep = theorems.verify("cor5", f, table)
            if rep.verdict == "hypothesis-not-met":
                continue
            assert rep.verdict == "match", (m, rep.first_diff)
            found += 1
    print("PASS criterion 8: boolean-zero complements match for 60 sampled functions")


def test_criterion_09_structural_property_suites(catalog_with_weights):
    rng = random.Random(31337)
    for ds, wd in catalog_with_weights:
        f = ds.field
        dual = macwilliams_dual(wd)
        assert macwilliams_dual(dual) == wd, ds
        assert pless_moments_check(wd).ok, ds
        if f.q <= 1 << 10:
            assert np.array_equal(
                _x_ordered(_weights_by_hyperplane_count, ds),
                _x_ordered(_weights_by_gather, ds),
            ), ds
        shuffled = list(ds.elements)
        rng.shuffle(shuffled)
        assert build_code_weights(DefiningSet(f, tuple(shuffled))) == wd, ds
        if f.q <= 1 << 8:
            moved = transport(ds, alternate_field(f))
            assert build_code_weights(moved) == wd, ds
    print(
        f"PASS criterion 9: involution, moments, dual-route, ordering and "
        f"modulus invariance on {len(catalog_with_weights)} codes"
    )


def test_criterion_10_share_ratio_checks():
    expected = {6: (12, 20), 7: (32, 40), 8: (48, 64)}
    for m, (lo, hi) in expected.items():
        ds = sets.tr_cubic_set(get_field(2, m))
        wd = build_code_weights(ds)
        ratio = secretshare.with_cubic_trace_case(secretshare.ratio_check(wd), m)
        assert (ratio.w_min, ratio.w_max) == (lo, hi), m
        assert ratio.ratio == Fraction(lo, hi) and ratio.passes, m
        assert ratio.closed_form_ratio == ratio.ratio, m
        report, _ = secretshare.minimal_codewords(ds)
        assert report.all_minimal, m

    wd5 = build_code_weights(sets.tr_cubic_set(get_field(2, 5)))
    ratio5 = secretshare.with_cubic_trace_case(secretshare.ratio_check(wd5), 5)
    assert ratio5.ratio == Fraction(1, 2)
    assert not ratio5.passes
    print("PASS criterion 10: exact ratios 12/20, 32/40, 48/64; m=5 sits at 1/2")
