import random

import pytest

from dscodes import code, sets, theorems
from dscodes.code import DefiningSet, WeightDistribution, build_code_weights
from dscodes.field import get_field
from dscodes.theorems import (
    mirror_distribution,
    scan,
    scan_summary,
    stretch_distribution,
)


def wd_of(p, m, n, k, counts):
    full = {0: 1}
    full.update(counts)
    return WeightDistribution.from_counts(p=p, m=m, n=n, k=k, counts=full)


# ----------------------------------------------------------------------
# distribution transforms


def test_stretch_distribution():
    base = wd_of(3, 2, 4, 2, {3: 8})
    out = stretch_distribution(base, 2)
    assert out.n == 8
    assert dict(out.nonzero_items()) == {6: 8}


def test_mirror_distribution():
    base = wd_of(2, 5, 11, 5, {4: 10, 6: 16, 8: 5})
    out = mirror_distribution(base, 16, 20)
    assert dict(out.nonzero_items()) == {12: 10, 10: 16, 8: 5}
    back = mirror_distribution(out, 16, 11)
    assert back == base


def test_first_diff_reports_smallest_weight():
    a = wd_of(2, 4, 5, 2, {2: 3})
    b = wd_of(2, 4, 5, 2, {2: 2, 3: 1})
    diff = theorems._first_diff(a, b)
    assert diff == {"field": "A_w", "w": 2, "predicted": 3, "computed": 2}


def _first_diff_oracle(predicted, computed):
    """The first differing A_w over the union of both weight sets, by dict."""
    a, b = predicted.counts, computed.counts
    w = min(w for w in set(a) | set(b) if a.get(w, 0) != b.get(w, 0))
    return {"field": "A_w", "w": w, "predicted": a.get(w, 0), "computed": b.get(w, 0)}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_first_diff_merge_matches_dict_oracle(p):
    # pairs of distributions of one [n, k]: some codewords of one moved to
    # another weight, new or held, so the weight sets differ or interleave
    rng = random.Random(p)
    seen = 0
    for _ in range(80):
        k, n = rng.randint(1, 3), rng.randint(2, 12)
        counts = {0: 1}
        for _ in range(p**k - 1):
            w = rng.randint(1, n)
            counts[w] = counts.get(w, 0) + 1
        moved = dict(counts)
        src = rng.choice([w for w in moved if w])
        dst = rng.randint(1, n)
        step = rng.randint(1, moved[src])
        moved[src] -= step
        moved[dst] = moved.get(dst, 0) + step
        moved = {w: a for w, a in moved.items() if a}
        a = WeightDistribution.from_counts(p, 3, n, k, counts)
        b = WeightDistribution.from_counts(p, 3, n, k, moved)
        if a == b:
            continue
        seen += 1
        assert theorems._first_diff(a, b) == _first_diff_oracle(a, b), (counts, moved)
        assert theorems._first_diff(b, a) == _first_diff_oracle(b, a), (moved, counts)
    assert seen > 40


@pytest.mark.parametrize("pivot, new_n, r", [(16, 9, 12), (6, 20, 0), (7, 20, -1)])
def test_mirror_names_the_first_weight_reflected_outside(pivot, new_n, r):
    # weights 4, 6, 8 reflect to pivot - 4, pivot - 6, pivot - 8: the first
    # outside [1, new_n] in ascending w, as a scan of every weight finds it
    base = wd_of(2, 5, 11, 5, {4: 10, 6: 16, 8: 5})
    with pytest.raises(ArithmeticError, match=rf"^reflected weight {r} falls outside \[1, {new_n}\];"):
        mirror_distribution(base, pivot, new_n)


def test_closed_forms_and_the_dual_give_strictly_ascending_pairs(catalog_with_weights):
    from dscodes.code import macwilliams_dual

    forms = [theorems.predict_simplex(p, m) for p, m in ((2, 3), (3, 4), (5, 2), (7, 3))]
    forms += [theorems.predict_scaled_simplex(5, 3, ell) for ell in (1, 2, 4)]
    forms += [theorems.predict_quadratic_odd_rank(3, 3, 2)]
    forms += [theorems.predict_quadratic_even_rank(p, 2, 2, 2) for p in (3, 5)]
    forms += [theorems.predict_cubic_trace_odd(m) for m in range(5, 17, 2)]
    forms += [theorems.predict_cubic_trace_even(m) for m in range(4, 18, 2)]
    forms += [theorems.predict_half_orbit_complement(h) for h in (1, 3)]
    # predict_boolean_complement and the cor4 forms as their scans call them
    for token, p, values in (("cor5", 2, (4, 5, 6, 7)), ("cor4odd", 3, (3, 5)),
                             ("cor4even", 3, (2, 4)), ("cor4even", 5, (2,))):
        forms += [r.predicted for r in scan(token, values, p=p) if r.predicted is not None]
    forms += [macwilliams_dual(wd) for _, wd in catalog_with_weights]
    for wd in forms:
        ws = [w for w, _ in wd.pairs]
        assert type(wd.pairs) is tuple and ws == sorted(set(ws)), wd
        assert all(type(w) is int and type(a) is int and a > 0 for w, a in wd.pairs), wd


# ----------------------------------------------------------------------
# one-weight families


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_simplex_family(p, m):
    rep = theorems.verify("cor1", get_field(p, m))
    assert rep.verdict == "match"
    assert rep.computed.nonzero_items() == [(p ** (m - 1), p**m - 1)]


def test_scaled_simplex_all_subsets_gf9():
    f = get_field(3, 2)
    for e_digits in [(1,), (2,), (1, 2)]:
        rep = theorems.verify("cor2", f, (e_digits, sets.simplex_coset_reps(f)))
        assert rep.verdict == "match"
        ell = len(e_digits)
        assert rep.computed.nonzero_items() == [(ell * 3, 8)]


def test_expansion_with_complete_product():
    f = get_field(5, 2)
    base = sets.simplex_coset_reps(f)
    rep = theorems.verify("thm1", f, ((2, 3), base))
    assert rep.verdict == "match"
    assert rep.params["ell"] == 2


def test_expansion_detects_incomplete_product():
    f = get_field(3, 2)
    # {1, 2} is closed under multiplication by 2, so E = {1, 2} collapses
    rep = theorems.verify("thm1", f, ((1, 2), DefiningSet(f, (1, 2))))
    assert rep.verdict == "hypothesis-not-met"
    names = {c.name: c.passed for c in rep.hypothesis_checks}
    assert names["product-size-complete"] is False


def test_expansion_property_sweep():
    rep = theorems.verify("thm1prop", get_field(3, 2), seed=101)
    assert rep.trials == 40
    assert rep.verdict == "match"
    assert rep.all_matched
    assert rep.complete_trials > 0 and rep.incomplete_trials > 0
    ce = rep.counterexample
    assert ce["complete"] is False
    assert ce["conclusion_holds"] is False


def test_expansion_property_rejects_binary():
    with pytest.raises(ValueError):
        theorems.verify("thm1prop", get_field(2, 3))


# ----------------------------------------------------------------------
# splitting a one-weight union


def test_split_of_cubic_set_and_rest():
    f = get_field(2, 5)
    d1 = sets.tr_cubic_set(f)
    d2 = DefiningSet(f, tuple(set(range(1, f.q)) - set(d1.elements)))
    rep = theorems.verify("thm2", f, (d1, d2))
    assert rep.verdict == "match"
    assert dict(rep.computed.nonzero_items()) == {8: 5, 10: 16, 12: 10}
    # weights of the two halves add up to the one-weight level pointwise
    w = rep.params["w"]
    wd1 = build_code_weights(d1)
    mirrored = mirror_distribution(wd1, w, d2.n)
    assert mirrored == rep.computed


def test_split_rejects_overlapping_parts():
    f = get_field(2, 4)
    rep = theorems.verify("thm2", f, (DefiningSet(f, (1, 2)), DefiningSet(f, (2, 3))))
    assert rep.verdict == "hypothesis-not-met"


def test_split_rejects_unequal_dimensions():
    f = get_field(2, 4)
    step = (f.q - 1) // 3
    sub_units = tuple(f.antilog(t) for t in range(0, f.q - 1, step))
    d1 = DefiningSet(f, sub_units)  # spans only 2 of 4 dimensions
    d2 = DefiningSet(f, tuple(set(range(1, f.q)) - set(sub_units)))
    rep = theorems.verify("thm2", f, (d1, d2))
    assert rep.verdict == "hypothesis-not-met"
    names = {c.name: c.passed for c in rep.hypothesis_checks}
    assert names["union-one-weight"] is True
    assert names["equal-dimensions"] is False


def test_split_rejects_two_weight_union():
    f = get_field(3, 2)
    rep = theorems.verify("thm2", f, (DefiningSet(f, (1, 2)), DefiningSet(f, (3,))))
    assert rep.verdict == "hypothesis-not-met"


# ----------------------------------------------------------------------
# complement reflection


def test_complement_of_cubic_set():
    rep = theorems.verify("cor3", get_field(2, 5), sets.tr_cubic_set(get_field(2, 5)))
    assert rep.verdict == "match"
    assert rep.computed.n == 21
    assert dict(rep.computed.nonzero_items()) == {8: 5, 10: 16, 12: 10}


def test_complement_applied_twice_restores_distribution():
    f = get_field(2, 5)
    base = sets.tr_cubic_set(f)
    once = sets.complement(base)
    twice = sets.complement(once)
    assert build_code_weights(twice) == build_code_weights(base)
    # and the reflection engine agrees both ways when both codes qualify
    rep = theorems.verify("cor3", f, base)
    assert rep.verdict == "match"


def test_complement_rejects_low_dimension():
    f = get_field(2, 4)
    step = (f.q - 1) // 3
    sub_units = tuple(f.antilog(t) for t in range(0, f.q - 1, step))
    rep = theorems.verify("cor3", f, DefiningSet(f, sub_units))
    assert rep.verdict == "hypothesis-not-met"


def test_complement_rejects_full_weight():
    f = get_field(2, 4)
    rep = theorems.verify("cor3", f, sets.simplex_coset_reps(f))
    assert rep.verdict == "hypothesis-not-met"
    names = {c.name: c.passed for c in rep.hypothesis_checks}
    assert names["max-weight-below-full"] is False


def test_complement_random_sweep():
    rng = random.Random(23)
    for p, m in [(2, 4), (3, 3)]:
        insts = list(theorems._reflectable_sets(theorems._complement, p, m, rng, 10))
        assert len(insts) == 10
        for inst in insts:
            assert theorems._run(inst).verdict == "match"


def _one_at_a_time(f, rng, trials):
    """The cor3 draws of `trials` kept instances, one candidate at a time,
    each base enumerated alone: (base, instance) per candidate."""
    for _ in range(trials):
        holds = False
        while not holds:
            size = rng.randint(f.m, min(f.q - 2, f.m + 6))
            base = DefiningSet(f, tuple(rng.sample(range(f.q), size)), label="random")
            inst = theorems._complement(f, base)
            holds = inst.holds
            yield base, inst


# one round a value, and rounds of at most 7, 3 and 1 sets at q = 16, 32 and 64
@pytest.mark.parametrize("cells", [code.BATCH_CELLS, 7 * 16])
def test_cor3_rounds_draw_the_sets_of_a_one_at_a_time_walk(monkeypatch, cells):
    monkeypatch.setattr(code, "BATCH_CELLS", cells)
    drawn = []
    reflection = theorems._reflection
    monkeypatch.setattr(
        theorems, "_reflection", lambda base, wd: drawn.append(base) or reflection(base, wd)
    )
    for p, values in ((2, (4, 5, 6)), (3, (3, 4))):
        rng, walk_rng = random.Random(7), random.Random(7)
        for m in values:
            f = get_field(p, m)
            drawn.clear()
            insts = list(theorems._reflectable_sets(theorems._complement, p, m, rng, 30))
            bases = drawn[:]
            walk = list(_one_at_a_time(f, walk_rng, 30))
            assert bases == [base for base, _ in walk], (p, m)
            assert rng.getstate() == walk_rng.getstate(), (p, m)
            assert len(walk) > len(insts) == 30
            kept = [inst for _, inst in walk if inst.holds]
            assert [theorems._run(i) for i in insts] == [theorems._run(i) for i in kept], (p, m)


def test_cor3_gives_up_after_a_run_of_misses_only(monkeypatch):
    f = get_field(2, 3)
    holds = [inst.holds for _, inst in _one_at_a_time(f, random.Random(2), 40)]
    longest = max(len(run) for run in "".join("x."[h] for h in holds).split("."))
    assert holds.count(False) > 2 * longest > 2  # misses in several runs
    monkeypatch.setattr(code, "BATCH_CELLS", 7 * f.q)  # rounds of at most 7
    monkeypatch.setattr(theorems, "REFLECTABLE_TRIES", longest + 1)
    assert len(list(theorems._reflectable_sets(None, 2, 3, random.Random(2), 40))) == 40
    monkeypatch.setattr(theorems, "REFLECTABLE_TRIES", longest)
    with pytest.raises(ValueError, match="could not sample"):
        list(theorems._reflectable_sets(None, 2, 3, random.Random(2), 40))


# ----------------------------------------------------------------------
# quadratic form families


def test_quadratic_odd_rank_gold_form():
    f = get_field(3, 3)
    rep = theorems.verify("cor4odd", f, ((1, 0, 1),))  # x^{3+1}
    assert rep.claim == "cor4odd"
    assert rep.verdict == "match"
    assert rep.computed.n == 14 and rep.computed.k == 3
    assert dict(rep.computed.nonzero_items()) == {9: 26}
    # a fractional index is refused, not truncated to the gold form
    with pytest.raises(ValueError, match="three integers"):
        theorems.verify("cor4odd", f, ((1.5, 0, 1),))


def test_quadratic_even_rank_square_form():
    f = get_field(3, 2)
    rep = theorems.verify("cor4even", f, ((0, 0, 1),))  # x^2, 2-to-1
    assert rep.claim == "cor4even"
    assert rep.verdict == "match"


def test_quadratic_even_rank_4_to_1_surfaces_mismatch():
    # taken as written, the even-rank enumerator fails at e = 4; the
    # engine must surface that rather than repair it
    f = get_field(3, 2)
    rep = theorems.verify("cor4even", f, ((1, 0, 1),))  # x^4 over GF(9)
    assert rep.claim == "cor4even"
    assert rep.verdict == "mismatch"
    assert dict(rep.computed.nonzero_items()) == {4: 6, 6: 2}
    assert dict(rep.predicted.nonzero_items()) == {4: 4, 5: 4}

    f81 = get_field(3, 4)
    rep81 = theorems.verify("cor4even", f81, ((1, 0, 1),))
    assert rep81.verdict == "mismatch"
    assert dict(rep81.computed.nonzero_items()) == {36: 20, 42: 60}
    assert dict(rep81.predicted.nonzero_items()) == {39: 40, 42: 40}


def test_quadratic_rejects_characteristic_two():
    f = get_field(2, 4)
    rep = theorems.verify("cor4odd", f, ((1, 0, 1),))  # x^3
    assert rep.verdict == "hypothesis-not-met"
    names = {c.name: c.passed for c in rep.hypothesis_checks}
    assert names["p-odd"] is False


def test_quadratic_rejects_permutation_form():
    f = get_field(3, 3)
    # e = gcd(q - 1, 2) = 2 for x^2; use a 1-to-1 diagonal form instead:
    # x^{3^s + 1} with gcd(q - 1, 3^s + 1) = 2 always here, so fall back
    # to a form that vanishes on units
    terms = ((0, 0, 1), (1, 0, 2))
    e = sets.is_e_to_1(sets.evaluate_quadratic_form(f, terms))
    if e is None:
        rep = theorems.verify("cor4odd", f, terms)
        assert rep.verdict == "hypothesis-not-met"


# ----------------------------------------------------------------------
# boolean complement family


@pytest.mark.parametrize("m", [5, 6, 7])
def test_boolean_complement_of_cubic_trace(m):
    f = get_field(2, m)
    from dscodes import spectra

    rep = theorems.verify("cor5", f, spectra.tr_cubic_table(f))
    assert rep.verdict == "match"


def test_boolean_complement_side_condition_fails_at_m4():
    # Tr(x^3) over GF(16) has a spectrum value equal to twice the zero
    # count, which collapses a coordinate of the construction
    f = get_field(2, 4)
    from dscodes import spectra

    rep = theorems.verify("cor5", f, spectra.tr_cubic_table(f))
    assert rep.verdict == "hypothesis-not-met"


def test_boolean_complement_refuses_a_spectrum_that_attains_2nf():
    import numpy as np

    # a 5-element support in GF(16) whose spectrum takes 2 n_f = 10 off the origin
    table = np.array([int(b) for b in "0001110010000010"])
    rep = theorems.verify("cor5", get_field(2, 4), table)
    checks = {c.name: (c.passed, c.detail) for c in rep.hypothesis_checks}
    assert checks["spectrum-avoids-2nf"] == (False, "2 n_f = 10 is attained")
    assert checks["spectrum-below-twice-zero-count"] == (True, "max transform 10, bound 22")
    assert rep.verdict == "hypothesis-not-met"


def test_boolean_complement_refuses_a_table_that_is_not_bits():
    import numpy as np

    from dscodes import spectra

    # the spectrum is taken first, so the bit check runs before any hypothesis

    f = get_field(2, 5)
    table = spectra.tr_cubic_table(f).astype(np.int64)
    table[0] = 2
    with pytest.raises(ValueError, match="q bits"):
        theorems.verify("cor5", f, table)


def test_boolean_complement_random_tables():
    import numpy as np

    rng = random.Random(77)
    f = get_field(2, 5)
    found = 0
    while found < 10:
        table = np.array(
            [0] + [rng.randint(0, 1) for _ in range(f.q - 1)], dtype=np.int64
        )
        rep = theorems.verify("cor5", f, table)
        if rep.verdict == "hypothesis-not-met":
            continue
        assert rep.verdict == "match"
        found += 1


# ----------------------------------------------------------------------
# the three named families


def test_half_orbit_h1():
    rep = theorems.verify("thm3", arg=1)
    assert rep.verdict == "match"
    assert (rep.computed.n, rep.computed.k) == (23, 3)
    assert dict(rep.computed.nonzero_items()) == {14: 6, 15: 8, 16: 12}


def test_half_orbit_rejects_even_h():
    rep = theorems.verify("thm3", arg=2)
    assert rep.verdict == "hypothesis-not-met"


@pytest.mark.parametrize(
    "m,expected",
    [
        (5, {4: 10, 6: 16, 8: 5}),
        (7, {32: 35, 36: 64, 40: 28}),
    ],
)
def test_cubic_trace_odd(m, expected):
    rep = theorems.verify("thm4", get_field(2, m))
    assert rep.verdict == "match"
    assert dict(rep.computed.nonzero_items()) == expected


def test_cubic_trace_odd_rejects_small_or_even_m():
    assert theorems.verify("thm4", get_field(2, 3)).verdict == "hypothesis-not-met"
    assert theorems.verify("thm4", get_field(2, 6)).verdict == "hypothesis-not-met"


@pytest.mark.parametrize(
    "m,expected",
    [
        (4, {4: 2, 6: 12, 8: 1}),
        (6, {12: 10, 16: 47, 20: 6}),
        (8, {48: 36, 56: 192, 64: 27}),
    ],
)
def test_cubic_trace_even(m, expected):
    rep = theorems.verify("thm5", get_field(2, m))
    assert rep.verdict == "match"
    assert dict(rep.computed.nonzero_items()) == expected


def test_cubic_trace_even_rejects_odd_m():
    assert theorems.verify("thm5", get_field(2, 5)).verdict == "hypothesis-not-met"


# ----------------------------------------------------------------------
# scanning


def test_scan_cubic_trace_families():
    odd = scan("thm4", tuple(range(3, 14)))
    summary = scan_summary(odd)
    assert summary["total"] == 6  # odd m in 3..13
    assert summary["match"] == 5
    assert summary["hypothesis-not-met"] == 1  # m = 3 floor case

    even = scan("thm5", tuple(range(4, 13)))
    assert scan_summary(even) == {
        "total": 5, "match": 5, "mismatch": 0, "hypothesis-not-met": 0,
    }


def test_scan_scaled_simplex_enumerates_subsets():
    reports = scan("cor2", (2, 3), p=3)
    assert len(reports) == 6  # 3 nonempty subsets of GF(3)* per m
    assert all(r.verdict == "match" for r in reports)


def test_scan_quadratic_families():
    odd = scan("cor4odd", (3,), p=3)
    assert odd and all(r.verdict == "match" for r in odd)
    even = scan("cor4even", (2,), p=3)
    verdicts = {r.params["e"]: r.verdict for r in even}
    assert verdicts[2] == "match"
    assert verdicts[4] == "mismatch"


def test_scan_rejects_unscannable_claim():
    with pytest.raises(ValueError):
        scan("thm2", (4,))


def test_scan_half_orbit_skips_even_h():
    reports = scan("thm3", (1, 2))
    assert len(reports) == 1
    assert reports[0].verdict == "match"


# ----------------------------------------------------------------------
# work per instance: each value is computed once


def _record_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper; the returned list gets each result."""
    results = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


def test_cor3_scan_enumerates_base_and_complement_once(monkeypatch):
    singles = _record_calls(monkeypatch, theorems, "build_code_weights")
    batches = _record_calls(monkeypatch, theorems, "weight_distributions")
    built = _record_calls(monkeypatch, theorems, "_reflection")
    reports = scan("cor3", (4, 5), p=2, trials=25)
    rejected = sum(not inst.holds for inst in built)
    assert len(reports) == 50 and rejected > 0
    assert len(built) == len(reports) + rejected
    # every set enumerated in a batch: a base per draw, a complement per report
    assert not singles
    assert sum(len(wds) for wds in batches) == 2 * len(reports) + rejected


def test_cor3_round_refuses_its_largest_complement_before_any_kernel_call(monkeypatch):
    f = get_field(2, 6)
    rng = random.Random(3)
    sizes = []  # the first round's 20 bases, drawn as _reflectable_sets draws them
    for _ in range(20):
        sizes.append(rng.randint(f.m, min(f.q - 2, f.m + 6)))
        rng.sample(range(f.q), sizes[-1])
    largest = f.q - min(sizes)
    assert f.q - sizes[0] < largest  # a check of the first base alone would pass
    batches = _record_calls(monkeypatch, theorems, "weight_distributions")
    # no transform, and a gather of at most `largest` - 1 elements
    monkeypatch.setattr(code, "TRANSFORM_MAX_CELLS", f.q * f.p - 1)
    monkeypatch.setattr(code, "GATHER_MAX_CELLS", f.q * (largest - 1))
    with pytest.raises(ValueError, match=rf"^{largest} elements of GF\(2\^6\) fit neither"):
        next(theorems._reflectable_sets(None, 2, 6, random.Random(3), 20))
    assert batches == []
    # one element more fits the whole round, enumerated in one call
    monkeypatch.setattr(code, "GATHER_MAX_CELLS", f.q * largest)
    next(theorems._reflectable_sets(None, 2, 6, random.Random(3), 20))
    assert [len(wds) for wds in batches] == [20]


# the scans of the catalogue benchmark workload, at reduced size
CATALOGUE_SCANS = [
    ("cor3", 2, (4, 5, 6)), ("cor3", 3, (3,)), ("cor2", 7, (2,)), ("cor4odd", 3, (3, 4)),
    ("cor4even", 3, (2, 4)), ("cor4even", 5, (2,)), ("thm4", 2, (5, 7)), ("cor5", 2, (4, 5, 6)),
]


@pytest.mark.parametrize("token,p,values", CATALOGUE_SCANS)
def test_catalogue_scans_enumerate_each_set_once(monkeypatch, token, p, values):
    singles = _record_calls(monkeypatch, theorems, "build_code_weights")
    batches = _record_calls(monkeypatch, theorems, "weight_distributions")
    drawn = _record_calls(monkeypatch, theorems, "_reflection")  # cor3's bases
    reports = scan(token, values, p=p, trials=20, seed=1)
    holding = sum(r.verdict != "hypothesis-not-met" for r in reports)
    assert reports and holding
    # one set a holding instance, one a drawn base, and never a set alone
    assert sum(len(wds) for wds in batches) == holding + len(drawn)
    assert not singles


def test_sweep_and_split_enumerate_their_sets_in_one_call(monkeypatch):
    singles = _record_calls(monkeypatch, theorems, "build_code_weights")
    batches = _record_calls(monkeypatch, theorems, "weight_distributions")
    rep = theorems.verify("thm1prop", get_field(3, 2), seed=101)
    # each complete trial's D and ED, and the counterexample's pair
    assert [len(wds) for wds in batches] == [2 * rep.complete_trials + 2]
    batches.clear()
    f = get_field(2, 5)
    theorems.verify("thm2", f, theorems._split_off_rest(sets.tr_cubic_set(f)))
    assert [len(wds) for wds in batches] == [3]  # the union and both halves
    assert not singles


def test_cor4_scan_evaluates_each_form_once(monkeypatch):
    tables = _record_calls(monkeypatch, sets, "evaluate_quadratic_form")
    reports = scan("cor4odd", (3, 4, 5), p=3)
    assert len(reports) == 8
    assert len(tables) == 3 + 4 + 5  # one form x^(3^s + 1) per s < m


def test_scan_runs_each_instance_before_building_the_next(monkeypatch):
    # families yield lazily: past BATCH_CELLS cells (a chunk of one set) one
    # instance's sets are alive at a time; below it, a chunk is one call
    events = []
    for module, name in ((sets, "product_set"), (theorems, "weight_distributions")):
        def logged(*args, _original=getattr(module, name), _name=name):
            out = _original(*args)
            events.append((_name, len(out) if _name == "weight_distributions" else 1))
            return out
        monkeypatch.setattr(module, name, logged)
    assert len(scan("cor2", (2,), p=5)) == 15
    assert events == [("product_set", 1)] * 15 + [("weight_distributions", 15)]
    events.clear()
    f = get_field(5, 2)
    monkeypatch.setattr(code, "BATCH_CELLS", f.q * f.p)
    assert len(scan("cor2", (2,), p=5)) == 15
    assert events == [("product_set", 1), ("weight_distributions", 1)] * 15


def _alone(inst):
    """inst's report with its set enumerated by itself: the per-instance oracle."""
    predicted = computed = diff = None
    verdict = "hypothesis-not-met"
    if inst.holds:
        predicted, computed = inst.predict(), inst.construct()
        if isinstance(computed, DefiningSet):
            computed = build_code_weights(computed)
        verdict = "match" if predicted == computed else "mismatch"
        if verdict == "mismatch":
            diff = theorems._first_diff(predicted, computed)
    return theorems.TheoremReport(
        inst.claim, inst.params, verdict, tuple(inst.checks), predicted, computed, diff
    )


# every scan family at each of p = 2, 3, 5, 7 that it takes; cor4odd keeps
# no form at p = 2, where every diagonal form has even rank
BATCH_ORACLE_CASES = [
    ("cor1", 2, (3, 4, 5)), ("cor1", 3, (2, 3)), ("cor1", 5, (2,)), ("cor1", 7, (2,)),
    ("cor2", 2, (3, 4)), ("cor2", 3, (2, 3)), ("cor2", 5, (2,)), ("cor2", 7, (2,)),
    ("cor3", 2, (4, 5)), ("cor3", 3, (3,)), ("cor3", 5, (2,)), ("cor3", 7, (2,)),
    ("cor4odd", 3, (2, 3, 4)), ("cor4odd", 5, (2, 3)), ("cor4odd", 7, (2, 3)),
    ("cor4even", 2, (2, 4)), ("cor4even", 3, (2, 3, 4)), ("cor4even", 5, (2, 4)),
    ("cor4even", 7, (2,)),
    ("cor5", 2, (4, 5, 6)), ("thm3", 3, (1,)), ("thm4", 2, (5, 7)), ("thm5", 2, (4, 6)),
]


@pytest.mark.parametrize("token,p,values", BATCH_ORACLE_CASES)
def test_scan_matches_each_instance_enumerated_alone(monkeypatch, token, p, values):
    spec = theorems.CLAIMS[token]
    # chunks of 2 sets over the largest field and more over the smaller
    # ones, so a chunk ends in the middle of a value's instances
    top = spec.degree(max(values))
    monkeypatch.setattr(code, "BATCH_CELLS", 2 * p ** (top + 1))
    reports = scan(token, values, p=p, trials=7, seed=5)
    rng = random.Random(5)
    alone = [
        _alone(inst)
        for value in values
        for inst in spec.family(spec.build, p, value, rng, 7)
    ]
    assert reports and reports == alone, token
    assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in alone]


def test_cor4_verify_evaluates_the_form_once(monkeypatch):
    tables = _record_calls(monkeypatch, sets, "evaluate_quadratic_form")
    rep = theorems.verify("cor4even", get_field(3, 2), ((0, 0, 1),))
    assert rep.verdict == "match"
    assert len(tables) == 1


# ----------------------------------------------------------------------
# report serialization


def test_report_json_shape():
    rep = theorems.verify("thm4", get_field(2, 5))
    d = rep.to_json_dict()
    assert d["claim"] == "thm4"
    assert d["verdict"] == "match"
    assert "elapsed_s" not in d
    assert d["first_diff"] is None
    assert d["computed"]["weights"] == [
        {"w": 4, "count": 10}, {"w": 6, "count": 16}, {"w": 8, "count": 5},
    ]


def test_claim_tokens_are_stable():
    assert set(theorems.CLAIMS) == {
        "thm1", "thm1prop", "cor1", "cor2", "thm2", "cor3", "cor4odd", "cor4even",
        "cor5", "thm3", "thm4", "thm5",
    }
    assert all(token == spec.token for token, spec in theorems.CLAIMS.items())


def _verify_cases():
    """(token, field, arg, the claim its report names): one instance per
    CLAIMS row, plus the cor4 forms verified under the other cor4 token."""
    from dscodes import spectra

    f9, f27, f32 = get_field(3, 2), get_field(3, 3), get_field(2, 5)
    return [
        ("thm1", f9, ((1, 2), sets.simplex_coset_reps(f9)), "thm1"),
        ("thm1prop", f9, None, "thm1prop"),
        ("cor1", f9, None, "cor1"),
        ("cor2", f9, ((1, 2), sets.simplex_coset_reps(f9)), "cor2"),
        ("thm2", f32, theorems._split_off_rest(sets.tr_cubic_set(f32)), "thm2"),
        ("cor3", f32, sets.tr_cubic_set(f32), "cor3"),
        ("cor4odd", f27, ((1, 0, 1),), "cor4odd"),
        ("cor4even", f9, ((0, 0, 1),), "cor4even"),
        # the form's rank picks the claim, whichever token it came in under
        ("cor4odd", f9, ((0, 0, 1),), "cor4even"),
        ("cor4even", f27, ((1, 0, 1),), "cor4odd"),
        ("cor5", f32, spectra.tr_cubic_table(f32), "cor5"),
        ("thm3", None, 1, "thm3"),
        ("thm3", None, 0, "thm3"),
        ("thm4", f32, None, "thm4"),
        ("thm5", get_field(2, 4), None, "thm5"),
    ]


# (p, values) per scan family; cor4 over GF(9) and GF(81) builds forms of both ranks
SCAN_CASES = {
    "cor1": (3, (2, 3)),
    "cor2": (3, (2,)),
    "cor3": (2, (4,)),
    "cor4odd": (3, (2, 3, 4)),
    "cor4even": (3, (2, 3, 4)),
    "cor5": (2, (4, 5)),
    "thm3": (3, (-1, 1, 2)),
    "thm4": (2, (3, 4, 5)),
    "thm5": (2, (4, 5, 6)),
}


def test_every_report_names_a_claims_token():
    cases = _verify_cases()
    assert {token for token, *_ in cases} == set(theorems.CLAIMS)
    for token, field, arg, claim in cases:
        rep = theorems.verify(token, field, arg)
        assert rep.to_json_dict()["claim"] == claim, token
    assert set(SCAN_CASES) == {t for t, s in theorems.CLAIMS.items() if s.family}
    for token, (p, values) in SCAN_CASES.items():
        reports = scan(token, values, p=p, trials=3)
        assert reports, token
        # a scan family keeps only the instances that are its own claim's
        assert {type(r.claim) for r in reports} == {str}
        assert {r.to_json_dict()["claim"] for r in reports} == {token}


# ----------------------------------------------------------------------
# cor5 read off the spectrum as one array


def _boolean_oracle(spectrum):
    """predict_boolean_complement as a loop over w, one value at a time."""
    f, n_f = spectrum.field, spectrum.n_f
    counts = {0: 1}
    for w in range(1, f.q):
        wt, rem = divmod(2 * (f.q - n_f) - int(spectrum.values[w]), 4)
        if rem:
            raise ArithmeticError(f"weight formula not divisible by 4 at w = {w}")
        if wt <= 0:
            raise ArithmeticError(f"nonpositive predicted weight at w = {w}")
        counts[wt] = counts.get(wt, 0) + 1
    return WeightDistribution.from_counts(p=2, m=f.m, n=f.q - n_f - 1, k=f.m, counts=counts)


def test_boolean_prediction_matches_scalar_oracle():
    import numpy as np

    from dscodes import spectra

    rng = random.Random(5)
    seen = 0
    for m in (4, 5, 6, 7):
        f = get_field(2, m)
        for _ in range(12):
            table = np.array([0] + [rng.randint(0, 1) for _ in range(f.q - 1)])
            spectrum = spectra.walsh_transform(f, table)
            try:
                expected = _boolean_oracle(spectrum)
            except ArithmeticError as exc:
                with pytest.raises(ArithmeticError, match=str(exc)):
                    theorems.predict_boolean_complement(spectrum)
                continue
            got = theorems.predict_boolean_complement(spectrum)
            assert got == expected
            assert all(type(w) is int and type(a) is int for w, a in got.counts.items())
            seen += 1
    assert seen > 0


@pytest.mark.parametrize("patch, message", [
    # q = 32, n_f = 8: the weight at w is (48 - W(w)) / 4
    ({3: 1, 5: 64}, "not divisible by 4 at w = 3"),
    ({2: 64, 6: 1}, "nonpositive predicted weight at w = 2"),
    ({4: 52, 6: 2}, "nonpositive predicted weight at w = 4"),
])
def test_boolean_prediction_names_the_first_bad_w(patch, message):
    from types import SimpleNamespace

    import numpy as np

    # a stand-in spectrum: only field, n_f and values are read
    f = get_field(2, 5)
    values = np.zeros(f.q, dtype=np.int64)
    for w, v in patch.items():
        values[w] = v
    spectrum = SimpleNamespace(field=f, n_f=8, values=values)
    with pytest.raises(ArithmeticError, match=message):
        theorems.predict_boolean_complement(spectrum)
    with pytest.raises(ArithmeticError, match=message):
        _boolean_oracle(spectrum)
