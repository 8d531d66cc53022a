import random
import tracemalloc

import numpy as np
import pytest

from dscodes import sets, spectra
from dscodes.code import DefiningSet, build_code_weights
from dscodes.field import get_field
from moduli import alternate_field, embedding_root, transport


def test_simplex_size_and_projective_property(gf27):
    ds = sets.simplex_coset_reps(gf27)
    assert ds.n == (gf27.q - 1) // (gf27.p - 1)
    reps = set()
    for d in ds.elements:
        rep = min(gf27.mul(lam, d) for lam in range(1, gf27.p))
        reps.add(rep)
    assert len(reps) == ds.n  # no two elements are GF(p)-proportional


def test_simplex_covers_all_units_up_to_scalars(gf9):
    ds = sets.simplex_coset_reps(gf9)
    covered = {gf9.mul(lam, d) for d in ds.elements for lam in range(1, gf9.p)}
    assert covered == set(range(1, gf9.q))


def test_product_set_complete_flag(gf9):
    base = sets.simplex_coset_reps(gf9)
    prod, complete = sets.product_set((1, 2), base)
    assert complete
    assert prod.n == 2 * base.n
    # D closed under scalar 2 collapses the products
    closed = DefiningSet(gf9, (1, 2))
    prod2, complete2 = sets.product_set((1, 2), closed)
    assert not complete2
    assert prod2.n < 2 * closed.n


def test_product_set_rejects_bad_digits(gf9):
    base = sets.simplex_coset_reps(gf9)
    for bad in (0, 3, -1):
        with pytest.raises(ValueError, match=rf"E must sit inside GF\(p\)\*, got {bad}"):
            sets.product_set((1, bad), base)
    with pytest.raises(ValueError, match="E must be nonempty"):
        sets.product_set((), base)
    # a fractional digit is refused, not truncated to E = {1}
    for bad in ((1.5,), ("1",)):
        with pytest.raises(ValueError, match="GF\\(p\\)\\*"):
            sets.product_set(bad, base)
    assert sets.product_set(np.array([2, 1], dtype=np.uint8), base) == sets.product_set((1, 2), base)


def test_complement_involution(gf16):
    rng = random.Random(5)
    for _ in range(10):
        els = tuple(rng.sample(range(1, gf16.q), rng.randint(1, 10)))
        ds = DefiningSet(gf16, els)
        comp = sets.complement(ds)
        assert 0 in comp.elements
        assert set(comp.elements) == set(range(gf16.q)) - set(els)
        back = sets.complement(comp)
        assert set(back.elements) == set(els)


def test_union_disjoint(gf16):
    a = DefiningSet(gf16, (1, 2, 3))
    b = DefiningSet(gf16, (4, 5))
    u = sets.union_disjoint(a, b)
    assert set(u.elements) == {1, 2, 3, 4, 5}
    with pytest.raises(ValueError):
        sets.union_disjoint(a, DefiningSet(gf16, (3, 4)))


def test_quadratic_form_evaluation_matches_pointwise(gf27):
    terms = ((1, 0, 2), (0, 0, 1))  # 2 x^{p+1} + x^2
    values = sets.evaluate_quadratic_form(gf27, terms)
    for x in range(gf27.q):
        expected = 0
        for i, j, a in terms:
            power = gf27.mul(gf27.pow(x, gf27.p**i), gf27.pow(x, gf27.p**j))
            expected = gf27.add(expected, gf27.mul(a, power))
        assert int(values[x]) == expected


def test_quadratic_form_rank_of_square_is_full():
    for p, m in [(3, 2), (3, 3), (5, 2)]:
        f = get_field(p, m)
        assert sets.quadratic_form_rank(f, sets.evaluate_quadratic_form(f, ((0, 0, 1),))) == m


def _rank_by_exhaustive_scan(f, terms):
    # oracle: x is in the radical iff f(x+z) - f(x) - f(z) = 0 for every z
    table = sets.evaluate_quadratic_form(f, terms)
    xs = np.arange(f.q, dtype=np.int64)
    radical = 0
    for x in range(f.q):
        lhs = table[f.add_vec(np.full(f.q, x, dtype=np.int64), xs)]
        rhs = f.add_vec(np.full(f.q, int(table[x]), dtype=np.int64), table)
        radical += bool(np.array_equal(lhs, rhs))
    r = f.m
    while radical > 1:
        assert radical % f.p == 0
        radical //= f.p
        r -= 1
    return r


RANK_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3),
               (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)]


def _random_form(rng, f):
    m = f.m
    terms = [
        (rng.randrange(m), rng.randrange(m), rng.randrange(1, f.q))
        for _ in range(rng.randint(1, 3))
    ]
    if m == 1 or rng.random() < 0.5:
        return tuple(terms)
    # compose with L(x) = x^(p^k) - x, whose kernel GF(p^gcd(k, m)) lies in
    # the radical: c (L x)^(p^i + p^j) expands into four terms
    k = rng.randrange(1, m)
    composed = []
    for i, j, c in terms:
        ki, kj, neg = (k + i) % m, (k + j) % m, f.mul(f.p - 1, c)
        composed += [(ki, kj, c), (ki, j, neg), (i, kj, neg), (i, j, c)]
    return tuple(composed)


def test_quadratic_form_rank_matches_exhaustive_scan():
    rng = random.Random(20)
    seen = set()
    for p, m in RANK_FIELDS:
        f = get_field(p, m)
        forms = [_random_form(rng, f) for _ in range(8)]
        if m >= 2:
            a = rng.randrange(1, f.q)
            forms.append(((0, 1, a), (1, 0, f.mul(f.p - 1, a))))  # B vanishes: rank 0
        for terms in forms:
            r = sets.quadratic_form_rank(f, sets.evaluate_quadratic_form(f, terms))
            assert r == _rank_by_exhaustive_scan(f, terms), (p, m, terms)
            seen.add((p, "zero" if r == 0 else "full" if r == m else "between"))
    # every p meets rank 0, a rank strictly between 0 and m, and rank m
    assert {(p, kind) for p in (2, 3, 5, 7) for kind in ("zero", "between", "full")} <= seen


def test_e_to_1_matches_fiber_profile(gf27):
    terms = ((0, 0, 1),)  # x^2 is 2-to-1 on units
    e = sets.is_e_to_1(sets.evaluate_quadratic_form(gf27, terms))
    assert e == 2
    image = sets.quadratic_form_image(gf27, terms)
    assert image.n == (gf27.q - 1) // 2
    assert not image.mask[0]  # the square map has no zero on the units
    # x^2 + 1: still 2-to-1 with no zero on the units (-1 is a non-square
    # in GF(27)), but f(0) = 1
    assert sets.is_e_to_1(gf27.add_vec(sets.evaluate_quadratic_form(gf27, terms), 1)) is None


def test_gold_form_over_gf81_is_4_to_1():
    f = get_field(3, 4)
    terms = ((1, 0, 1),)  # x^{3+1}
    assert sets.is_e_to_1(sets.evaluate_quadratic_form(f, terms)) == 4
    image = sets.quadratic_form_image(f, terms)
    assert image.n == (f.q - 1) // 4


def test_vanishing_form_is_not_e_to_1(gf9):
    # x^{p^2} - x style collapse: over GF(9), x^{3*3} = x so the form
    # x^{3^1 + 3^1} - x^2 = x^6 - x^2 vanishes nowhere useful; instead
    # test a form with a zero on the units
    f = get_field(3, 2)
    # f(x) = x^2 + 2 x^{3+1}: check the helper rejects it when it
    # vanishes at a unit or has uneven fibers
    terms = ((0, 0, 1), (1, 0, 2))
    values = sets.evaluate_quadratic_form(f, terms)
    e = sets.is_e_to_1(values)
    vanishes = bool(np.any(values[1:] == 0))
    if vanishes:
        assert e is None


def test_hkm_exponent_values():
    assert sets.hkm_exponent(1) == 7
    assert sets.hkm_exponent(2) == 73
    assert sets.hkm_exponent(3) == 703


def test_hkm_set_h1_size():
    ds = sets.hkm_set(1, get_field(3, 3))
    assert ds.field.q == 27
    assert ds.n == 4
    assert 0 not in ds.elements


def test_hkm_set_rejects_even_h():
    with pytest.raises(ValueError):
        sets.hkm_set(2, get_field(3, 6))


def test_tr_cubic_set_sizes():
    expected = {4: 11, 5: 11, 6: 31, 7: 71, 8: 111}
    for m, n in expected.items():
        assert sets.tr_cubic_set(get_field(2, m)).n == n
    # |D| = n0 - 1 with n0 = q/2 + S(1, 1)/2 the zeros of Tr(x^3 + x)
    for m in range(2, 15):
        ds = sets.tr_cubic_set(get_field(2, m))
        s11 = spectra.weil_sum(ds.field, 1, 1)
        assert s11 % 2 == 0, m
        assert ds.n == ds.field.q // 2 + s11 // 2 - 1, m


def test_boolean_support(gf16):
    table = np.zeros(gf16.q, dtype=np.int64)
    table[[3, 7, 9]] = 1
    ds = sets.boolean_support(gf16, table)
    assert set(ds.elements) == {3, 7, 9}


def test_transport_preserves_weight_distribution(gf16):
    g = alternate_field(gf16)
    rng = random.Random(9)
    for _ in range(8):
        els = tuple(rng.sample(range(gf16.q), rng.randint(2, 9)))
        ds = DefiningSet(gf16, els)
        moved = transport(ds, g)
        assert moved.field is g
        assert build_code_weights(ds) == build_code_weights(moved)


def test_transport_roundtrip(gf27):
    g = alternate_field(gf27)
    ds = DefiningSet(gf27, (0, 1, 5, 7))
    back = transport(transport(ds, g), gf27)
    assert set(back.elements) == set(ds.elements)


def test_embedding_root_respects_minimal_polynomial(gf16):
    g = alternate_field(gf16)
    root = embedding_root(gf16, g)
    # the root must satisfy the source modulus inside the target field
    acc = 0
    for i, c in enumerate(gf16.modulus):
        acc = g.add(acc, g.mul(c % g.p, g.pow(root, i)))
    assert acc == 0


# ----------------------------------------------------------------------
# the array constructors against the scalar code they replaced, kept
# here as oracles: every set is compared in ascending order, so order
# and membership are checked together


def _canonical(f, elements):
    return sorted(set(elements))


def _product_oracle(e_digits, ds):
    f = ds.field
    prods = {f.mul(e, d) for e in e_digits for d in ds.elements.tolist()}
    return _canonical(f, prods), len(prods) == len(set(e_digits)) * ds.n


def _scalar_form_values(f, terms):
    values = [0] * f.q
    for x in range(f.q):
        for i, j, a in terms:
            power = f.mul(f.pow(x, f.p**i), f.pow(x, f.p**j))
            values[x] = f.add(values[x], f.mul(a, power))
    return values


def _hkm_oracle(h, f):
    q, ell = f.q, sets.hkm_exponent(h)
    els = []
    for t in range((q - 1) // 2):
        x = f.antilog(t)
        if f.trace(f.add(x, f.antilog(t * ell % (q - 1)))) == 0:
            els.append(x)
    return _canonical(f, els)


def _tr_cubic_oracle(f):
    return _canonical(f, [x for x in f.units() if f.trace(f.add(f.pow(x, 3), x)) == 0])


ORACLE_FIELDS = [(2, 3), (2, 6), (2, 9), (3, 2), (3, 5), (5, 2), (5, 4), (7, 3),
                 (11, 2), (13, 2)]


def _seeded_sets(f, rng, count):
    return [
        DefiningSet(f, rng.sample(range(f.q), rng.randint(1, f.q - 1)), label="random")
        for _ in range(count)
    ]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_complement_and_union_match_scalar_oracle(p, m):
    f = get_field(p, m)
    rng = random.Random(41 * p + m)
    for ds in _seeded_sets(f, rng, 4):
        comp = sets.complement(ds)
        assert comp.elements.tolist() == _canonical(f, set(range(f.q)) - set(ds.elements.tolist()))
        back = sets.complement(comp)
        assert back == ds
        # split the set in two halves: disjoint, so the union is the set again
        els = ds.elements.tolist()
        rng.shuffle(els)
        cut = rng.randint(1, max(1, len(els) - 1))
        if cut < len(els):
            a, b = DefiningSet(f, els[:cut]), DefiningSet(f, els[cut:])
            assert sets.union_disjoint(a, b).elements.tolist() == _canonical(f, els)
            with pytest.raises(ValueError, match=rf"overlap in \[{min(els[:cut])}\]"):
                sets.union_disjoint(a, DefiningSet(f, [min(els[:cut])]))
    with pytest.raises(ValueError):
        sets.complement(DefiningSet(f, range(f.q)))


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_product_set_matches_scalar_oracle(p):
    rng = random.Random(90 + p)
    flags = set()
    for m in (1, 2, 3):
        f = get_field(p, m)
        # random sets, and sets closed under a scalar so some products collapse
        bases = _seeded_sets(f, rng, 3)
        closed = {1, f.mul(2, 1)} | {f.mul(2, d) for d in (5 % f.q, 7 % f.q) if d}
        bases.append(DefiningSet(f, sorted(closed), label="closed"))
        # 0 is its own product with every digit
        bases.append(DefiningSet(f, [0] + rng.sample(range(1, f.q), min(5, f.q - 1))))
        for ds in bases:
            e_digits = tuple(rng.sample(range(1, p), rng.randint(1, p - 1)))
            repeated = [rng.randrange(1, p) for _ in range(2 * p)]  # unsorted, with repeats
            for digits in (e_digits, (1, 2), repeated):
                prod, complete = sets.product_set(digits, ds)
                want, want_complete = _product_oracle(digits, ds)
                assert prod.elements.tolist() == want, (p, m, digits)
                assert complete == want_complete, (p, m, digits)
                flags.add(complete)
    assert flags == {True, False}


def _e_oracle(values):
    fibers = {v: values[1:].count(v) for v in set(values[1:])}
    if values[0] != 0 or 0 in fibers or len(set(fibers.values())) != 1:
        return None
    return set(fibers.values()).pop()


def test_quadratic_form_image_matches_scalar_oracle():
    rng = random.Random(77)
    seen_vanishing = False
    seen_e = set()
    for p, m in RANK_FIELDS + [(11, 2), (13, 2)]:
        f = get_field(p, m)
        for terms in [_random_form(rng, f) for _ in range(4)] + [((0, 0, 1),)]:
            values = _scalar_form_values(f, terms)
            e = sets.is_e_to_1(sets.evaluate_quadratic_form(f, terms))
            assert e == _e_oracle(values), (p, m, terms)
            seen_e.add(e is None)
            want = _canonical(f, set(values[1:]) - {0})
            if not want:
                seen_vanishing = True
                with pytest.raises(ValueError):
                    sets.quadratic_form_image(f, terms)
                continue
            image = sets.quadratic_form_image(f, terms)
            assert image.elements.tolist() == want, (p, m, terms)
    assert seen_vanishing and seen_e == {True, False}
    # numpy integers are terms; a fractional index is refused, not truncated
    f = get_field(3, 3)
    assert sets.quadratic_form_image(f, [np.array([1, 0, 1], dtype=np.int8)]).label == "qf:1,0,1"
    with pytest.raises(ValueError, match="three integers"):
        sets.quadratic_form_image(f, ((1.5, 0, 1),))


@pytest.mark.parametrize(
    "p,m,terms",
    [(3, 11, ((0, 0, 1),)), (3, 11, ((0, 0, 1), (1, 0, 2))), (2, 16, ((1, 0, 1),)), (5, 7, ((1, 0, 1),))],
)
def test_quadratic_form_readers_hold_at_most_24_bytes_an_element(p, m, terms):
    # the value table is counted and scattered in place: no dict over its
    # values, no int64 copy of it
    f = get_field(p, m)
    for read in (
        lambda: sets.quadratic_form_image(f, terms),
        lambda: sets.is_e_to_1(sets.evaluate_quadratic_form(f, terms)),
    ):
        read()  # a table the field builds on first use is built untraced
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * f.q, (p, m, terms, peak / f.q)


@pytest.mark.parametrize("h", (1, 3))
def test_hkm_set_matches_scalar_oracle(h):
    ds = sets.hkm_set(h, get_field(3, 3 * h))
    assert ds.elements.tolist() == _hkm_oracle(h, ds.field)


@pytest.mark.parametrize("m", range(2, 15))
def test_tr_cubic_set_matches_scalar_oracle(m):
    ds = sets.tr_cubic_set(get_field(2, m))
    assert ds.elements.tolist() == _tr_cubic_oracle(ds.field)


def test_boolean_support_matches_scalar_oracle():
    rng = random.Random(5)
    for m in range(1, 9):
        f = get_field(2, m)
        table = np.array([rng.randint(0, 1) for _ in range(f.q)], dtype=np.int64)
        table[rng.randrange(f.q)] = 1
        ds = sets.boolean_support(f, table)
        assert ds.elements.tolist() == _canonical(f, [x for x in range(f.q) if table[x]])
