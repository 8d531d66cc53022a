import random

import numpy as np
import pytest

from dscodes import sets
from dscodes.code import DefiningSet, build_code_weights
from dscodes.field import alternate_field, get_field


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
    with pytest.raises(ValueError):
        sets.product_set((0, 1), sets.simplex_coset_reps(gf9))
    with pytest.raises(ValueError):
        sets.product_set((), sets.simplex_coset_reps(gf9))


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
        assert sets.quadratic_form_rank(f, ((0, 0, 1),)) == m


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
        ki, kj, neg = (k + i) % m, (k + j) % m, f.neg(c)
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
            forms.append(((0, 1, a), (1, 0, f.neg(a))))  # B vanishes: rank 0
        for terms in forms:
            r = sets.quadratic_form_rank(f, terms)
            assert r == _rank_by_exhaustive_scan(f, terms), (p, m, terms)
            seen.add((p, "zero" if r == 0 else "full" if r == m else "between"))
    # every p meets rank 0, a rank strictly between 0 and m, and rank m
    assert {(p, kind) for p in (2, 3, 5, 7) for kind in ("zero", "between", "full")} <= seen


def test_e_to_1_matches_fiber_profile(gf27):
    terms = ((0, 0, 1),)  # x^2 is 2-to-1 on units
    e = sets.is_e_to_1(gf27, terms)
    assert e == 2
    image, fibers = sets.quadratic_form_image(gf27, terms)
    assert image.n == (gf27.q - 1) // 2
    assert {count for v, count in fibers.items() if v != 0} == {2}
    assert 0 not in fibers  # the square map has no zero on the units


def test_gold_form_over_gf81_is_4_to_1():
    f = get_field(3, 4)
    terms = ((1, 0, 1),)  # x^{3+1}
    assert sets.is_e_to_1(f, terms) == 4
    image, _ = sets.quadratic_form_image(f, terms)
    assert image.n == (f.q - 1) // 4


def test_vanishing_form_is_not_e_to_1(gf9):
    # x^{p^2} - x style collapse: over GF(9), x^{3*3} = x so the form
    # x^{3^1 + 3^1} - x^2 = x^6 - x^2 vanishes nowhere useful; instead
    # test a form with a zero on the units
    f = get_field(3, 2)
    # f(x) = x^2 + 2 x^{3+1}: check the helper rejects it when it
    # vanishes at a unit or has uneven fibers
    terms = ((0, 0, 1), (1, 0, 2))
    e = sets.is_e_to_1(f, terms)
    values = sets.evaluate_quadratic_form(f, terms)
    vanishes = bool(np.any(values[1:] == 0))
    if vanishes:
        assert e is None


def test_hkm_exponent_values():
    assert sets.hkm_exponent(1) == 7
    assert sets.hkm_exponent(2) == 73
    assert sets.hkm_exponent(3) == 703


def test_hkm_set_h1_size():
    ds = sets.hkm_set(1)
    assert ds.field.q == 27
    assert ds.n == 4
    assert 0 not in ds.elements


def test_hkm_set_rejects_even_h():
    with pytest.raises(ValueError):
        sets.hkm_set(2)
    assert sets.hkm_set(2, allow_even=True).field.q == 3**6


def test_tr_cubic_set_sizes():
    # closed forms cross-checked internally against the character sum
    expected = {4: 11, 5: 11, 6: 31, 7: 71, 8: 111}
    for m, n in expected.items():
        assert sets.tr_cubic_set(m).n == n


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
        moved = sets.transport(ds, g)
        assert moved.field is g
        assert build_code_weights(ds) == build_code_weights(moved)


def test_transport_roundtrip(gf27):
    g = alternate_field(gf27)
    ds = DefiningSet(gf27, (0, 1, 5, 7))
    back = sets.transport(sets.transport(ds, g), gf27)
    assert set(back.elements) == set(ds.elements)


def test_embedding_root_respects_minimal_polynomial(gf16):
    g = alternate_field(gf16)
    root = sets.embedding_root(gf16, g)
    # the root must satisfy the source modulus inside the target field
    acc = 0
    for i, c in enumerate(gf16.modulus):
        acc = g.add(acc, g.mul(c % g.p, g.pow(root, i)))
    assert acc == 0
