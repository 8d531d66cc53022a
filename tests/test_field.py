import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dscodes.field import (
    MAX_Q,
    Field,
    alternate_field,
    get_field,
    iter_irreducible_moduli,
    poly_is_irreducible,
    smallest_irreducible,
)

FIELDS = [(2, 1), (2, 4), (2, 5), (3, 1), (3, 3), (5, 2), (7, 2)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def f(request):
    p, m = request.param
    return get_field(p, m)


elem = st.integers(min_value=0, max_value=10**9)


def pick(f, raw):
    return raw % f.q


@settings(max_examples=60, deadline=None)
@given(elem, elem, elem)
def test_ring_axioms(f, ra, rb, rc):
    a, b, c = pick(f, ra), pick(f, rb), pick(f, rc)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, 0) == a
    assert f.mul(a, 1) == a
    assert f.add(a, f.neg(a)) == 0


@settings(max_examples=40, deadline=None)
@given(elem)
def test_inverses_and_powers(f, ra):
    a = pick(f, ra)
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1
    assert f.pow(a, f.q) == a  # q-th power is the identity map


@settings(max_examples=60, deadline=None)
@given(elem, elem)
def test_trace_is_additive(f, ra, rb):
    a, b = pick(f, ra), pick(f, rb)
    assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % f.p


def test_trace_matches_definition(f):
    for x in range(f.q):
        assert f.trace(x) == f.trace_by_definition(x)


def test_trace_is_balanced(f):
    counts = [0] * f.p
    for x in range(f.q):
        counts[f.trace(x)] += 1
    assert counts == [f.q // f.p] * f.p


def test_trace_commutes_with_frobenius(f):
    for x in range(min(f.q, 64)):
        assert f.trace(f.frobenius(x)) == f.trace(x)


def test_log_antilog_roundtrip(f):
    for x in range(1, f.q):
        assert f.antilog(f.dlog(x)) == x
    assert f.dlog(f.generator) == 1 or f.q == 2


def test_generator_has_full_order(f):
    seen = set()
    x = 1
    for _ in range(f.q - 1):
        seen.add(x)
        x = f.mul(x, f.generator)
    assert len(seen) == f.q - 1
    assert x == 1


def test_known_moduli():
    # hand-checked: each has no roots and no lower-degree irreducible factor
    assert get_field(2, 1).modulus == (0, 1)
    assert get_field(2, 2).modulus == (1, 1, 1)
    assert get_field(2, 3).modulus == (1, 0, 1, 1)
    assert get_field(3, 2).modulus == (1, 0, 1)
    assert get_field(2, 4).modulus == (1, 0, 0, 1, 1)


def _brute_force_moduli(p, m):
    # every monic candidate of degree m, coefficient vectors in lexicographic
    # order with the constant term compared first
    candidates = (vec + (1,) for vec in itertools.product(range(p), repeat=m))
    return [f for f in candidates if poly_is_irreducible(f, p)]


def test_modulus_is_first_listed_irreducible():
    for p, m in [(2, m) for m in range(1, 7)] + [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)]:
        listed = list(iter_irreducible_moduli(p, m))
        assert listed == _brute_force_moduli(p, m), (p, m)
        assert smallest_irreducible(p, m) == listed[0]


def test_irreducibility_checker_rejects_products():
    # (x+1)^2 = x^2 + 2x + 1
    assert not poly_is_irreducible((1, 2, 1), 3)
    # x^2 over GF(2)
    assert not poly_is_irreducible((0, 0, 1), 2)
    assert poly_is_irreducible((1, 1, 1), 2)


def test_get_field_caches():
    assert get_field(3, 3) is get_field(3, 3)


def test_get_field_omitted_and_none_modulus_share_one_entry():
    assert get_field(2, 5) is get_field(2, 5, None)
    assert get_field(2, 3, [1, 1, 0, 1]) is get_field(2, 3, (1, 1, 0, 1))


def test_alternate_field_uses_different_modulus():
    f = get_field(2, 4)
    g = alternate_field(f)
    assert g.modulus != f.modulus
    assert g.q == f.q
    # same abstract field: same trace value multiset
    assert sorted(f.TR) == sorted(g.TR)


def test_size_cap():
    with pytest.raises(ValueError):
        Field(2, MAX_Q.bit_length())


def test_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        get_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        get_field(4, 2)  # p must be prime
    with pytest.raises(ValueError):
        get_field(2, 0)


def test_vector_helpers_match_scalar_ops(f):
    import numpy as np

    xs = np.arange(f.q, dtype=np.int64)
    for c in {0, 1, f.generator, f.q - 1}:
        vec = f.scalar_mul_vec(c, xs)
        for x in range(0, f.q, max(1, f.q // 17)):
            assert int(vec[x]) == f.mul(c, x)


# ----------------------------------------------------------------------
# oracle: the tables from a sequential walk with a naive polynomial product


def _naive_mul(a, b, modulus, p):
    """Product of coefficient tuples (constant term first) modulo the monic modulus."""
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            prod[i + j] += ca * cb
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % p
        for j in range(m):
            prod[i - m + j] -= c * modulus[j]
    return tuple(c % p for c in prod[:m])


def _walk_tables(p, m, modulus):
    """Generator, EXP, LOG, TR and tr_basis by walking powers one product at a time."""
    q = p**m
    one = (1,) + (0,) * (m - 1)
    # the first candidate in lexicographic order (c_0 compared first) whose
    # powers visit every unit
    for g in itertools.product(range(p), repeat=m):
        if not any(g):
            continue
        powers = [one]
        x = _naive_mul(one, g, modulus, p)
        while x != one:
            powers.append(x)
            x = _naive_mul(x, g, modulus, p)
        if len(powers) == q - 1:
            break

    def code(v):
        return sum(c * p**i for i, c in enumerate(v))

    exp = [code(v) for v in powers]
    log = [-1] * q
    for t, e in enumerate(exp):
        log[e] = t
    # Tr(g^t) is the sum of its conjugates g^(t p^i), read off the walk
    tr = [0] * q
    for t in range(q - 1):
        acc = [0] * m
        for i in range(m):
            acc = [(a + c) % p for a, c in zip(acc, powers[t * p**i % (q - 1)])]
        assert not any(acc[1:])  # the trace lies in GF(p)
        tr[exp[t]] = acc[0]
    return code(g), exp, log, tr, tuple(tr[p**i] for i in range(m))


def _assert_tables_match_walk(f):
    generator, exp, log, tr, tr_basis = _walk_tables(f.p, f.m, f.modulus)
    assert f.generator == generator
    assert f.tr_basis == tr_basis
    assert f.EXP.dtype == np.int32 and f.LOG.dtype == np.int32 and f.TR.dtype == np.uint8
    assert f.EXP.tolist() == exp + exp
    assert f.LOG.tolist() == log
    assert f.TR.tolist() == tr
    assert not (f.EXP.flags.writeable or f.LOG.flags.writeable or f.TR.flags.writeable)


WALK_FIELDS = [
    (p, m)
    for p in (2, 3, 5, 7, 11, 13, 251)
    for m in range(1, 13)
    if p**m <= 1 << 12
]


@pytest.mark.parametrize("p, m", WALK_FIELDS, ids=lambda v: str(v))
def test_tables_match_sequential_walk(p, m):
    f = Field(p, m)
    assert f.modulus == _brute_force_moduli(p, m)[0]
    _assert_tables_match_walk(f)


@pytest.mark.parametrize("p, m", [(2, 4), (3, 3), (5, 2)])
def test_tables_match_sequential_walk_under_override(p, m):
    for modulus in _brute_force_moduli(p, m)[:3]:
        f = Field(p, m, modulus)
        assert f.modulus == modulus
        _assert_tables_match_walk(f)


def test_non_primitive_generator_is_refused(monkeypatch):
    f = Field(3, 2)
    short = [x for x in range(1, f.q) if math.gcd(int(f.LOG[x]), f.q - 1) > 1]
    assert short
    for g in short:
        monkeypatch.setattr(Field, "_find_generator", lambda self, g=g: g)
        with pytest.raises(AssertionError, match="order"):
            Field(3, 2)
