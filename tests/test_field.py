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


def test_modulus_is_first_listed_irreducible():
    for p, m in FIELDS:
        assert smallest_irreducible(p, m) == next(iter_irreducible_moduli(p, m))


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
