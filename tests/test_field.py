import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dscodes import field
from dscodes.code import DefiningSet
from dscodes.field import (
    MAX_P,
    MAX_Q,
    Field,
    get_field,
    is_prime,
    iter_irreducible_moduli,
    poly_is_irreducible,
    rank_mod_p,
    smallest_irreducible,
)
from dscodes.sets import union_disjoint
from moduli import alternate_field

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
    assert f.add(a, f.mul(f.p - 1, a)) == 0  # -1 has element code p - 1


@settings(max_examples=40, deadline=None)
@given(elem)
def test_inverses_and_powers(f, ra):
    a = pick(f, ra)
    if a != 0:
        assert f.mul(a, f.pow(a, f.q - 2)) == 1
        assert f.pow(a, f.q - 1) == 1
    assert f.pow(a, f.q) == a  # q-th power is the identity map


@settings(max_examples=60, deadline=None)
@given(elem, elem)
def test_trace_is_additive(f, ra, rb):
    a, b = pick(f, ra), pick(f, rb)
    assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % f.p


def _trace_by_definition(f, x):
    """Sum of the m Frobenius conjugates, reduced to a base field digit."""
    acc = x
    t = x
    for _ in range(f.m - 1):
        t = f.pow(t, f.p)
        acc = f.add(acc, t)
    if acc >= f.p:
        raise AssertionError("trace left the base field")
    return acc


def test_trace_matches_definition(f):
    for x in range(f.q):
        assert f.trace(x) == _trace_by_definition(f, x)


def test_trace_is_balanced(f):
    counts = [0] * f.p
    for x in range(f.q):
        counts[f.trace(x)] += 1
    assert counts == [f.q // f.p] * f.p


def test_trace_commutes_with_frobenius(f):
    for x in range(min(f.q, 64)):
        assert f.trace(f.pow(x, f.p)) == f.trace(x)


def test_log_antilog_roundtrip(f):
    for x in range(1, f.q):
        assert f.antilog(int(f.LOG[x])) == x
    assert int(f.LOG[f.generator]) == 1 or f.q == 2


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


# ----------------------------------------------------------------------
# oracle: irreducibility by trial division against every monic polynomial
# of degree at most m/2, by polynomial long division


def _poly_mod(num, den, p):
    """Remainder of num by the monic den, coefficient lists constant term first."""
    r = list(num)
    dd = len(den) - 1
    for i in range(len(r) - 1, dd - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            for j in range(dd):
                r[i - dd + j] = (r[i - dd + j] - c * den[j]) % p
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r


def _irreducible_by_trial_division(f, p):
    d = len(f) - 1
    return not any(
        _poly_mod(f, list(g) + [1], p) == [0]
        for e in range(1, d // 2 + 1)
        for g in itertools.product(range(p), repeat=e)
    )


def _smallest_by_trial_division(p, m):
    # for m >= 2 a candidate with constant term 0 is divisible by X
    c0 = range(p) if m == 1 else range(1, p)
    for vec in itertools.product(c0, *[range(p)] * (m - 1)):
        if _irreducible_by_trial_division(vec + (1,), p):
            return vec + (1,)


RABIN_DEGREES = {2: range(1, 9), 3: range(1, 6), 5: range(2, 4), 7: range(2, 4), 11: (2,)}


@pytest.mark.parametrize("p", RABIN_DEGREES)
def test_rabin_test_matches_trial_division(p):
    for m in RABIN_DEGREES[p]:
        for vec in itertools.product(range(p), repeat=m):
            f = vec + (1,)
            assert poly_is_irreducible(f, p) == _irreducible_by_trial_division(f, p), f


def test_rabin_test_refuses_non_monic_and_constant_input():
    assert not poly_is_irreducible((1, 2), 3)  # 2X + 1
    assert not poly_is_irreducible((1, 1, 0), 2)
    assert not poly_is_irreducible((1,), 2)
    assert not poly_is_irreducible((2,), 3)


MODULUS_FIELDS = (
    [(2, m) for m in range(1, 25)] + [(3, m) for m in range(1, 16)]
    + [(5, m) for m in range(1, 11)] + [(7, m) for m in range(1, 9)] + [(251, m) for m in (1, 2, 3)]
)


def test_smallest_irreducible_matches_trial_division():
    for p, m in MODULUS_FIELDS:
        assert smallest_irreducible(p, m) == _smallest_by_trial_division(p, m), (p, m)


def _kernel_size(a, p):
    """|{x : x a = 0 mod p}| by enumerating every x in GF(p)^rows."""
    xs = np.array(list(itertools.product(range(p), repeat=a.shape[0])), dtype=np.int64)
    return int(np.count_nonzero(~(xs @ a % p).any(axis=1)))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_rank_mod_p_matches_kernel_count(p):
    rng = np.random.default_rng(p)
    max_rows = {2: 8, 3: 5, 5: 4, 7: 3, 251: 2}[p]
    mats = []
    for rows in range(1, max_rows + 1):
        for cols in (1, rows, rows + 2):
            mats.append(np.zeros((rows, cols), dtype=np.int64))
            mats.append(np.hstack([np.eye(rows, dtype=np.int64), rng.integers(0, p, (rows, cols))]))
            mats += [rng.integers(0, p, (rows, cols)) for _ in range(3)]
            if rows >= 2:
                a = rng.integers(0, p, (rows, cols))
                a[-1] = a[0]
                mats.append(a)
    kinds = set()
    for a in mats:
        r = rank_mod_p(a, p)
        assert _kernel_size(a, p) == p ** (a.shape[0] - r), a
        kinds.add("zero" if r == 0 else "full" if r == a.shape[0] else "deficient")
    assert kinds == {"zero", "deficient", "full"}


def test_get_field_caches():
    assert get_field(3, 3) is get_field(3, 3)


def test_get_field_omitted_and_none_modulus_share_one_entry():
    assert get_field(2, 5) is get_field(2, 5, None)
    assert get_field(2, 3, [1, 1, 0, 1]) is get_field(2, 3, (1, 1, 0, 1))


def test_get_field_keys_on_the_concrete_modulus():
    # the default modulus of GF(2^3) is X^3 + X^2 + 1, (1, 0, 1, 1) constant term first
    f = get_field(2, 3)
    assert f.modulus == (1, 0, 1, 1)
    for spelling in (None, (1, 0, 1, 1), [1, 0, 1, 1], (3, 2, 1, 1), np.array([1, 0, 1, 1])):
        assert get_field(2, 3, spelling) is f, spelling
    assert get_field(2, 3, (1, 1, 0, 1)) is not f
    # DefiningSet.__eq__ and union_disjoint compare fields by identity
    a = DefiningSet(f, [1, 2])
    b = DefiningSet(get_field(2, 3, (1, 0, 1, 1)), [3])
    assert union_disjoint(a, b).elements.tolist() == sorted(a.elements.tolist() + [3])


@pytest.mark.parametrize(
    "args, message",
    [
        ((4, 2), "p must be a prime"),
        ((4, 2, (1, 1, 1)), "p must be a prime"),
        ((0, 2, (1, 1, 1)), "p must be a prime"),
        ((2, 0, (1,)), "m must be >= 1"),
        ((2, 25, (1,) * 26), "exceeds the table cap"),
        ((2, 3, (1, 0, 1)), "monic of degree m"),
        ((2, 3, (1, 0, 1, 0)), "monic of degree m"),
        ((2, 2, (1, 0, 1)), "reducible"),
        ((3, 2, (1, 2, 1)), "reducible"),
    ],
)
def test_get_field_refuses_what_field_refuses(args, message):
    with pytest.raises(ValueError, match=message):
        Field(*args)
    with pytest.raises(ValueError, match=message):
        get_field(*args)


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


def test_size_cap_refuses_a_huge_degree_before_any_power(monkeypatch):
    def boom(*args):
        raise AssertionError("a modulus search started")

    monkeypatch.setattr("dscodes.field.smallest_irreducible", boom)
    with pytest.raises(ValueError, match="exceeds"):
        Field(2, 10**12)


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


def test_power_table_matches_scalar_pow(f, monkeypatch):
    # one block, and blocks of 3 exponents, which q - 1 need not divide
    for block in (field.POWER_BLOCK, 3):
        monkeypatch.setattr(field, "POWER_BLOCK", block)
        for e in (1, 2, 3, f.p + 1, f.q - 1, f.q, 2 * f.q):
            assert f.power_table(e).tolist() == [f.pow(x, e) for x in range(f.q)], (block, e)


def test_power_table_refuses_nonpositive_exponents():
    with pytest.raises(ValueError):
        get_field(2, 3).power_table(0)


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


# sha256 of repr((modulus, generator)) and the EXP, LOG and TR bytes, recorded
# from tables built by walking the first powers one product at a time
TABLE_DIGESTS = {
    (2, 13): "1b7219ab5e51dd19087ffbd304f700926162095fc0f7096ff1e9b369f03b3850",
    (2, 14): "4b97a002a136fdeb28a550359eaf5aa41f349e391704e09590eab64253c7f5c7",
    (2, 17): "b9eb867aa1ab2c8b78462aaa9bf0ca66640b387361fc4cb188c7cdf1c4d92900",
    (3, 9): "a01b9869bf0d2d0fb46430ebc01ccb1847d12cbcc25e3fb77b2488943aa5d6b1",
    (3, 11): "3a84c2bc191f4d7ef726be688f3c5d243401a6e2ac2341ca30104bb505dd54fa",
    (5, 6): "fb844b9d9cd0418daf1c4cd5a6b25d4458d4c55678c3ef45f9c264946a9cec5c",
    (7, 5): "912dcaa0c1916d0003157aa73c762a45bb48a31f024f1b3e0b7c8106b6dac7fd",
    (251, 2): "61eb9e55c1a833881ca424214fe8d4f13a9d2df8187605e306bb57bd194dfa2d",
}


@pytest.mark.parametrize("p, m", TABLE_DIGESTS, ids=lambda v: str(v))
def test_tables_past_the_walk_oracle_match_recorded_digests(p, m):
    f = Field(p, m)
    digest = hashlib.sha256(repr((f.modulus, f.generator)).encode())
    for table, dtype in ((f.EXP, "<i4"), (f.LOG, "<i4"), (f.TR, "u1")):
        digest.update(table.astype(dtype).tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[p, m]


def _mobius(n):
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


GAUSS_FIELDS = [
    (p, m) for p in range(2, MAX_P + 1) if is_prime(p) for m in range(1, 11) if p**m <= 1 << 10
]


@pytest.mark.parametrize("p, m", GAUSS_FIELDS, ids=lambda v: str(v))
def test_moduli_count_is_gauss_count(p, m):
    # (1/m) sum_{d | m} mu(d) p^(m/d) monic irreducibles of degree m; for m >= 2
    # none has c_0 = 0, and the root prefilter must drop none of them
    want = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
    assert sum(1 for _ in iter_irreducible_moduli(p, m)) == want


def _apply(f, mat):
    """The oracle: coords(x) @ mat mod p for every element code x, as codes."""
    xs = np.arange(f.q, dtype=np.int64)
    digits = xs[:, None] // f.p ** np.arange(f.m) % f.p
    return (digits @ mat % f.p) @ f.p ** np.arange(mat.shape[1])


@pytest.mark.parametrize("p, m", WALK_FIELDS, ids=lambda v: str(v))
def test_linear_map_matches_digit_matmul(p, m):
    f = get_field(p, m)
    rng = np.random.default_rng(p * 100 + m)
    for cols in (1, m, m):
        mat = rng.integers(0, p, size=(m, cols))
        got = f.linear_map(mat)
        assert got.dtype == np.int32
        assert got.tolist() == _apply(f, mat).tolist(), mat


@pytest.mark.parametrize("p, m", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2), (251, 1)])
def test_pi_is_the_trace_against_each_basis_element(p, m):
    f = get_field(p, m)
    want = [
        sum(f.trace(f.mul(x, p**i)) * p**i for i in range(m)) for x in range(f.q)
    ]
    assert f.PI.tolist() == want


def test_pi_is_cached_and_read_only():
    f = get_field(3, 4)
    assert f.PI is f.PI
    assert not f.PI.flags.writeable
    with pytest.raises(ValueError):
        f.PI[1] = 0


def test_non_primitive_generator_is_refused(monkeypatch):
    f = Field(3, 2)
    short = [x for x in range(1, f.q) if math.gcd(int(f.LOG[x]), f.q - 1) > 1]
    assert short
    for g in short:
        monkeypatch.setattr(Field, "_find_generator", lambda self, g=g: g)
        with pytest.raises(AssertionError, match="order"):
            Field(3, 2)
