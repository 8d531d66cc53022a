import random
import tracemalloc

import numpy as np
import pytest

from dscodes import field, spectra
from dscodes.field import get_field


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_cubic_sum_closed_form_odd_m(m):
    f = get_field(2, m)
    assert spectra.weil_sum(f, 1, 1) == spectra.carlitz_prediction(m)


def test_carlitz_sign_pattern():
    # (m^2 - 1)/8 mod 2 drives the sign; magnitude is 2^((m+1)/2)
    assert spectra.carlitz_prediction(3) == -4
    assert spectra.carlitz_prediction(5) == -8
    assert spectra.carlitz_prediction(7) == 16
    assert spectra.carlitz_prediction(9) == 32


@pytest.mark.parametrize("m", [4, 6])
def test_coulter_closed_forms_exhaustive(m):
    f = get_field(2, m)
    for a in range(1, f.q):
        assert spectra.coulter_s_a0(f, a) == spectra.weil_sum(f, a, 0), (m, a)
        for b in range(1, f.q):
            assert spectra.coulter_s_ab(f, a, b) == spectra.weil_sum(f, a, b), (m, a, b)


@pytest.mark.parametrize("m", [10])
def test_coulter_closed_forms_sampled(m):
    f = get_field(2, m)
    rng = random.Random(31)
    for _ in range(200):
        a = rng.randint(1, f.q - 1)
        b = rng.randint(0, f.q - 1)
        if b == 0:
            assert spectra.coulter_s_a0(f, a) == spectra.weil_sum(f, a, 0)
        else:
            assert spectra.coulter_s_ab(f, a, b) == spectra.weil_sum(f, a, b)


def test_quartic_solver_cache_is_bounded():
    f = get_field(2, 10)
    for a in range(1, f.q):
        spectra.coulter_s_ab(f, a, 1)
    info = spectra._solver.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_cube_detection():
    f = get_field(2, 4)
    cubes = {f.pow(x, 3) for x in range(1, f.q)}
    for a in range(1, f.q):
        assert spectra.is_cube(f, a) == (a in cubes)
    # odd m: gcd(3, q - 1) = 1, everything is a cube
    g = get_field(2, 5)
    assert all(spectra.is_cube(g, a) for a in range(1, g.q))


@pytest.mark.parametrize("m,expected", [(4, True), (6, False), (8, True), (10, False), (12, True)])
def test_quartic_solvability_alternates(m, expected):
    # x^4 + x = 1 has a root exactly when 4 divides m
    assert expected is (m % 4 == 0)
    found = spectra.QuarticSolver(get_field(2, m), 1).solve(1)
    assert (found is not None) is expected


def test_quartic_solver_fiber_sizes():
    f = get_field(2, 4)
    solver = spectra.QuarticSolver(f, 1)
    hits = {}
    for x in range(f.q):
        c = f.add(f.pow(x, 4), x)  # a = 1: x^4 + x
        hits.setdefault(c, []).append(x)
    for c, xs in hits.items():
        sols = solver.solutions(c)
        assert sorted(sols) == sorted(xs)
        assert len(sols) in (1, 4)
    for c in set(range(f.q)) - set(hits):
        assert solver.solutions(c) == []


def _walsh_naive(f, table):
    """Quadratic oracle for the Walsh spectrum; keep to q <= 2^10."""
    assert f.p == 2 and f.q <= 1 << 10
    table = np.asarray(table, dtype=np.int64)
    xs = np.arange(f.q, dtype=np.int64)
    out = np.empty(f.q, dtype=np.int64)
    for w in range(f.q):
        tr = f.TR[f.scalar_mul_vec(w, xs)].astype(np.int64)
        out[w] = f.q - 2 * int(((table + tr) % 2).sum())
    return out


def test_walsh_transform_matches_naive():
    for m in (3, 4, 5, 6, 10):
        f = get_field(2, m)
        rng = random.Random(m)
        f0_set = np.zeros(f.q, dtype=np.int64)
        f0_set[0] = 1
        tables = [
            np.array([rng.randint(0, 1) for _ in range(f.q)], dtype=np.int64),
            np.zeros(f.q, dtype=np.int64),  # empty support
            np.ones(f.q, dtype=np.int64),
            f0_set,
        ]
        for table in tables:
            slow = _walsh_naive(f, table)
            # the same bits as an int64 table, a bool mask and a list
            for given in (table, table.astype(bool), table.tolist()):
                fast = spectra.walsh_transform(f, given)
                assert np.array_equal(fast.values, slow)
                assert fast.n_f == int(table.sum())


def test_walsh_rejects_bad_tables():
    f = get_field(2, 3)
    with pytest.raises(ValueError):
        spectra.walsh_transform(f, np.array([0, 1, 2, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        spectra.walsh_transform(f, np.zeros(4, dtype=np.int64))


def test_walsh_refuses_a_fractional_cell():
    # checked in the table's own dtype: an int64 cast would truncate 1.5 to 1
    f = get_field(2, 3)
    table = np.zeros(f.q)
    table[3] = 1.5
    with pytest.raises(ValueError, match="q bits"):
        spectra.walsh_transform(f, table)


def test_parseval_check_refuses_a_perturbed_spectrum():
    f = get_field(2, 7)
    spectrum = spectra.walsh_transform(f, spectra.tr_cubic_table(f))
    for w, delta in ((1, 4), (f.q - 1, -4), (5, 1)):
        values = spectrum.values.copy()
        values[w] += delta
        with pytest.raises(AssertionError, match="Parseval"):
            spectra.WalshSpectrum(f, values, spectrum.n_f)


def test_parseval_check_refuses_values_that_wrap_an_int64_sum():
    f = get_field(2, 7)
    spectrum = spectra.walsh_transform(f, spectra.tr_cubic_table(f))
    values = spectrum.values.astype(np.int64)
    w = int(np.flatnonzero(values[1:] == 0)[0]) + 1
    values[w] = 1 << 32  # its square is 2^64, 0 in a wrapping int64 sum
    assert int(np.sum(values * values)) == f.q * f.q
    with pytest.raises(AssertionError, match="Parseval"):
        spectra.WalshSpectrum(f, values, spectrum.n_f)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_cubic_trace_is_semibent_for_odd_m(m):
    f = get_field(2, m)
    spectrum = spectra.walsh_transform(f, spectra.tr_cubic_table(f))
    level = 1 << ((m + 1) // 2)
    assert set(int(v) for v in spectrum.values) <= {0, level, -level}


@pytest.mark.parametrize("m", [4, 6, 8])
def test_cubic_trace_spectrum_plateaus_for_even_m(m):
    f = get_field(2, m)
    spectrum = spectra.walsh_transform(f, spectra.tr_cubic_table(f))
    level = 1 << (m // 2 + 1)
    assert set(int(v) for v in spectrum.values) <= {0, level, -level}


def test_tr_cubic_table_values():
    f = get_field(2, 5)
    table = spectra.tr_cubic_table(f)
    assert table.dtype == bool
    assert int(table[0]) == 0
    for x in range(f.q):
        assert int(table[x]) == f.trace(f.pow(x, 3))


@pytest.mark.parametrize("block", [3, 64, field.POWER_BLOCK])
def test_tr_cubic_table_in_blocks_matches_scalar_cubes(monkeypatch, block):
    # blocks of 3 and 64 exponents, which q - 1 need not divide
    monkeypatch.setattr(field, "POWER_BLOCK", block)
    for m in range(1, 11):
        f = get_field(2, m)
        want = [bool(f.trace(f.pow(x, 3))) for x in range(f.q)]
        assert spectra.tr_cubic_table(f).tolist() == want, m


def test_tr_cubic_table_holds_no_power_table():
    # the mask and one block of exponents: no q-cell int32 power table
    f = get_field(2, 20)
    tracemalloc.start()
    try:
        table = spectra.tr_cubic_table(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == bool and table.shape == (f.q,)
    assert peak <= f.q + 20 * field.POWER_BLOCK, peak / f.q


def _weil_oracle(f, a, b):
    return sum((-1) ** f.trace(f.add(f.mul(a, f.pow(x, 3)), f.mul(b, x))) for x in range(f.q))


@pytest.mark.parametrize("block", [3, 64])
def test_weil_sum_in_blocks_matches_scalar_oracle(monkeypatch, block):
    # blocks of 3 and 64 exponents, which q - 1 need not divide; every (a, b)
    # up to GF(2^5), then 64 seeded pairs a field with a = 0 and b = 0 among them
    monkeypatch.setattr(field, "POWER_BLOCK", block)
    rng = random.Random(32)
    for m in range(4, 11):
        f = get_field(2, m)
        if f.q <= 32:
            pairs = [(a, b) for a in range(f.q) for b in range(f.q)]
        else:
            pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (f.q - 1, f.q - 1)]
            pairs += [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(59)]
        for a, b in pairs:
            assert spectra.weil_sum(f, a, b) == _weil_oracle(f, a, b), (m, a, b)


def test_weil_sum_holds_one_block_of_the_walk(monkeypatch):
    # no q-cell array: the cubes, the two products and their traces one block at a time
    monkeypatch.setattr(field, "POWER_BLOCK", 1024)
    f = get_field(2, 14)
    tracemalloc.start()
    try:
        s = spectra.weil_sum(f, 3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s == spectra.coulter_s_ab(f, 3, 5)
    assert peak <= 32 * field.POWER_BLOCK, peak


def test_zero_counts_two_routes():
    # n0 = #{x : Tr(x^3 + x) = 0} and N_b = #{x : Tr(x^3 + x) = Tr(b x) = 0},
    # counted with scalar arithmetic and read off S(1, 1) and S(1, b + 1):
    # n0 = q/2 + S(1, 1)/2 and N_b = (q + S(1, 1) + S(1, b + 1))/4
    for m in (4, 5, 6):
        f = get_field(2, m)
        s11 = spectra.weil_sum(f, 1, 1)
        cubic_zero = [
            x for x in range(f.q)
            if f.trace(f.add(f.pow(x, 3), x)) == 0
        ]
        assert 2 * len(cubic_zero) == f.q + s11, m
        for b in (1, 7 % f.q, f.q - 1):
            nb = sum(1 for x in cubic_zero if f.trace(f.mul(b, x)) == 0)
            assert 4 * nb == f.q + s11 + spectra.weil_sum(f, 1, b ^ 1), (m, b)


def test_weil_sum_rejects_odd_p():
    f = get_field(3, 2)
    with pytest.raises(ValueError):
        spectra.weil_sum(f, 1, 1)
