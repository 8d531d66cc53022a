"""Binary exponential sums and Walsh spectra, all integer valued.

S(a, b) = sum over x in GF(2^m) of (-1)^Tr(a x^3 + b x).  For odd m the
value at (1, 1) has a closed form in m; for even m the closed forms go
through cubic residues and the affine quartic a^2 x^4 + a x = b^2, which
is GF(2)-linear in x and solved here by elimination over GF(2).  A Walsh
spectrum is the Walsh-Hadamard butterfly of the signs (-1)^f, the one
`code.walsh_hadamard` the weight kernel runs, read at `Field.PI`; the
naive quadratic sum that checks it lives in the tests.
"""

from __future__ import annotations

import functools

import numpy as np

from .code import walsh_hadamard
from .field import Field


def _require_binary(f: Field):
    if f.p != 2:
        raise ValueError("exponential sums here are defined over GF(2^m) only")


def weil_sum(f: Field, a: int, b: int) -> int:
    """S(a, b) by direct summation over the field."""
    _require_binary(f)
    xs = np.arange(f.q, dtype=np.int64)
    arg = f.scalar_mul_vec(a, f.power_table(3)) ^ f.scalar_mul_vec(b, xs)
    ones = int(f.TR[arg].sum())
    return f.q - 2 * ones


def carlitz_prediction(m: int) -> int:
    """Closed form for S(1, 1), odd m: (-1)^((m^2-1)/8) * 2^((m+1)/2)."""
    if m % 2 == 0:
        raise ValueError("closed form needs odd m")
    sign = -1 if ((m * m - 1) // 8) % 2 else 1
    return sign * 2 ** ((m + 1) // 2)


def is_cube(f: Field, a: int) -> bool:
    if a == 0:
        raise ValueError("0 is excluded")
    if (f.q - 1) % 3:
        return True
    return int(f.LOG[a]) % 3 == 0


class QuarticSolver:
    """Solutions of a^2 x^4 + a x = c over GF(2^m).

    The left side is GF(2)-linear in x, so build the m x m coordinate
    matrix column by column and keep an eliminated basis; each solve is
    then a pass over the pivots.  Exhibits an explicit solution and the
    kernel, which has size 1 or 4.
    """

    def __init__(self, f: Field, a: int):
        _require_binary(f)
        if a == 0:
            raise ValueError("a must be nonzero")
        self.field = f
        self.a = a
        a2 = f.mul(a, a)
        self.pivots: list[tuple[int, int, int]] = []  # (pivot bit, value, combo mask)
        self.kernel_basis: list[int] = []
        for j in range(f.m):
            basis = 1 << j
            v = f.mul(a2, f.pow(basis, 4)) ^ f.mul(a, basis)
            mask = basis
            for pb, pv, pm in self.pivots:
                if (v >> pb) & 1:
                    v ^= pv
                    mask ^= pm
            if v:
                self.pivots.append((v.bit_length() - 1, v, mask))
            else:
                self.kernel_basis.append(mask)

    def solve(self, c: int):
        """One solution x with a^2 x^4 + a x = c, or None."""
        w = c
        sol = 0
        for pb, pv, pm in self.pivots:
            if (w >> pb) & 1:
                w ^= pv
                sol ^= pm
        return sol if w == 0 else None

    def solutions(self, c: int) -> list[int]:
        x0 = self.solve(c)
        if x0 is None:
            return []
        sols = [x0]
        for kmask in self.kernel_basis:
            sols = sols + [s ^ kmask for s in sols]
        return sols


@functools.lru_cache(maxsize=64)
def _solver(f: Field, a: int) -> QuarticSolver:
    return QuarticSolver(f, a)


def coulter_s_a0(f: Field, a: int) -> int:
    """Closed form for S(a, 0), even m, a != 0."""
    _require_binary(f)
    if f.m % 2:
        raise ValueError("closed form needs even m")
    if a == 0:
        raise ValueError("a must be nonzero")
    unit = (-1) ** (f.m // 2) * 2 ** (f.m // 2)
    if is_cube(f, a):
        return -2 * unit
    return unit


def coulter_s_ab(f: Field, a: int, b: int) -> int:
    """Closed form for S(a, b), even m, a and b nonzero.

    Goes through a solution x0 of a^2 x^4 + a x = b^2.  The sign factor
    Tr(a x0^3) must agree across the whole solution coset; that is
    asserted, not assumed.
    """
    _require_binary(f)
    if f.m % 2:
        raise ValueError("closed form needs even m")
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    unit = (-1) ** (f.m // 2) * 2 ** (f.m // 2)
    solver = _solver(f, a)
    c = f.mul(b, b)
    if not is_cube(f, a):
        x0 = solver.solve(c)
        if x0 is None:
            raise AssertionError("permutation case must be solvable")
        return unit * (-1) ** f.trace(f.mul(a, f.pow(x0, 3)))
    sols = solver.solutions(c)
    if not sols:
        return 0
    signs = {f.trace(f.mul(a, f.pow(s, 3))) for s in sols}
    if len(signs) != 1:
        raise AssertionError("Tr(a x0^3) varies across the solution coset")
    chi = (-1) ** signs.pop()
    # Cube a reduces to the a = 1 sum by substitution, so the magnitude is
    # always 2^(m/2 + 1) here; it does not depend on Tr(a).
    return -2 * unit * chi


# ----------------------------------------------------------------------
# Walsh spectra


class WalshSpectrum:
    """All values of w -> sum_x (-1)^(f(x) + Tr(w x)) for one Boolean f."""

    def __init__(self, f: Field, values: np.ndarray, n_f: int):
        self.field = f
        self.values = values
        self.n_f = n_f
        if int(values[0]) != f.q - 2 * n_f:
            raise AssertionError("spectrum at 0 disagrees with the weight of f")
        # a value past q fails at once; below it, 2^62 / q^2 squares sum exactly in int64
        q, total, step = f.q, 0, (1 << 62) // (f.q * f.q)
        for lo in range(0, len(values), step):
            block = np.asarray(values[lo : lo + step], dtype=np.int64)
            if block.min() < -q or block.max() > q:
                raise AssertionError("Parseval check failed")
            total += int(np.dot(block, block))
        if total != q * q:
            raise AssertionError("Parseval check failed")


def walsh_transform(f: Field, table) -> WalshSpectrum:
    """Exact spectrum of a truth table indexed by element code.

    Tr(w x) is the dot product of x's code with pi(w) (`Field.PI`), so
    W(w) = sum_x (-1)^(f(x) + x.pi(w)) is the Walsh-Hadamard transform of
    the signs 1 - 2f(x) at pi(w): one int32 butterfly, exact as |W| <= q.
    """
    _require_binary(f)
    table = np.asarray(table)
    if table.shape != (f.q,) or not np.all((table == 0) | (table == 1)):
        raise ValueError("truth table must be q bits")
    signs = table.astype(np.int32)
    signs *= -2
    signs += 1
    values = walsh_hadamard(signs)[f.PI]
    values.setflags(write=False)
    return WalshSpectrum(f, values, int(np.count_nonzero(table)))


def tr_cubic_table(f: Field) -> np.ndarray:
    """Truth table of x -> Tr(x^3) as a bool mask indexed by element code."""
    _require_binary(f)
    return f.TR[f.power_table(3)].view(bool)
