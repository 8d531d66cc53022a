"""Exact arithmetic in GF(p^m) with dense lookup tables.

Elements are plain integers in [0, p^m).  The base-p digits of an element
are its coordinates in the polynomial basis, constant term first: digit i
is the coefficient of alpha^i, where alpha is the residue class of X
modulo the field modulus.  A Field owns antilog/log/trace tables (numpy
arrays) so that enumeration kernels elsewhere reduce to gathers.

Construction is deterministic.  The modulus is the lexicographically
smallest monic irreducible of degree m over GF(p), coefficient vectors
compared constant term first; for m >= 2 the search starts at constant
term 1, since every candidate with constant term 0 is divisible by X.
Irreducibility is Rabin's test on the companion matrix C of the candidate:
C^(p^m) = C, and C^(p^(m/r)) - C has full rank over GF(p) for every prime
r | m.  An explicit modulus override is accepted for compatibility with
tables built elsewhere, and is itself checked for irreducibility.

Every table comes from one mechanism: the m x m matrix over GF(p) of
x -> c*x on coordinate rows, whose row i holds the coordinates of
c*alpha^i (for c = alpha, the companion matrix of the modulus).  The
multiplicative generator is the element of order p^m - 1 whose
coordinate vector is lexicographically smallest, its order tested by
matrix powers.  `Field.linear_map` applies a matrix over GF(p) to every
element at once: at p = 2 by XOR doubling, one numpy call per bit, and
at odd p digit by digit.  The trace table is the one-column map of the
Tr(alpha^i), each the trace of the matrix of alpha^i.  EXP walks its
first b ~ sqrt(q) powers, then reads each block through x -> g^b * x.
`Field.PI`, the kernel's map x -> (Tr(x alpha^j))_j, is built on first use.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_Q = 1 << 24
MAX_P = 251
# int64 exponents `Field.power_table` holds at once, 2 MB
POWER_BLOCK = 1 << 18


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# matrices over GF(p), and polynomials as coefficient lists, constant term first


def rank_mod_p(a, p: int) -> int:
    """Rank over GF(p) of a small integer matrix, by row reduction: each pass
    clears the first nonzero entry's column with its row, then drops the row."""
    a = np.array(a, dtype=np.int64) % p
    rank = 0
    while a.any():
        i, j = np.argwhere(a)[0]
        row = a[i] * pow(int(a[i, j]), -1, p) % p
        a = np.delete(a, i, axis=0)
        a = (a - a[:, j, None] * row) % p
        rank += 1
    return rank


def _matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    r = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            r = r @ a % p
        a = a @ a % p
        e >>= 1
    return r


def _companion(f: tuple[int, ...], p: int) -> np.ndarray:
    """Matrix of x -> X*x modulo the monic f, on coordinate rows."""
    c = np.eye(len(f) - 1, k=1, dtype=np.int64)
    c[-1] = [-a % p for a in f[:-1]]
    return c


def _lex_vector(k: int, p: int, m: int) -> list[int]:
    # digits of k laid out so that increasing k walks coordinate vectors
    # (c_0, ..., c_{m-1}) in lexicographic order, c_0 compared first
    return [(k // p**i) % p for i in range(m - 1, -1, -1)]


def poly_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test: the monic f of degree m >= 1 is irreducible iff
    X^(p^m) = X mod f and X^(p^(m/r)) - X is a unit mod f for each prime
    r | m; on the companion matrix C, a unit is a full-rank C^(p^(m/r)) - C."""
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    c = _companion(f, p)
    if not np.array_equal(_matpow(c, p**m, p), c):
        return False
    return all(rank_mod_p(_matpow(c, p ** (m // r), p) - c, p) == m for r in prime_factors(m))


def iter_irreducible_moduli(p: int, m: int):
    """Monic irreducibles of degree m in lexicographic order."""
    # for m >= 2 every candidate with c_0 = 0 is divisible by X: skip them
    for k in range(0 if m == 1 else p ** (m - 1), p**m):
        f = tuple(_lex_vector(k, p, m)) + (1,)
        if poly_is_irreducible(f, p):
            yield f


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    return next(iter_irreducible_moduli(p, m))


# ----------------------------------------------------------------------


class Field:
    """GF(p^m).  Treat as immutable; share freely across threads."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        if not (2 <= p <= MAX_P) or not is_prime(p):
            raise ValueError(f"p must be a prime in [2, {MAX_P}], got {p}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if m > MAX_Q.bit_length() or p**m > MAX_Q:  # m first: no power past the cap
            raise ValueError(f"q = {p}^{m} exceeds the table cap 2^24")
        self.p = p
        self.m = m
        self.q = p**m
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus override must be monic of degree m")
            if not poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus override {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._alpha = _companion(modulus, p)  # the matrix of x -> alpha*x
        self.generator = self._find_generator()
        self._build_trace_table()
        self._build_log_tables()

    # -- construction helpers ------------------------------------------

    def _matrix(self, c: int) -> np.ndarray:
        """Matrix of x -> c*x on coordinate rows: row i holds the coordinates
        of c*alpha^i, so coords(c*x) = coords(x) @ M mod p."""
        rows = [np.array(self.coords(c), dtype=np.int64)]
        for _ in range(self.m - 1):
            rows.append(rows[-1] @ self._alpha % self.p)
        return np.array(rows)

    def linear_map(self, mat) -> np.ndarray:
        """The int32 code of coords(x) @ mat mod p for every element code x.
        At p = 2 the map is XOR-linear, so the codes from 2^i up are those
        below 2^i XOR the code of mat[i]: one doubling per bit.  At odd p each
        output digit is a column filled by digit blocks: codes whose digit
        i is d hold the column below p^i plus d*mat[i] mod p.  The top digit's
        blocks go straight into the output by Horner, out = out*p + column."""
        p, m, q = self.p, self.m, self.q
        out = np.zeros(q, dtype=np.int32)
        if p == 2:
            rows = (np.asarray(mat) % 2) @ (1 << np.arange(np.shape(mat)[1]))
            for i, row in enumerate(rows.tolist()):
                np.bitwise_xor(out[: 1 << i], row, out=out[1 << i : 2 << i])
            return out
        col = np.zeros(q // p, dtype=np.uint8 if p < 128 else np.uint16)  # holds v + c < 2p
        steps = (np.arange(p)[:, None, None] * np.asarray(mat) % p).astype(col.dtype)
        for j in reversed(range(steps.shape[2])):
            for i in range(m - 1):
                blocks = col[: p ** (i + 1)].reshape(p, p**i)
                np.add(blocks[0], steps[1:, i, j, None], out=blocks[1:])
                blocks[1:] %= p
            out *= p
            for row in out.reshape(p, q // p):  # p steps of mat[m - 1] bring col back
                row += col
                col += steps[1, m - 1, j]
                col %= p
        return out

    def _find_generator(self) -> int:
        p, m, q = self.p, self.m, self.q
        cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
        eye = np.eye(m, dtype=np.int64)
        for k in range(1, q):
            cand = sum(c * p**i for i, c in enumerate(_lex_vector(k, p, m)))
            mat = self._matrix(cand)
            if not any(np.array_equal(_matpow(mat, e, p), eye) for e in cofactors):
                return cand
        raise AssertionError("no multiplicative generator found")

    def _build_log_tables(self):
        # the first b powers walked one product at a time, then EXP[t + b] = g^b * EXP[t]
        p, m, q = self.p, self.m, self.q
        exp = np.empty(2 * (q - 1), dtype=np.int32)
        gen, pw, b = self._matrix(self.generator), p ** np.arange(m), math.isqrt(q - 1)
        row = np.eye(m, dtype=np.int64)[0]  # the coordinates of 1
        for t in range(b):
            exp[t], row = row @ pw, row @ gen % p
        log = self.linear_map(self._matrix(int(row @ pw)))  # x -> g^b * x, LOG once EXP is done
        for lo in range(b, q - 1, b):  # the last block spills into the half copied below
            exp[lo : lo + b] = log[exp[lo - b : lo]]
        log.fill(-1)
        for lo in range(0, q - 1, b):
            hi = min(lo + b, q - 1)
            log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
        if log[0] != -1 or np.count_nonzero(log < 0) != 1:
            raise AssertionError("generator order is below q - 1")
        if not np.array_equal(self._matrix(int(exp[q - 2])) @ gen % p, np.eye(m)):
            raise AssertionError("generator does not return to 1 after q - 1 steps")
        exp[q - 1 :] = exp[: q - 1]
        exp.setflags(write=False)
        log.setflags(write=False)
        self.EXP = exp
        self.LOG = log

    def _build_trace_table(self):
        # Tr(alpha^i) is the trace of the matrix of alpha^i
        p, m, q = self.p, self.m, self.q
        basis, power = [], np.eye(m, dtype=np.int64)
        for _ in range(m):
            basis.append(int(np.trace(power)) % p)
            power = power @ self._alpha % p
        self.tr_basis = tuple(basis)
        tr = self.linear_map(np.array(basis)[:, None])
        counts = np.zeros(p, dtype=np.int64)
        np.add.at(counts, tr, 1)  # no q-sized temporary, unlike bincount's cast to intp
        if not np.all(counts == q // p):
            raise AssertionError("trace table is not balanced")
        tr = tr.astype(np.uint8)
        tr.setflags(write=False)
        self.TR = tr

    @functools.cached_property
    def PI(self) -> np.ndarray:
        """Read-only pi(x) = sum_j Tr(x alpha^j) p^j for every element code x:
        Tr(x alpha^j) = sum_i x_i Tr(alpha^(i+j)), a Hankel matrix over GF(p)."""
        p, m = self.p, self.m
        pi = self.linear_map([[self.trace(self.mul(p**i, p**j)) for j in range(m)] for i in range(m)])
        pi.setflags(write=False)
        return pi

    # -- scalar arithmetic ---------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        s = 0
        pw = 1
        for _ in range(self.m):
            s += ((a + b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return s

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.EXP[self.LOG[a] + self.LOG[b]])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of 0")
        return int(self.EXP[(int(self.LOG[a]) * e) % (self.q - 1)])

    def trace(self, x: int) -> int:
        return int(self.TR[x])

    def antilog(self, t: int) -> int:
        return int(self.EXP[t % (self.q - 1)])

    def coords(self, x: int) -> tuple[int, ...]:
        p = self.p
        return tuple((x // p**i) % p for i in range(self.m))

    def units(self) -> range:
        return range(1, self.q)

    # -- vectorised helpers (element codes in numpy arrays) ------------

    def add_vec(self, xs, ys):
        p = self.p
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if p == 2:
            return xs ^ ys
        out = np.zeros(np.broadcast(xs, ys).shape, dtype=np.int64)
        pw = 1
        for _ in range(self.m):
            out += (((xs // pw) + (ys // pw)) % p) * pw
            pw *= p
        return out

    def scalar_mul_vec(self, c: int, xs):
        xs = np.asarray(xs, dtype=np.int64)
        if c == 0:
            return np.zeros_like(xs)
        prods = self.EXP[int(self.LOG[c]) + self.LOG[xs]]
        return np.where(xs == 0, 0, prods).astype(np.int64)

    def power_table(self, e: int) -> np.ndarray:
        """x ** e for every element code x, e >= 1 (so 0 ** e = 0), read off
        the antilog table: (g^t)^e = g^((e mod (q-1)) t mod (q-1))."""
        if e < 1:
            raise ValueError("power_table needs e >= 1")
        n = self.q - 1
        out = np.zeros(self.q, dtype=self.EXP.dtype)
        for lo in range(0, n, POWER_BLOCK):
            t = np.arange(lo, min(lo + POWER_BLOCK, n), dtype=np.int64)
            t *= e % n
            t %= n
            out[self.EXP[lo : lo + len(t)]] = self.EXP[t]
        return out

    # -- misc ----------------------------------------------------------

    def describe(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "q": self.q,
            "modulus": list(self.modulus),
            "generator": list(self.coords(self.generator)),
        }

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


_cached_field = functools.lru_cache(maxsize=None)(Field)


def get_field(p: int, m: int, modulus=None) -> Field:
    """Memoised GF(p^m) context, deterministic for fixed inputs.  The
    modulus is normalised first, so an omitted one and None share one entry."""
    return _cached_field(p, m, None if modulus is None else tuple(modulus))
