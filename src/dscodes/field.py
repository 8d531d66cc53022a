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
Irreducibility is established by trial division against every monic
polynomial of degree at most m/2.  An explicit modulus override is
accepted for compatibility with tables built elsewhere, and is itself
checked for irreducibility.

Every table comes from one mechanism: the m x m matrix over GF(p) of
x -> c*x on coordinate rows, whose row i holds the coordinates of
c*alpha^i (for c = alpha, the companion matrix of the modulus).  The
multiplicative generator is the element of order p^m - 1 whose
coordinate vector is lexicographically smallest, its order tested by
matrix powers.  The antilog table is built by doubling, EXP[s:2s] =
g^s * EXP[:s], applying the step matrix to chunks of coordinate rows and
squaring it each round.  Tr(alpha^i) is the trace of the matrix of
alpha^i, and the trace table is the same chunked apply over all
elements.  All of it is int64 arithmetic on entries below p.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_Q = 1 << 24
MAX_P = 251
_CHUNK = 1 << 12  # rows per matrix apply in the table builds


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
# polynomials over GF(p): coefficient lists, constant term first


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by den; den must be monic."""
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


def _lex_vector(k: int, p: int, m: int) -> list[int]:
    # digits of k laid out so that increasing k walks coordinate vectors
    # (c_0, ..., c_{m-1}) in lexicographic order, c_0 compared first
    return [(k // p**i) % p for i in range(m - 1, -1, -1)]


def poly_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    for e in range(1, d // 2 + 1):
        for k in range(p**e):
            g = [(k // p**i) % p for i in range(e)] + [1]
            r = _poly_mod(list(f), g, p)
            if r == [0]:
                return False
    return True


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
        if not is_prime(p) or not (2 <= p <= MAX_P):
            raise ValueError(f"p must be a prime in [2, {MAX_P}], got {p}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        q = p**m
        if q > MAX_Q:
            raise ValueError(f"q = {p}^{m} exceeds the table cap 2^24")
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus override must be monic of degree m")
            if not poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus override {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._pw = p ** np.arange(m, dtype=np.int64)
        # companion matrix: the matrix of x -> alpha*x
        self._alpha = np.eye(m, k=1, dtype=np.int64)
        self._alpha[-1] = [-c % p for c in modulus[:m]]
        self.generator = self._find_generator()
        self._build_log_tables()
        self._build_trace_table()

    # -- construction helpers ------------------------------------------

    def _matrix(self, c: int) -> np.ndarray:
        """Matrix of x -> c*x on coordinate rows: row i holds the coordinates
        of c*alpha^i, so coords(c*x) = coords(x) @ M mod p."""
        rows = [np.array(self.coords(c), dtype=np.int64)]
        for _ in range(self.m - 1):
            rows.append(rows[-1] @ self._alpha % self.p)
        return np.array(rows)

    def _matpow(self, a: np.ndarray, e: int) -> np.ndarray:
        r = np.eye(self.m, dtype=np.int64)
        while e:
            if e & 1:
                r = r @ a % self.p
            a = a @ a % self.p
            e >>= 1
        return r

    def _apply(self, xs: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """coords(x) @ mat mod p for every element code x in xs."""
        return (xs[:, None] // self._pw % self.p) @ mat % self.p

    def _find_generator(self) -> int:
        p, m, q = self.p, self.m, self.q
        cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
        eye = np.eye(m, dtype=np.int64)
        for k in range(1, q):
            cand = sum(c * p**i for i, c in enumerate(_lex_vector(k, p, m)))
            mat = self._matrix(cand)
            if not any(np.array_equal(self._matpow(mat, e), eye) for e in cofactors):
                return cand
        raise AssertionError("no multiplicative generator found")

    def _build_log_tables(self):
        # doubling: EXP[s:2s] = g^s * EXP[:s], the step matrix squared per round
        q = self.q
        exp = np.empty(2 * (q - 1), dtype=np.int32)
        log = np.full(q, -1, dtype=np.int32)
        exp[0], log[1] = 1, 0
        gen = self._matrix(self.generator)
        step, s = gen, 1
        while s < q - 1:
            t = min(s, q - 1 - s)
            for lo in range(0, t, _CHUNK):
                hi = min(lo + _CHUNK, t)
                powers = self._apply(exp[lo:hi], step) @ self._pw
                exp[s + lo : s + hi] = powers
                log[powers] = np.arange(s + lo, s + hi, dtype=np.int32)
            step = step @ step % self.p
            s *= 2
        if log[0] != -1 or np.count_nonzero(log < 0) != 1:
            raise AssertionError("generator order is below q - 1")
        if self._apply(exp[q - 2 : q - 1], gen) @ self._pw != 1:
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
        vec = np.array(basis, dtype=np.int64)
        tr = np.empty(q, dtype=np.uint8)
        counts = np.zeros(p, dtype=np.int64)
        for lo in range(0, q, _CHUNK):
            hi = min(lo + _CHUNK, q)
            values = self._apply(np.arange(lo, hi, dtype=np.int64), vec)
            tr[lo:hi] = values
            counts += np.bincount(values, minlength=p)
        if not np.all(counts == q // p):
            raise AssertionError("trace table is not balanced")
        tr.setflags(write=False)
        self.TR = tr

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

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        s = 0
        pw = 1
        for _ in range(self.m):
            s += (-a % p) * pw
            a //= p
            pw *= p
        return s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.EXP[self.LOG[a] + self.LOG[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.EXP[(self.q - 1 - self.LOG[a]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of 0")
        return int(self.EXP[(int(self.LOG[a]) * e) % (self.q - 1)])

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def trace(self, x: int) -> int:
        return int(self.TR[x])

    def trace_by_definition(self, x: int) -> int:
        """Sum of the m Frobenius conjugates, reduced to a base field digit."""
        acc = x
        t = x
        for _ in range(self.m - 1):
            t = self.pow(t, self.p)
            acc = self.add(acc, t)
        if acc >= self.p:
            raise AssertionError("trace left the base field")
        return acc

    def dlog(self, x: int):
        return None if x == 0 else int(self.LOG[x])

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

    def pow_vec(self, xs, e: int):
        """Elementwise x ** e for e >= 1, with 0 ** e = 0."""
        if e < 1:
            raise ValueError("pow_vec needs e >= 1")
        xs = np.asarray(xs, dtype=np.int64)
        idx = (self.LOG[xs].astype(np.int64) * e) % (self.q - 1)
        return np.where(xs == 0, 0, self.EXP[idx]).astype(np.int64)

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


def make_field(p: int, m: int, modulus=None) -> Field:
    """Fresh GF(p^m) context; deterministic for fixed inputs."""
    return Field(p, m, None if modulus is None else tuple(modulus))


def get_field(p: int, m: int, modulus=None) -> Field:
    """Memoised make_field, for callers that share contexts.  The modulus
    is normalised first, so an omitted one and None share one entry."""
    return _cached_field(p, m, None if modulus is None else tuple(modulus))


_cached_field = functools.lru_cache(maxsize=None)(make_field)


def alternate_field(field: Field) -> Field:
    """Same GF(p^m) under the next irreducible modulus in lexicographic order."""
    for mod in iter_irreducible_moduli(field.p, field.m):
        if mod != field.modulus:
            return get_field(field.p, field.m, mod)
    raise ValueError(f"GF({field.p}^{field.m}) has a single irreducible modulus")
