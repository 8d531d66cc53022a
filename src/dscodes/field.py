"""Exact arithmetic in GF(p^m) with dense lookup tables.

Elements are plain integers in [0, p^m).  The base-p digits of an element
are its coordinates in the polynomial basis, constant term first: digit i
is the coefficient of alpha^i, where alpha is the residue class of X
modulo the field modulus.  A Field owns antilog/log/trace tables (numpy
arrays) so that enumeration kernels elsewhere reduce to gathers.

Construction is deterministic.  The modulus is the lexicographically
smallest monic irreducible of degree m over GF(p), coefficient vectors
compared constant term first; irreducibility is established by trial
division against every monic polynomial of degree at most m/2.  The
multiplicative generator behind the log tables is the element of order
p^m - 1 whose coordinate vector is lexicographically smallest.  An
explicit modulus override is accepted for compatibility with tables
built elsewhere, and is itself checked for irreducibility.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_Q = 1 << 24
MAX_P = 251


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
    for k in range(p**m):
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
        # modulus packed as an integer for the p = 2 fast path (bit m included)
        self._mod_bits = sum(c << i for i, c in enumerate(modulus))
        self.generator = self._find_generator()
        self._build_log_tables()
        self._build_trace_table()

    # -- construction helpers ------------------------------------------

    def _mul_nonzero_poly(self, a: int, b: int) -> int:
        """Product in GF(q) by polynomial arithmetic, no tables needed."""
        p, m = self.p, self.m
        if p == 2:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if (a >> m) & 1:
                    a ^= self._mod_bits
            return r
        da = [(a // p**i) % p for i in range(m)]
        db = [(b // p**i) % p for i in range(m)]
        prod = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(m):
                    prod[i - m + j] = (prod[i - m + j] - c * self.modulus[j]) % p
        return sum(c * p**i for i, c in enumerate(prod[:m]))

    def _pow_poly(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_nonzero_poly(r, a)
            a = self._mul_nonzero_poly(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        p, m, q = self.p, self.m, self.q
        cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
        for k in range(1, q):
            vec = _lex_vector(k, p, m)
            cand = sum(c * p**i for i, c in enumerate(vec))
            if cand and all(self._pow_poly(cand, e) != 1 for e in cofactors):
                return cand
        raise AssertionError("no multiplicative generator found")

    def _build_log_tables(self):
        q = self.q
        exp = np.zeros(2 * (q - 1), dtype=np.int32)
        log = np.full(q, -1, dtype=np.int32)
        cur = 1
        for i in range(q - 1):
            if log[cur] != -1:
                raise AssertionError("generator order is below q - 1")
            exp[i] = cur
            log[cur] = i
            cur = self._mul_nonzero_poly(cur, self.generator)
        if cur != 1:
            raise AssertionError("generator does not return to 1 after q - 1 steps")
        exp[q - 1 :] = exp[: q - 1]
        exp.setflags(write=False)
        log.setflags(write=False)
        self.EXP = exp
        self.LOG = log

    def _build_trace_table(self):
        p, m, q = self.p, self.m, self.q
        self.tr_basis = tuple(self.trace_by_definition(p**i) for i in range(m))
        x = np.arange(q, dtype=np.int64)
        acc = np.zeros(q, dtype=np.int64)
        for i in range(m):
            acc += ((x // p**i) % p) * self.tr_basis[i]
        tr = (acc % p).astype(np.uint8)
        counts = np.bincount(tr, minlength=p)
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

    def gold_pow(self, x: int, ell: int) -> int:
        """x ** (p**ell + 1): one Frobenius iterate, then multiply by x."""
        if ell < 0:
            raise ValueError("ell must be >= 0")
        return self.mul(self.pow(x, self.p**ell), x)

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

    def from_coords(self, cs) -> int:
        if len(cs) != self.m:
            raise ValueError(f"expected {self.m} coordinates")
        p = self.p
        return sum((int(c) % p) * p**i for i, c in enumerate(cs))

    def elements(self) -> range:
        return range(self.q)

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
