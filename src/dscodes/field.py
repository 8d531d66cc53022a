"""Exact arithmetic in GF(p^m) with dense lookup tables.

Elements are plain integers in [0, p^m).  The base-p digits of an element
are its coordinates in the polynomial basis, constant term first: digit i
is the coefficient of alpha^i, where alpha is the residue class of X
modulo the field modulus.  A Field owns antilog/log/trace tables (numpy
arrays) so that enumeration kernels elsewhere reduce to gathers.

Construction is deterministic.  The modulus is the lexicographically
smallest monic irreducible of degree m over GF(p), coefficient vectors
compared constant term first; for m >= 2 the search starts at constant
term 1, since every candidate with constant term 0 is divisible by X, and
refuses a candidate with a root in GF(p) before any matrix work.
Irreducibility is Rabin's test: X^(p^m) = X mod f, and
gcd(X^(p^(m/r)) - X, f) = 1 for every prime r | m, the X^(p^k) read off
one chain of Frobenius steps and the gcd by Euclid.  An explicit modulus
override is accepted for compatibility with tables built elsewhere, and
is itself checked for irreducibility.

Every table comes from one mechanism: the m x m matrix over GF(p) of
x -> c*x on coordinate rows, whose row i holds the coordinates of
c*alpha^i, the sum of c_i C^i over the powers of the companion matrix C,
which are built once per field.  The multiplicative generator is the
element of order p^m - 1 whose coordinate vector is lexicographically
smallest, its order tested on one chain of squarings of its matrix.
`Field.linear_map` applies a matrix over GF(p) to every element at once:
at p = 2 by XOR doubling, one numpy call per bit, and at odd p as the
sum mod p of two digit-column tables of about sqrt(q) entries.  The trace
table is the one-column map of the Tr(alpha^i), each the trace of C^i.
EXP walks the coordinates of its first b ~ sqrt(q) powers by doubling,
then reads each block of b through the table of x -> g^b * x, which is
then refilled as LOG in blocks of `TABLE_BLOCK` cells.
`Field.PI`, the map x -> (Tr(x alpha^j))_j, is built on first use, by the
Walsh spectrum and the gather that reads a transform row by log x.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

MAX_Q = 1 << 24
MAX_P = 251
# cells of one block over a q-cell table: the int64 exponents that
# `Field.power_table` and `sets.tr_cubic_set` hold at once (2 MB), or
# the Walsh values `dscodes walsh` counts at once
POWER_BLOCK = 1 << 18
# cells one step of a table build writes or reads at once: a LOG scatter, an
# odd-p chunk of `Field.linear_map`, a block of the trace table's balance count
TABLE_BLOCK = 1 << 14


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
    """a^e mod p for e >= 1, with no squaring past the top bit of e."""
    r = None
    while True:
        if e & 1:
            r = a if r is None else r @ a % p
        e >>= 1
        if not e:
            return r
        a = a @ a % p


def _companion(f: tuple[int, ...], p: int) -> np.ndarray:
    """Matrix of x -> X*x modulo the monic f, on coordinate rows."""
    c = np.eye(len(f) - 1, k=1, dtype=np.int64)
    c[-1] = [-a % p for a in f[:-1]]
    return c


def _lex_vector(k: int, p: int, m: int) -> list[int]:
    # digits of k laid out so that increasing k walks coordinate vectors
    # (c_0, ..., c_{m-1}) in lexicographic order, c_0 compared first
    return [(k // p**i) % p for i in range(m - 1, -1, -1)]


def _has_root(f: tuple[int, ...], p: int) -> bool:
    """Whether f vanishes at some a in GF(p), by Horner at each a."""
    for a in range(p):
        v = 0
        for c in reversed(f):
            v = (v * a + c) % p
        if not v:
            return True
    return False


def _resultant(f, u, p: int) -> int:
    """Res(f, u) over GF(p), by Euclid on coefficient lists:
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r), r = a mod b.
    It is 0 iff gcd(f, u) != 1; for monic f it is the norm of u, the
    determinant of x -> u*x on GF(p)[X]/(f)."""
    a, b, res = [c % p for c in f], [int(c) % p for c in u], 1
    while True:
        while b and not b[-1]:
            b.pop()
        if len(b) < 2:  # a common factor (b = 0) or a constant
            return res * pow(b[0], len(a) - 1, p) % p if b else 0
        deg_a, inv = len(a) - 1, pow(b[-1], -1, p)
        while len(a) >= len(b):  # a <- a mod b, one leading term at a time
            c = a.pop() * inv % p
            for i, bj in enumerate(b[:-1], len(a) - len(b) + 1):
                a[i] = (a[i] - c * bj) % p
            while a and not a[-1]:
                a.pop()
        res = res * (-1) ** (deg_a * (len(b) - 1)) * pow(b[-1], deg_a + 1 - len(a), p) % p
        a, b = b, a


def _digit_columns(rows: np.ndarray, p: int) -> np.ndarray:
    """Entry (j, x): digit j of coords(x) @ rows mod p, for every x < p^k,
    k = len(rows).  The entries whose digit i is d are those below p^i plus
    d * rows[i]; a sum v < 2p reduces as min(v, v - p) in unsigned arithmetic."""
    k, n = rows.shape
    dtype = np.uint8 if p < 128 else np.uint16
    cols = np.zeros((n, p**k), dtype=dtype)
    steps = (rows[..., None] * np.arange(1, p) % p).astype(dtype)  # (k, n, p - 1)
    for i in range(k):
        blocks = cols[:, : p ** (i + 1)].reshape(n, p, p**i)
        np.add(blocks[:, :1], steps[i, :, :, None], out=blocks[:, 1:])
        np.minimum(blocks[:, 1:], blocks[:, 1:] - dtype(p), out=blocks[:, 1:])
    return cols


def poly_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test: the monic f of degree m >= 1 is irreducible iff
    X^(p^m) = X mod f and gcd(X^(p^(m/r)) - X, f) = 1 for each prime r | m.
    The chain X^(p^k) is one Frobenius step x -> x^p a link, a vec-mat
    product with the matrix whose row i holds the coordinates of X^(ip).
    At m >= 2 a candidate with a root in GF(p) is refused first, before
    any matrix work; for prime m that is exactly the gcd condition."""
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m >= 2 and _has_root(f, p):
        return False
    c = _companion(f, p)
    step = _matpow(c, p, p)  # x -> X^p * x
    frob = [np.eye(m, dtype=np.int64)[0]]
    for _ in range(m - 1):
        frob.append(frob[-1] @ step % p)
    frob = np.array(frob)
    chain = [c[0]]  # the coordinates of X, X^p, X^(p^2), ...
    for _ in range(m):
        chain.append(chain[-1] @ frob % p)
    if not np.array_equal(chain[m], chain[0]):
        return False
    return all(_resultant(f, chain[m // r] - chain[0], p) for r in prime_factors(m))


def iter_irreducible_moduli(p: int, m: int):
    """Monic irreducibles of degree m in lexicographic order."""
    # for m >= 2 every candidate with c_0 = 0 is divisible by X: skip them
    for k in range(0 if m == 1 else p ** (m - 1), p**m):
        f = tuple(_lex_vector(k, p, m)) + (1,)
        if poly_is_irreducible(f, p):
            yield f


@functools.cache
def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    return next(iter_irreducible_moduli(p, m))


# ----------------------------------------------------------------------


def _check_parameters(p: int, m: int) -> None:
    """The ValueError for a p or m that no Field accepts, before any power."""
    if not (2 <= p <= MAX_P) or not is_prime(p):
        raise ValueError(f"p must be a prime in [2, {MAX_P}], got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > MAX_Q.bit_length() or p**m > MAX_Q:  # m first: no power past the cap
        raise ValueError(f"q = {p}^{m} exceeds the table cap 2^24")


def _reduced_modulus(modulus, p: int) -> tuple[int, ...]:
    """A modulus override's coefficients mod p; a float is refused, never truncated."""
    bad = [c for c in modulus if not isinstance(c, numbers.Integral)]
    if bad:
        raise ValueError(f"modulus override needs integer coefficients, got {bad[0]}")
    return tuple(int(c) % p for c in modulus)


class Field:
    """GF(p^m).  Treat as immutable; share freely across threads."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        _check_parameters(p, m)
        self.p = p
        self.m = m
        self.q = p**m
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        else:
            modulus = _reduced_modulus(modulus, p)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus override must be monic of degree m")
            if not poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus override {modulus} is reducible over GF({p})")
        self.modulus = modulus
        # alpha^0 .. alpha^(2m-1) as coordinate rows are those of I and of C^m,
        # so the window of m rows from i is C^i, the matrix of x -> alpha^i * x;
        # construction reads them, a built field keeps only its tables
        hankel = np.vstack([np.eye(m, dtype=np.int64), _matpow(_companion(modulus, p), m, p)])
        self._alpha_powers = hankel[np.add.outer(np.arange(m), np.arange(m))]
        self.generator = self._find_generator()
        self._build_trace_table()
        self._build_log_tables()
        del self._alpha_powers

    # -- construction helpers ------------------------------------------

    def _matrix(self, c: int) -> np.ndarray:
        """Matrix of x -> c*x on coordinate rows, sum_i c_i C^i: row i holds
        the coordinates of c*alpha^i, so coords(c*x) = coords(x) @ M mod p."""
        m = self.m
        flat = np.array(self.coords(c)) @ self._alpha_powers.reshape(m, m * m)
        return (flat % self.p).reshape(m, m)

    def linear_map(self, mat) -> np.ndarray:
        """The int32 code of coords(x) @ mat mod p for every element code x.
        At p = 2 the map is XOR-linear, so the codes from 2^i up are those
        below 2^i XOR the code of mat[i]: one doubling per bit.  At odd p
        x = x_hi * p^h + x_lo with h = ceil(m/2): the output digits of x_lo
        and of x_hi * p^h are digit columns of about sqrt(q) entries each
        (`_digit_columns`), and each chunk of codes is their sum mod p,
        combined by Horner, out = out*p + digit."""
        p, m, q = self.p, self.m, self.q
        out = np.zeros(q, dtype=np.int32)
        if p == 2:
            rows = (np.asarray(mat) % 2) @ (1 << np.arange(np.shape(mat)[1]))
            for i, row in enumerate(rows.tolist()):
                np.bitwise_xor(out[: 1 << i], row, out=out[1 << i : 2 << i])
            return out
        mat, h = np.asarray(mat) % p, (m + 1) // 2
        lo, hi = _digit_columns(mat[:h], p), _digit_columns(mat[h:], p)
        n, width = lo.shape
        codes = out.reshape(-1, width)  # row x_hi holds the codes x_hi * p^h + x_lo
        chunk = max(1, TABLE_BLOCK // (n * width))
        for r in range(0, len(codes), chunk):
            digits = lo[:, None, :] + hi[:, r : r + chunk, None]
            np.minimum(digits, digits - lo.dtype.type(p), out=digits)
            block = codes[r : r + chunk]
            for j in reversed(range(n)):
                block *= p
                block += digits[j]
        return out

    def _find_generator(self) -> int:
        # g^e = 1 is read off the first row of M^e, M the matrix of g; every
        # cofactor e = (q-1)/r multiplies rows of one chain of squarings M^(2^j),
        # but for r | p - 1 c^e is N(c)^((p-1)/r), which needs no chain
        p, m, q = self.p, self.m, self.q
        cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
        norm_cofactors = [(p - 1) // r for r in prime_factors(p - 1)]  # none at p = 2
        one = np.eye(m, dtype=np.int64)[0]
        for k in range(1, q):
            cand = sum(c * p**i for i, c in enumerate(_lex_vector(k, p, m)))
            norm = _resultant(self.modulus, self.coords(cand), p) if p > 2 else 1
            if any(pow(norm, e, p) == 1 for e in norm_cofactors):
                continue
            squares = [self._matrix(cand)]
            for _ in range(max(cofactors, default=1).bit_length() - 1):
                squares.append(squares[-1] @ squares[-1] % p)
            for e in cofactors:
                row = one
                for j, sq in enumerate(squares):
                    if e >> j & 1:
                        row = row @ sq % p
                if np.array_equal(row, one):
                    break
            else:
                return cand
        raise AssertionError("no multiplicative generator found")

    def _build_log_tables(self):
        # The coordinate rows of g^0 .. g^b by doubling, rows[n : 2n] = rows[:n] @ G^n,
        # b = isqrt(q - 1); then EXP[t + b] = g^b * EXP[t], block by block through
        # the table of x -> g^b * x, whose array is refilled as LOG afterwards.
        p, m, q = self.p, self.m, self.q
        exp = np.empty(2 * (q - 1), dtype=np.int32)
        gen, pw, b = self._matrix(self.generator), p ** np.arange(m), math.isqrt(q - 1)
        rows = np.zeros((b + 1, m), dtype=np.int64)
        rows[0, 0] = 1  # the coordinates of 1
        n, step = 1, gen
        while n <= b:
            k = min(n, b + 1 - n)
            np.remainder(rows[:k] @ step, p, out=rows[n : n + k])
            n += k
            if n <= b:
                step = step @ step % p
        exp[:b] = rows[:b] @ pw
        log = self.linear_map(self._matrix(int(rows[b] @ pw)))  # x -> g^b * x
        for lo in range(b, q - 1, b):  # the last block spills into the half copied below
            exp[lo : lo + b] = log[exp[lo - b : lo]]
        log.fill(-1)
        for lo in range(0, q - 1, TABLE_BLOCK):
            hi = min(lo + TABLE_BLOCK, q - 1)
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
        # Tr(alpha^i) is the trace of C^i, the matrix of alpha^i
        p, q = self.p, self.q
        basis = np.trace(self._alpha_powers, axis1=1, axis2=2) % p
        self.tr_basis = tuple(basis.tolist())
        tr = self.linear_map(basis[:, None]).astype(np.uint8)
        counts = np.zeros(p, dtype=np.int64)
        for lo in range(0, q, TABLE_BLOCK):  # bincount's cast to intp, one block at a time
            counts += np.bincount(tr[lo : lo + TABLE_BLOCK], minlength=p)
        if not np.all(counts == q // p):
            raise AssertionError("trace table is not balanced")
        tr.setflags(write=False)
        self.TR = tr

    @functools.cached_property
    def PI(self) -> np.ndarray:
        """Read-only pi(x) = sum_j Tr(x alpha^j) p^j for every element code x:
        Tr(x alpha^j) = sum_i x_i Tr(alpha^(i+j)), a Hankel matrix over GF(p).
        x's column in a transform: `spectra.walsh_transform` reads at PI,
        the minimal-codeword gather a transform row at PI[EXP]."""
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
        xs, ys = np.asarray(xs), np.asarray(ys)
        if p == 2:
            return xs ^ ys
        out = np.zeros(np.broadcast(xs, ys).shape, dtype=np.result_type(xs, ys))
        pw = 1
        for _ in range(self.m):
            out += (((xs // pw) + (ys // pw)) % p) * pw
            pw *= p
        return out

    def scalar_mul_vec(self, c: int, xs):
        """c * x for every code x in xs, as codes in EXP's dtype."""
        xs = np.asarray(xs)
        if c == 0:
            return np.zeros(xs.shape, dtype=self.EXP.dtype)
        prods = self.EXP[int(self.LOG[c]) + self.LOG[xs]]
        prods[xs == 0] = 0
        return prods

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
    """Memoised GF(p^m) context, deterministic for fixed inputs.  The cache
    is keyed on the concrete modulus, coefficients reduced mod p: an omitted
    modulus, None and any spelling of the default share one entry."""
    _check_parameters(p, m)
    if modulus is not None:
        modulus = _reduced_modulus(modulus, p)
        if modulus == smallest_irreducible(p, m):
            modulus = None
    return _cached_field(p, m, modulus)
