"""Constructors and algebra for defining sets.

Families covered: one representative per GF(p)* coset of GF(q)* (the
simplex set), scalar products E*D, complements, disjoint unions, images
of quadratic forms given as sparse exponent terms, supports of Boolean
functions, the ternary set cut out by Tr(x + x^l) with the Kasami-type
exponent l = 3^(2h) - 3^h + 1 over GF(3^(3h)), and the binary set cut
out by Tr(x^3 + x).
"""

from __future__ import annotations

import functools

import numpy as np

from . import spectra
from .code import DefiningSet
from .field import Field, get_field


def simplex_coset_reps(f: Field) -> DefiningSet:
    """alpha^t for 0 <= t < (q-1)/(p-1): one representative per coset of GF(p)*."""
    n = (f.q - 1) // (f.p - 1)
    els = tuple(int(e) for e in f.EXP[:n])
    return DefiningSet(f, els, label=f"simplex p={f.p} m={f.m}")


def product_set(e_digits, ds: DefiningSet) -> tuple[DefiningSet, bool]:
    """E*D for E a subset of GF(p)*.

    Returns the set and a flag telling whether |E*D| = |E| * |D|; the
    expansion theorems only speak about the case where the flag is True.
    """
    f = ds.field
    e_digits = tuple(sorted(set(int(e) for e in e_digits)))
    if not e_digits:
        raise ValueError("E must be nonempty")
    for e in e_digits:
        if not 1 <= e < f.p:
            raise ValueError(f"E must sit inside GF(p)*, got {e}")
    prods = {f.mul(e, d) for e in e_digits for d in ds.elements}
    complete = len(prods) == len(e_digits) * ds.n
    label = f"product E={{{','.join(map(str, e_digits))}}} of {ds.label or 'set'}"
    return DefiningSet(f, tuple(prods), label=label), complete


def complement(ds: DefiningSet) -> DefiningSet:
    """GF(q) minus the set.  Contains 0 whenever the set does not."""
    rest = tuple(set(range(ds.field.q)) - set(ds.elements))
    if not rest:
        raise ValueError("complement is empty")
    return DefiningSet(ds.field, rest, label=f"complement-of:{ds.label or 'set'}")


def union_disjoint(a: DefiningSet, b: DefiningSet) -> DefiningSet:
    if a.field is not b.field:
        raise ValueError("sets live in different fields")
    overlap = set(a.elements) & set(b.elements)
    if overlap:
        raise ValueError(f"sets overlap in {sorted(overlap)}")
    return DefiningSet(
        a.field,
        a.elements + b.elements,
        label=f"union({a.label or 'a'}, {b.label or 'b'})",
    )


# ----------------------------------------------------------------------
# quadratic forms f(x) = sum a_ij x^(p^i + p^j), given as (i, j, a_ij) terms


def _check_terms(f: Field, terms):
    terms = tuple((int(i), int(j), int(a)) for i, j, a in terms)
    if not terms:
        raise ValueError("no quadratic form terms given")
    for i, j, a in terms:
        if not (0 <= i < f.m and 0 <= j < f.m):
            raise ValueError(f"exponent indices ({i}, {j}) outside [0, m)")
        if not 0 < a < f.q:
            raise ValueError("term coefficients must be nonzero field elements")
    return terms


def evaluate_quadratic_form(f: Field, terms) -> np.ndarray:
    """Value table of f over all of GF(q)."""
    terms = _check_terms(f, terms)
    xs = np.arange(f.q, dtype=np.int64)
    acc = np.zeros(f.q, dtype=np.int64)
    for i, j, a in terms:
        powed = f.pow_vec(xs, f.p**i + f.p**j)
        acc = f.add_vec(acc, f.scalar_mul_vec(a, powed))
    return acc


def quadratic_form_image(f: Field, terms) -> tuple[DefiningSet, dict]:
    """Nonzero values taken by the form, plus the fiber profile over GF(q)*."""
    table = evaluate_quadratic_form(f, terms)
    fibers: dict[int, int] = {}
    for v in table[1:]:
        v = int(v)
        fibers[v] = fibers.get(v, 0) + 1
    image = tuple(v for v in fibers if v != 0)
    if not image:
        raise ValueError("form vanishes on all of GF(q)*")
    label = "qf:" + ";".join(f"{i},{j},{a}" for i, j, a in _check_terms(f, terms))
    return DefiningSet(f, image, label=label), fibers


def quadratic_form_rank(f: Field, terms) -> int:
    """Rank r with |V_f| = p^(m-r), V_f the radical of the induced bilinear form.

    B(x, z) = f(x+z) - f(x) - f(z) is GF(p)-bilinear, so x lies in V_f
    iff B(x, alpha^j) = 0 for the m basis directions alpha^j = p^j.
    """
    table = evaluate_quadratic_form(f, terms)
    xs = np.arange(f.q, dtype=np.int64)
    in_radical = np.ones(f.q, dtype=bool)
    for j in range(f.m):
        z = f.p**j
        in_radical &= table[f.add_vec(xs, z)] == f.add_vec(table, int(table[z]))
    size = radical = int(np.count_nonzero(in_radical))
    r = f.m
    while size > 1:
        if size % f.p:
            raise ArithmeticError(f"radical size {radical} is not a power of p")
        size //= f.p
        r -= 1
    return r


def is_e_to_1(f: Field, terms):
    """e if the form is e-to-1 from GF(q)* onto its image and never 0 there,
    with f(0) = 0; otherwise None."""
    table = evaluate_quadratic_form(f, terms)
    if table[0] != 0:
        return None
    if np.any(table[1:] == 0):
        return None
    _, fibers = quadratic_form_image(f, terms)
    sizes = set(fibers.values())
    if len(sizes) != 1:
        return None
    return sizes.pop()


# ----------------------------------------------------------------------


def boolean_support(f: Field, table) -> DefiningSet:
    """Support {x : f(x) = 1} of a Boolean function given by its truth table."""
    if f.p != 2:
        raise ValueError("Boolean supports need p = 2")
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (f.q,) or not np.all((table == 0) | (table == 1)):
        raise ValueError("truth table must be q bits")
    support = tuple(int(x) for x in np.flatnonzero(table))
    if not support:
        raise ValueError("function is identically zero")
    return DefiningSet(f, support, label=f"bool-support n_f={len(support)}")


def hkm_exponent(h: int) -> int:
    return 3 ** (2 * h) - 3**h + 1


def hkm_set(h: int, f: Field | None = None, allow_even: bool = False) -> DefiningSet:
    """Half-orbit set over GF(3^(3h)): alpha^t with Tr(alpha^t + alpha^(t*l)) = 0
    for 0 <= t <= (q-3)/2, l = 3^(2h) - 3^h + 1.

    Even h is refused unless allow_even is set; no distribution is
    predicted for that exploratory case.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if h % 2 == 0 and not allow_even:
        raise ValueError("h must be odd (pass allow_even=True to explore anyway)")
    m = 3 * h
    if f is None:
        f = get_field(3, m)
    elif (f.p, f.m) != (3, m):
        raise ValueError(f"field must be GF(3^{m})")
    ell = hkm_exponent(h)
    q = f.q
    els = []
    for t in range((q - 1) // 2):
        x = f.antilog(t)
        y = f.antilog((t * ell) % (q - 1))
        if f.trace(f.add(x, y)) == 0:
            els.append(x)
    return DefiningSet(f, tuple(els), label=f"hkm h={h}")


def tr_cubic_set(m: int, f: Field | None = None) -> DefiningSet:
    """Nonzero x in GF(2^m) with Tr(x^3 + x) = 0.

    The size is re-derived from the exponential sum S(1,1) before the
    set is returned; a disagreement aborts construction.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if f is None:
        f = get_field(2, m)
    elif (f.p, f.m) != (2, m):
        raise ValueError(f"field must be GF(2^{m})")
    xs = np.arange(1, f.q, dtype=np.int64)
    vals = f.pow_vec(xs, 3) ^ xs
    els = tuple(int(x) for x in xs[f.TR[vals] == 0])
    s11 = spectra.weil_sum(f, 1, 1)
    if s11 % 2:
        raise AssertionError("S(1,1) must be even")
    n0 = f.q // 2 + s11 // 2
    if len(els) != n0 - 1:
        raise AssertionError(f"set size {len(els)} disagrees with n0 - 1 = {n0 - 1}")
    return DefiningSet(f, els, label=f"trcubic m={m}")


# ----------------------------------------------------------------------
# transport between moduli


@functools.lru_cache(maxsize=32)
def embedding_root(src: Field, dst: Field) -> int:
    """Smallest root in dst of src's modulus; seeds the field isomorphism."""
    if (src.p, src.m) != (dst.p, dst.m):
        raise ValueError("fields must share p and m")
    for z in range(dst.q):
        acc = 0
        for c in reversed(src.modulus):
            acc = dst.add(dst.mul(acc, z), c)
        if acc == 0:
            return z
    raise AssertionError("modulus has no root in an isomorphic field")


def transport(ds: DefiningSet, dst: Field) -> DefiningSet:
    """Image of the set under the isomorphism alpha -> root(dst)."""
    src = ds.field
    if src is dst:
        return ds
    z = embedding_root(src, dst)
    zpows = [1]
    for _ in range(src.m - 1):
        zpows.append(dst.mul(zpows[-1], z))
    mapped = []
    for e in ds.elements:
        acc = 0
        for c, zp in zip(src.coords(e), zpows):
            acc = dst.add(acc, dst.mul(c, zp))
        mapped.append(acc)
    return DefiningSet(dst, tuple(mapped), label=f"{ds.label}@modulus{list(dst.modulus)}")
