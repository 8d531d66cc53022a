"""Constructors and algebra for defining sets.

Families covered: one representative per GF(p)* coset of GF(q)* (the
simplex set), scalar products E*D, complements, disjoint unions, images
of quadratic forms given as sparse exponent terms, supports of Boolean
functions, the ternary set cut out by Tr(x + x^l) with the Kasami-type
exponent l = 3^(2h) - 3^h + 1 over GF(3^(3h)), and the binary set cut
out by Tr(x^3 + x).

The family constructors are a few array operations over GF(q) that end
in a membership mask.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from . import spectra
from .code import DefiningSet
from .field import TABLE_BLOCK, Field, rank_mod_p


def simplex_coset_reps(f: Field) -> DefiningSet:
    """alpha^t for 0 <= t < (q-1)/(p-1): one representative per coset of GF(p)*."""
    n = (f.q - 1) // (f.p - 1)
    return DefiningSet(f, f.EXP[:n], label=f"simplex p={f.p} m={f.m}")


def product_set(e_digits, ds: DefiningSet) -> tuple[DefiningSet, bool]:
    """E*D for E a subset of GF(p)*.

    Returns the set and a flag telling whether |E*D| = |E| * |D|; the
    expansion theorems only speak about the case where the flag is True.
    """
    f = ds.field
    for e in e_digits:  # before the set is built: a range of digits can be long
        if not (isinstance(e, numbers.Integral) and 1 <= e < f.p):
            raise ValueError(f"E must sit inside GF(p)*, got {e}")
    e_digits = tuple(sorted(set(int(e) for e in e_digits)))
    if not e_digits:
        raise ValueError("E must be nonempty")
    # one gather of e*d = alpha^(log e + log d) over E x D*, log e + log d
    # inside EXP's 2(q - 1) cells; 0, first of the ascending elements, is e*0
    hit = np.zeros(f.q, dtype=bool)
    hit[f.EXP[f.LOG[list(e_digits)][:, None] + f.LOG[ds.elements[int(ds.mask[0]):]]]] = True
    hit[0] = ds.mask[0]
    label = f"product E={{{','.join(map(str, e_digits))}}} of {ds.label or 'set'}"
    prods = DefiningSet.from_mask(f, hit, label=label)
    return prods, prods.n == len(e_digits) * ds.n


def complement(ds: DefiningSet, rest=None) -> DefiningSet:
    """GF(q) minus the set.  Contains 0 whenever the set does not.  rest,
    when given, is ~ds.mask already made: a row of a batch's complements."""
    f = ds.field
    if ds.n == f.q:
        raise ValueError("complement is empty")
    # ~mask, or a row of a fresh ~block, marks the q - n codes outside the set: held as it is
    label = f"complement-of:{ds.label or 'set'}"
    rest = ~ds.mask if rest is None else rest
    return DefiningSet.__new__(DefiningSet)._hold(f, rest, label, f.q - ds.n)


def union_disjoint(a: DefiningSet, b: DefiningSet) -> DefiningSet:
    if a.field is not b.field:
        raise ValueError("sets live in different fields")
    overlap = np.flatnonzero(a.mask & b.mask)
    if overlap.size:
        raise ValueError(f"sets overlap in {overlap.tolist()}")
    return DefiningSet.from_mask(
        a.field, a.mask | b.mask, label=f"union({a.label or 'a'}, {b.label or 'b'})"
    )


# ----------------------------------------------------------------------
# quadratic forms f(x) = sum a_ij x^(p^i + p^j), given as (i, j, a_ij) terms


def quadratic_form_terms(f: Field, terms) -> tuple:
    """The terms as checked (i, j, a) ints; a float is refused, not truncated."""
    terms = tuple((i, j, a) for i, j, a in terms)
    if not terms:
        raise ValueError("no quadratic form terms given")
    for i, j, a in terms:
        if not all(isinstance(v, numbers.Integral) for v in (i, j, a)):
            raise ValueError(f"quadratic form term {(i, j, a)} is not three integers")
        if not (0 <= i < f.m and 0 <= j < f.m):
            raise ValueError(f"exponent indices ({i}, {j}) outside [0, m)")
        if not 0 < a < f.q:
            raise ValueError("term coefficients must be nonzero field elements")
    return tuple((int(i), int(j), int(a)) for i, j, a in terms)


def evaluate_quadratic_form(f: Field, terms) -> np.ndarray:
    """Value table of f over all of GF(q), in EXP's dtype.  The readers below
    take this table, so a form is evaluated once however much is read off it."""
    terms = quadratic_form_terms(f, terms)
    values = (f.scalar_mul_vec(a, f.power_table(f.p**i + f.p**j)) for i, j, a in terms)
    return functools.reduce(f.add_vec, values)


def form_image(f: Field, table, label: str) -> DefiningSet:
    """Nonzero values the table takes on GF(q)*."""
    image = np.zeros(f.q, dtype=bool)
    image[table[1:]] = True
    image[0] = False
    if not image.any():
        raise ValueError("form vanishes on all of GF(q)*")
    return DefiningSet.from_mask(f, image, label=label)


def quadratic_form_image(f: Field, terms) -> DefiningSet:
    """Nonzero values taken by the form on GF(q)*."""
    terms = quadratic_form_terms(f, terms)
    label = "qf:" + ";".join(f"{i},{j},{a}" for i, j, a in terms)
    return form_image(f, evaluate_quadratic_form(f, terms), label)


def quadratic_form_rank(f: Field, table) -> int:
    """Rank r of the form, m minus the dimension of its radical: the rank
    over GF(p) of the m x m^2 matrix whose row i holds the coordinates of
    B(alpha^i, alpha^j) = f(alpha^i + alpha^j) - f(alpha^i) - f(alpha^j),
    j < m.  B is GF(p)-bilinear, and alpha^i has element code p^i."""
    p, m = f.p, f.m
    pw = p ** np.arange(m)
    sums = pw[:, None] + pw  # alpha^i + alpha^j, but 2 alpha^i on the diagonal
    sums[np.diag_indices(m)] = 2 % p * pw
    pair = table[sums][..., None] // pw % p  # the coordinates of f(alpha^i + alpha^j)
    one = table[pw][:, None] // pw % p  # the coordinates of f(alpha^i)
    return rank_mod_p((pair - one[:, None] - one).reshape(m, m * m), p)


def is_e_to_1(table):
    """e if the form is e-to-1 from GF(q)* onto its image and never 0 there,
    with f(0) = 0 (each value's count on GF(q)* is 0 or e, and 0's is 0);
    otherwise None."""
    if table[0] != 0:
        return None
    counts = np.zeros(len(table), dtype=np.int32)
    for lo in range(1, len(table), TABLE_BLOCK):  # add.at's cast to intp, one block at a time
        np.add.at(counts, table[lo : lo + TABLE_BLOCK], np.int32(1))
    e = int(counts.max())
    # no count is above e, so all the nonzero ones are e iff they sum to e times their number
    if counts[0] or np.count_nonzero(counts) * e != len(table) - 1:
        return None
    return e


# ----------------------------------------------------------------------


def boolean_support(f: Field, mask) -> DefiningSet:
    """Support {x : f(x) = 1} of a Boolean function given as a bool mask."""
    if f.p != 2:
        raise ValueError("Boolean supports need p = 2")
    n_f = int(np.count_nonzero(mask))
    if not n_f:
        raise ValueError("function is identically zero")
    return DefiningSet.from_mask(f, mask, label=f"bool-support n_f={n_f}")


def hkm_exponent(h: int) -> int:
    return 3 ** (2 * h) - 3**h + 1


def hkm_set(h: int, f: Field) -> DefiningSet:
    """Half-orbit set over GF(3^(3h)): alpha^t with Tr(alpha^t + alpha^(t*l)) = 0
    for 0 <= t <= (q-3)/2, l = 3^(2h) - 3^h + 1.  h must be odd."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if h % 2 == 0:
        raise ValueError("h must be odd")
    if (f.p, f.m) != (3, 3 * h):
        raise ValueError(f"field must be GF(3^{3 * h})")
    ts = np.arange((f.q - 1) // 2, dtype=np.int64)
    xs = f.EXP[ts]
    ys = f.EXP[ts * hkm_exponent(h) % (f.q - 1)]
    els = xs[(f.TR[xs] + f.TR[ys]) % 3 == 0]  # Tr(x + x^l) = Tr(x) + Tr(x^l)
    return DefiningSet(f, els, label=f"hkm h={h}")


def tr_cubic_set(f: Field) -> DefiningSet:
    """Nonzero x in GF(2^m) with Tr(x^3 + x) = 0."""
    if f.p != 2 or f.m < 2:
        raise ValueError("field must be GF(2^m) with m >= 2")
    # Tr(x^3 + x) = Tr(x^3) + Tr(x) is 0 where the two traces agree: the
    # truth table of Tr(x^3), compared in place with TR, and 0 left out
    zero = spectra.tr_cubic_table(f)
    np.equal(zero, f.TR.view(bool), out=zero)
    zero[0] = False
    return DefiningSet.from_mask(f, zero, label=f"trcubic m={f.m}")

