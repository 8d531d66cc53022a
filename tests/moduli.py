"""One GF(p^m) under two moduli: the harness of the modulus-invariance tests.

`alternate_field` picks the next irreducible modulus, `transport` carries
a defining set across along the isomorphism alpha -> a root in the target
field of the source modulus.  It walks the elements one at a time, so keep
it to small q.
"""

import functools

from dscodes.code import DefiningSet
from dscodes.field import Field, get_field, iter_irreducible_moduli


def alternate_field(field: Field) -> Field:
    """Same GF(p^m) under the next irreducible modulus in lexicographic order."""
    for mod in iter_irreducible_moduli(field.p, field.m):
        if mod != field.modulus:
            return get_field(field.p, field.m, mod)
    raise ValueError(f"GF({field.p}^{field.m}) has a single irreducible modulus")


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
