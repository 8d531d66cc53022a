import random

import pytest

from dscodes import sets
from dscodes.code import DefiningSet, build_code_weights
from dscodes.field import get_field


@pytest.fixture(scope="session")
def gf16():
    return get_field(2, 4)


@pytest.fixture(scope="session")
def gf32():
    return get_field(2, 5)


@pytest.fixture(scope="session")
def gf27():
    return get_field(3, 3)


@pytest.fixture(scope="session")
def gf9():
    return get_field(3, 2)


def _random_sets(p, m, count, seed):
    f = get_field(p, m)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, min(f.q - 1, 12))
        out.append(DefiningSet(f, tuple(rng.sample(range(f.q), size)), label="random"))
    return out


@pytest.fixture(scope="session")
def code_catalog():
    """Representative defining sets across every family the package
    builds, plus seeded random ones.  Shared by the property suites."""
    catalog = []
    for p, m in [(2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]:
        f = get_field(p, m)
        catalog.append(sets.simplex_coset_reps(f))
    for m in (4, 5, 6):
        catalog.append(sets.tr_cubic_set(get_field(2, m)))
    catalog.append(sets.hkm_set(1, get_field(3, 3)))
    f27 = get_field(3, 3)
    catalog.append(sets.quadratic_form_image(f27, ((0, 0, 1),)))
    catalog.append(sets.complement(sets.tr_cubic_set(get_field(2, 5))))
    prod, complete = sets.product_set((2, 3), sets.simplex_coset_reps(get_field(5, 2)))
    assert complete
    catalog.append(prod)
    catalog += _random_sets(2, 4, 6, seed=11)
    catalog += _random_sets(3, 2, 6, seed=12)
    catalog += _random_sets(5, 2, 4, seed=13)
    catalog += _random_sets(2, 6, 4, seed=14)
    return catalog


@pytest.fixture(scope="session")
def catalog_with_weights(code_catalog):
    return [(ds, build_code_weights(ds)) for ds in code_catalog]
