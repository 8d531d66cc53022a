"""Closed-form weight distributions and their brute-force verification.

Each claim pairs a prediction with an independent construction.  The
prediction side only evaluates closed formulas (or transforms a base
distribution it is handed); the construction side only enumerates
codewords.  A report compares the two and carries the hypothesis
checks, so a failed precondition is distinguishable from a falsified
formula.

A claim has one name, its token: the key of its row in `CLAIMS`, the
CLI's `--claim` value and the `claim` of every report built for it.

`verify` and `scan` hand their built instances to one runner,
`_run_all`: a batch of one and every instance of a scan.  It enumerates
the sets that holding instances construct over one field in chunks of
max(1, BATCH_CELLS // (q*p)) sets, one kernel call a chunk.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import code, sets, spectra
from .code import (
    DefiningSet,
    WeightDistribution,
    _route,
    build_code_weights,
    weight_distributions,
)
from .field import Field, get_field

DEFAULT_SEED = 101
EXPANSION_TRIALS = 40  # random (D, E) pairs per thm1prop sweep
REFLECTABLE_TRIES = 400  # random base sets a cor3 draw tries before it gives up

VERDICT_MATCH = "match"
VERDICT_MISMATCH = "mismatch"
VERDICT_HYPOTHESIS = "hypothesis-not-met"


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class TheoremReport:
    claim: str  # the CLAIMS token
    params: dict
    verdict: str
    hypothesis_checks: tuple[HypothesisCheck, ...]
    predicted: WeightDistribution | None
    computed: WeightDistribution | None
    first_diff: dict | None

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "hypothesis_checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.hypothesis_checks
            ],
            "predicted": None if self.predicted is None else self.predicted.to_json_dict(),
            "computed": None if self.computed is None else self.computed.to_json_dict(),
            "first_diff": self.first_diff,
        }


def _first_diff(predicted: WeightDistribution, computed: WeightDistribution) -> dict:
    if predicted.n != computed.n:
        return {"field": "n", "predicted": predicted.n, "computed": computed.n}
    if predicted.k != computed.k:
        return {"field": "k", "predicted": predicted.k, "computed": computed.k}
    # a merge of the ascending pairs: past their common prefix, the smaller
    # weight of the first differing pair is the first differing entry
    end = (predicted.n + 1, 0)
    for (w, a), (v, b) in itertools.zip_longest(predicted.pairs, computed.pairs, fillvalue=end):
        if (w, a) != (v, b):
            u = min(w, v)
            return {"field": "A_w", "w": u, "predicted": a if w == u else 0,
                    "computed": b if v == u else 0}
    raise AssertionError("distributions differ but no differing entry found")


# ----------------------------------------------------------------------
# distribution transforms (prediction side of the structural claims)


def stretch_distribution(wd: WeightDistribution, ell: int) -> WeightDistribution:
    """Every nonzero weight scaled by ell, length scaled likewise."""
    if ell < 1:
        raise ValueError("ell must be positive")
    pairs = tuple((w * ell, a) for w, a in wd.pairs)
    return WeightDistribution(wd.p, wd.m, wd.n * ell, wd.k, pairs)


def mirror_distribution(wd: WeightDistribution, pivot: int, new_n: int) -> WeightDistribution:
    """Nonzero weights reflected to pivot - w; dimension carried over.  The
    reflection reverses the ascending pairs, so only its two ends can
    leave [1, new_n]."""
    pairs = wd.pairs
    if pairs and not (pivot - pairs[-1][0] >= 1 and pivot - pairs[0][0] <= new_n):
        r = next(pivot - w for w, _ in pairs if not 1 <= pivot - w <= new_n)
        raise ArithmeticError(
            f"reflected weight {r} falls outside [1, {new_n}]; "
            "the base distribution violates the reflection preconditions"
        )
    reflected = tuple((pivot - w, a) for w, a in pairs[::-1])
    return WeightDistribution(wd.p, wd.m, new_n, wd.k, reflected)


# ----------------------------------------------------------------------
# closed-form predictions


def predict_simplex(p: int, m: int) -> WeightDistribution:
    q = p**m
    return WeightDistribution(p, m, (q - 1) // (p - 1), m, ((p ** (m - 1), q - 1),))


def predict_scaled_simplex(p: int, m: int, ell: int) -> WeightDistribution:
    if not 1 <= ell <= p - 1:
        raise ValueError("ell must be the size of a subset of GF(p)*")
    q = p**m
    return WeightDistribution(p, m, ell * (q - 1) // (p - 1), m, ((ell * p ** (m - 1), q - 1),))


def predict_quadratic_odd_rank(p: int, m: int, e: int) -> WeightDistribution:
    q = p**m
    n, rem = divmod((e - 1) * q + 1, e)
    if rem:
        raise ArithmeticError(f"e = {e} does not divide (e-1)q + 1")
    w, rem = divmod((e - 1) * (p - 1) * q, e * p)
    if rem:
        raise ArithmeticError("predicted weight is not an integer")
    return WeightDistribution(p, m, n, m, ((w, q - 1),))


def predict_quadratic_even_rank(p: int, m: int, e: int, r: int) -> WeightDistribution:
    if r % 2 or r < 2:
        raise ValueError("rank must be even and at least 2")
    q = p**m
    n, rem = divmod((e - 1) * q + 1, e)
    if rem:
        raise ArithmeticError(f"e = {e} does not divide (e-1)q + 1")
    shift = p ** (m - r // 2)
    lo, rem_lo = divmod((p - 1) * ((e - 1) * q - shift), e * p)
    hi, rem_hi = divmod((p - 1) * ((e - 1) * q + shift), e * p)
    if rem_lo or rem_hi:
        raise ArithmeticError("predicted weights are not integers")
    half = (q - 1) // 2
    return WeightDistribution(p, m, n, m, ((lo, half), (hi, half)))


def predict_boolean_complement(spectrum: spectra.WalshSpectrum) -> WeightDistribution:
    """Weights of the code on the nonzero zeros of f, from f's spectrum."""
    f = spectrum.field
    q = f.q
    wts, rems = np.divmod(2 * (q - spectrum.n_f) - spectrum.values[1:], 4)
    bad = np.flatnonzero((rems != 0) | (wts <= 0))
    if bad.size:
        w = int(bad[0])
        if rems[w]:
            raise ArithmeticError(f"weight formula not divisible by 4 at w = {w + 1}")
        raise ArithmeticError(f"nonpositive predicted weight at w = {w + 1}")
    weights, counts = np.unique(wts, return_counts=True)  # ascending weights
    pairs = tuple(zip(weights.tolist(), counts.tolist()))
    return WeightDistribution(2, f.m, q - spectrum.n_f - 1, f.m, pairs)


def predict_half_orbit_complement(h: int) -> WeightDistribution:
    if h < 1 or h % 2 == 0:
        raise ValueError("h must be odd and positive")
    m = 3 * h
    mid = 5 * 3 ** (3 * h - 2)
    off = 3 ** (2 * h - 2)
    pairs = (
        (mid - off, 3 ** (2 * h) - 3**h),
        (mid, 3 ** (3 * h) - 2 * 3 ** (2 * h) - 1),
        (mid + off, 3 ** (2 * h) + 3**h),
    )
    n = (5 * 3 ** (3 * h - 1) + 1) // 2
    return WeightDistribution(3, m, n, m, pairs)


def predict_cubic_trace_odd(m: int) -> WeightDistribution:
    if m % 2 == 0 or m < 5:
        raise ValueError("m must be odd and at least 5")
    eps = (-1) ** ((m * m - 1) // 8)
    n = 2 ** (m - 1) - 1 + eps * 2 ** ((m - 1) // 2)
    u, v = 2 ** (m - 2), 2 ** ((m - 3) // 2)
    a_low = u + v - (1 + eps) // 2
    a_high = u - v + (eps - 1) // 2
    pairs = ((u + (eps - 1) * v, a_low), (u + eps * v, 2 ** (m - 1)), (u + (eps + 1) * v, a_high))
    return WeightDistribution(2, m, n, m, tuple((w, a) for w, a in pairs if a > 0))


def predict_cubic_trace_even(m: int) -> WeightDistribution:
    if m % 2 or m < 4:
        raise ValueError("m must be even and at least 4")
    u = 2 ** (m - 2)
    if m % 4 == 2:
        v = 2 ** ((m - 2) // 2)
        pairs = (
            (u - v, 2 ** (m - 3) + 2 ** ((m - 4) // 2)),
            (u, 3 * 2 ** (m - 2) - 1),
            (u + v, 2 ** (m - 3) - 2 ** ((m - 4) // 2)),
        )
        n = 2 ** (m - 1) - 1
    else:
        delta = (-1) ** (m // 4)
        v = 2 ** ((m - 2) // 2)
        n = 2 ** (m - 1) - 1 - delta * 2 ** (m // 2)
        # ascending for delta = 1 and for delta = -1
        pairs = (
            (u - (delta + 1) * v, 2 ** (m - 3) + 2 ** ((m - 4) // 2) + (delta - 1) // 2),
            (u - delta * v, 3 * 2 ** (m - 2)),
            (u - (delta - 1) * v, 2 ** (m - 3) - 2 ** ((m - 4) // 2) - (delta + 1) // 2),
        )
    return WeightDistribution(2, m, n, m, tuple((w, a) for w, a in pairs if a > 0))


# ----------------------------------------------------------------------
# claim instances: one `build` function per claim; `verify` and `scan`
# hand the built instances to `_run_all`


@dataclass
class Instance:
    """One built claim instance.  `predict` and `construct` run only
    when every check passed; `construct` returns the set to enumerate,
    or a distribution a check already enumerated."""

    claim: str  # the CLAIMS token
    params: dict
    checks: list[HypothesisCheck]
    predict: Callable[[], WeightDistribution] | None = None
    construct: Callable[[], DefiningSet | WeightDistribution] | None = None

    @property
    def holds(self) -> bool:
        return all(c.passed for c in self.checks)


def _product_check(ell: int, base: DefiningSet, product: DefiningSet, complete: bool):
    return HypothesisCheck(
        "product-size-complete", complete, f"|E||D| = {ell * base.n}, |ED| = {product.n}"
    )


def _expansion(field, arg) -> Instance:
    """Thm 1: E*D is the base code with every weight stretched by |E|.
    arg = (E digits, base set)."""
    e_digits, base = arg
    f = base.field
    product, complete = sets.product_set(e_digits, base)
    ell = len(set(int(e) for e in e_digits))
    params = {
        "p": f.p, "m": f.m, "ell": ell, "base": base.label or f"n={base.n}",
        "product_n": product.n,
    }
    return Instance(
        "thm1", params, [_product_check(ell, base, product, complete)],
        lambda: stretch_distribution(build_code_weights(base), ell), lambda: product,
    )


def _simplex(f: Field, _arg) -> Instance:
    """Cor 1: the simplex set gives a one-weight code."""
    return Instance(
        "cor1", {"p": f.p, "m": f.m}, [],
        lambda: predict_simplex(f.p, f.m), lambda: sets.simplex_coset_reps(f),
    )


def _scaled_simplex(field, arg) -> Instance:
    """Cor 2: E times the simplex set is one-weight at |E| p^(m-1).
    arg = (E digits, simplex set), as thm1 takes it, so a scan builds the
    simplex once a field."""
    e_digits, base = arg
    f = base.field
    product, complete = sets.product_set(e_digits, base)
    digits = sorted(set(int(e) for e in e_digits))
    ell = len(digits)
    return Instance(
        "cor2", {"p": f.p, "m": f.m, "ell": ell, "E": digits},
        [_product_check(ell, base, product, complete)],
        lambda: predict_scaled_simplex(f.p, f.m, ell), lambda: product,
    )


def _split(field, arg) -> Instance:
    """Thm 2: the halves of a one-weight union mirror each other.
    arg = (first half, second half)."""
    d1, d2 = arg
    f = d1.field
    params = {
        "p": f.p, "m": f.m,
        "d1": d1.label or f"n={d1.n}", "d2": d2.label or f"n={d2.n}",
        "n1": d1.n, "n2": d2.n,
    }
    overlap = int(np.count_nonzero(d1.mask & d2.mask))
    inst = Instance(
        "thm2", params,
        [HypothesisCheck("parts-disjoint", not overlap, f"overlap size {overlap}")],
    )
    if overlap:
        return inst
    union_wd, wd1, wd2 = weight_distributions([sets.union_disjoint(d1, d2), d1, d2])
    weights = [w for w, _ in union_wd.nonzero_items()]
    inst.checks.append(
        HypothesisCheck("union-one-weight", len(weights) == 1, f"union weights {weights}")
    )
    inst.checks.append(
        HypothesisCheck(
            "equal-dimensions", wd1.k == union_wd.k and wd2.k == union_wd.k,
            f"k_union = {union_wd.k}, k1 = {wd1.k}, k2 = {wd2.k}",
        )
    )
    if inst.holds:
        pivot = weights[0]
        params["w"] = pivot
        inst.predict = lambda: mirror_distribution(wd1, pivot, d2.n)
        inst.construct = lambda: wd2
    return inst


def _split_off_rest(first: DefiningSet) -> tuple[DefiningSet, DefiningSet]:
    """The two halves of thm2 from its first: the rest of the units."""
    f = first.field
    rest = np.concatenate(([False], ~first.mask[1:]))
    if not rest.any():
        raise ValueError("the first half covers every unit; nothing is left")
    return first, DefiningSet.from_mask(f, rest, label="rest-of-units")


def _complement(field, base: DefiningSet) -> Instance:
    """Cor 3: the complement's weights are the base's reflected.  A
    complement no weight route fits is refused before the base is enumerated."""
    f = base.field
    _route(f.p, f.m, f.q - base.n)
    return _reflection(base, build_code_weights(base))


def _reflection(base: DefiningSet, base_wd: WeightDistribution) -> Instance:
    """The cor3 instance on base, from its enumerated distribution."""
    f = base.field
    full_weight = (f.p - 1) * f.p ** (f.m - 1)
    checks = [
        HypothesisCheck("full-dimension", base_wd.k == f.m, f"k = {base_wd.k}, m = {f.m}"),
        HypothesisCheck(
            "max-weight-below-full",
            base_wd.w_max is not None and base_wd.w_max < full_weight,
            f"max weight {base_wd.w_max}, bound {full_weight}",
        ),
    ]
    return Instance(
        "cor3",
        {"p": f.p, "m": f.m, "base": base.label or f"n={base.n}", "n": base.n}, checks,
        lambda: mirror_distribution(base_wd, full_weight, f.q - base.n),
        lambda: sets.complement(base),
    )


def _quadratic(field: Field, terms) -> Instance:
    """Cor 4: the complement of a quadratic form's image, routed to the
    odd- or even-rank claim by the form's rank."""
    p, m = field.p, field.m
    terms = sets.quadratic_form_terms(field, terms)
    table = sets.evaluate_quadratic_form(field, terms)
    e = sets.is_e_to_1(table)
    r = sets.quadratic_form_rank(field, table)
    even = r % 2 == 0
    inst = Instance(
        "cor4even" if even else "cor4odd",
        {"p": p, "m": m, "terms": [list(t) for t in terms], "e": e, "r": r},
        [
            # the closed forms come from an odd-characteristic evaluation;
            # at p = 2 they can predict non-integral weights even when the
            # printed preconditions hold (x^3 over GF(16) is such a case)
            HypothesisCheck("p-odd", p % 2 == 1, f"p = {p}"),
            HypothesisCheck(
                "form-e-to-1-nonvanishing", e is not None,
                "f(0) = 0, no zero on units, all unit fibers equal" if e else "fiber profile uneven or form vanishes off the origin",
            ),
            HypothesisCheck("e-at-least-2", e is not None and e > 1, f"e = {e}"),
            HypothesisCheck("rank-even-at-least-2", r >= 2, f"r = {r}") if even
            else HypothesisCheck("rank-odd", r % 2 == 1, f"r = {r}"),
        ],
    )
    if not inst.holds:
        return inst
    try:
        predicted = (
            predict_quadratic_even_rank(p, m, e, r) if even
            else predict_quadratic_odd_rank(p, m, e)
        )
    except ArithmeticError as exc:
        inst.checks.append(HypothesisCheck("weights-integral", False, str(exc)))
        return inst
    inst.checks.append(HypothesisCheck("weights-integral", True, ""))
    # the closures hold the q-byte image, not the 4-byte-a-cell value table
    image = sets.form_image(field, table, f"qf-image e={e} r={r}")
    inst.predict = lambda: predicted
    inst.construct = lambda: sets.complement(image)
    return inst


def _boolean_complement(field: Field, table) -> Instance:
    """Cor 5: the code on the nonzero zeros of a Boolean function, from
    the function's Walsh spectrum."""
    if field.p != 2:
        raise ValueError("Boolean claims need p = 2")
    spectrum = spectra.walsh_transform(field, table)  # refuses a table that is not q bits
    mask = np.asarray(table, dtype=bool)
    q, n_f = field.q, spectrum.n_f
    inst = Instance(
        "cor5", {"p": 2, "m": field.m, "n_f": n_f},
        [
            HypothesisCheck("vanishes-at-origin", not mask[0], f"f(0) = {int(mask[0])}"),
            HypothesisCheck("not-identically-zero", n_f > 0, f"n_f = {n_f}"),
            HypothesisCheck("zeros-exist-off-origin", n_f <= q - 2, f"n_f = {n_f}, q = {q}"),
        ],
    )
    if not inst.holds:
        return inst
    nonzero_vals = spectrum.values[1:]
    avoid = not (nonzero_vals == 2 * n_f).any()
    top = int(nonzero_vals.max())
    inst.checks.append(
        HypothesisCheck(
            "spectrum-avoids-2nf", avoid,
            f"2 n_f = {2 * n_f}" + ("" if avoid else " is attained"),
        )
    )
    inst.checks.append(
        HypothesisCheck(
            "spectrum-below-twice-zero-count", top < 2 * (q - n_f),
            f"max transform {top}, bound {2 * (q - n_f)}",
        )
    )
    zeros = np.concatenate(([False], ~mask[1:]))
    inst.predict = lambda: predict_boolean_complement(spectrum)
    inst.construct = lambda: DefiningSet.from_mask(field, zeros, label=f"bool-zeros n_f={n_f}")
    return inst


def _half_orbit(field, h: int) -> Instance:
    """Thm 3: the complement of the half-orbit set over GF(3^(3h))."""
    return Instance(
        "thm3", {"p": 3, "h": h, "m": 3 * h},
        [
            HypothesisCheck("h-positive", h >= 1, f"h = {h}"),
            HypothesisCheck("h-odd", h % 2 == 1, f"h = {h}"),
        ],
        lambda: predict_half_orbit_complement(h),
        lambda: sets.complement(sets.hkm_set(h, get_field(3, 3 * h))),
    )


def _cubic_trace(claim: str, odd: bool, floor: int, predict):
    """Thm 4 / Thm 5: the set Tr(x^3 + x) = 0 for odd / even m."""
    def build(f: Field, _arg) -> Instance:
        m = f.m
        return Instance(
            claim, {"p": 2, "m": m},
            [
                HypothesisCheck("m-odd" if odd else "m-even", (m % 2 == 1) == odd, f"m = {m}"),
                HypothesisCheck(f"m-at-least-{floor}", m >= floor, f"m = {m}"),
            ],
            lambda: predict(m), lambda: sets.tr_cubic_set(f),
        )
    return build


# ----------------------------------------------------------------------
# randomized structural test for the expansion claim


@dataclass(frozen=True)
class ExpansionPropertyReport:
    p: int
    m: int
    seed: int
    trials: int
    complete_trials: int
    incomplete_trials: int
    all_matched: bool
    counterexample: dict

    @property
    def verdict(self) -> str:
        return VERDICT_MATCH if self.all_matched else VERDICT_MISMATCH

    def to_json_dict(self) -> dict:
        return {
            "claim": "thm1prop",
            "p": self.p, "m": self.m, "seed": self.seed, "trials": self.trials,
            "complete_trials": self.complete_trials,
            "incomplete_trials": self.incomplete_trials,
            "all_matched": self.all_matched,
            "counterexample": self.counterexample,
            "verdict": self.verdict,
        }


def _expansion_sweep(f: Field, seed: int) -> ExpansionPropertyReport:
    """Random (D, E) pairs: when |ED| = |E||D| the stretched distribution
    must match; a deterministic incomplete pair shows the hypothesis is
    not removable.
    """
    p = f.p
    if p < 3:
        raise ValueError("needs p >= 3 so GF(p)* has nontrivial subsets")
    rng = random.Random(seed)
    pairs = []  # (|E|, D, ED) of each complete trial
    for _ in range(EXPANSION_TRIALS):
        d_size = rng.randint(1, min(8, f.q - 1))
        d = DefiningSet(f, tuple(rng.sample(range(1, f.q), d_size)), label="random")
        e_digits = tuple(rng.sample(range(1, p), rng.randint(1, p - 1)))
        product, complete = sets.product_set(e_digits, d)
        if complete:
            pairs.append((len(set(e_digits)), d, product))

    # deterministic incomplete pair: D = {1, 2} is closed under the
    # scalar 2, so E = {1, 2} collapses products and the stretch fails
    two = 2 % p
    d0 = DefiningSet(f, (1, two), label="proportional-pair")
    product, complete = sets.product_set((1, two), d0)
    *wds, base_wd, prod_wd = weight_distributions(
        [s for _, d, prod in pairs for s in (d, prod)] + [d0, product]
    )
    all_matched = all(
        stretch_distribution(d_wd, ell) == ed_wd
        for (ell, _, _), d_wd, ed_wd in zip(pairs, wds[::2], wds[1::2])
    )
    stretched = stretch_distribution(base_wd, 2)
    counterexample = {
        "D": [1, two],
        "E": [1, two],
        "product_size": product.n,
        "complete": complete,
        "stretched_n": stretched.n,
        "product_n": prod_wd.n,
        "conclusion_holds": stretched == prod_wd,
    }
    if complete or stretched == prod_wd:
        all_matched = False
    return ExpansionPropertyReport(
        p=p, m=f.m, seed=seed, trials=EXPANSION_TRIALS,
        complete_trials=len(pairs), incomplete_trials=EXPANSION_TRIALS - len(pairs),
        all_matched=all_matched, counterexample=counterexample,
    )


# ----------------------------------------------------------------------
# scan families: (build, p, value, rng, trials) -> the built instances to run


def _all_nonempty_subsets(universe):
    universe = list(universe)
    out = []
    for mask in range(1, 1 << len(universe)):
        out.append(tuple(universe[i] for i in range(len(universe)) if mask >> i & 1))
    return out


def _one_per_m(parity: int | None = None, arg=lambda f: None):
    """One instance per m (of one parity, if given), its arg made from the field."""
    def family(build, p, m, rng, trials):
        if parity not in (None, m % 2):
            return []
        f = get_field(p, m)
        return [build(f, arg(f))]
    return family


def _scalar_subsets(build, p, m, rng, trials):
    if p > 13:
        raise ValueError("subset scan is limited to p <= 13")
    f = get_field(p, m)
    simplex = sets.simplex_coset_reps(f)
    for e_digits in _all_nonempty_subsets(range(1, p)):
        yield build(f, (e_digits, simplex))


def _reflectable_sets(build, p, m, rng, trials):
    """`trials` cor3 instances, each on the first random D after the last
    kept one that meets the hypotheses, or ValueError after
    REFLECTABLE_TRIES misses in a row.

    Drawn in rounds of as many candidates as trials are left, at most
    max(1, code.BATCH_CELLS // q): a round never draws past the last
    candidate a walk of one candidate at a time would draw, so rng moves
    exactly as it would.  A round's bases are enumerated in one call, as
    the hypotheses read their distributions; the complements of the ones
    that hold are built by `construct` and batched by `_run_all`."""
    f = get_field(p, m)
    if f.q - 2 < f.m:
        raise ValueError(f"GF({f.p}^{f.m}) is too small for cor3: D needs m to q - 2 elements")
    misses = 0
    while trials:
        bases = []
        for _ in range(min(trials, max(1, code.BATCH_CELLS // f.q))):
            size = rng.randint(f.m, min(f.q - 2, f.m + 6))
            bases.append(DefiningSet(f, rng.sample(range(f.q), size), label="random"))
        # the largest complement, as refusal is monotone in n: an unfit
        # complement is refused before any base is enumerated
        _route(f.p, f.m, f.q - min(base.n for base in bases))
        for base, wd in zip(bases, weight_distributions(bases)):
            inst = _reflection(base, wd)
            misses = 0 if inst.holds else misses + 1
            if misses == REFLECTABLE_TRIES:
                # a range too small to hold such a set is a usage error, not a falsification
                raise ValueError("could not sample a set meeting the reflection hypotheses")
            if inst.holds:
                trials -= 1
                yield inst


def _diagonal_forms(claim: str):
    """x^(p^s + 1) for the s whose instance is this claim's, with e not in {None, 1}."""
    def family(build, p, m, rng, trials):
        f = get_field(p, m)
        for s in range(m):
            inst = build(f, ((s, 0, 1),))
            if inst.claim == claim and inst.params["e"] not in (None, 1):
                yield inst
    return family


# ----------------------------------------------------------------------
# the claim registry


@dataclass(frozen=True)
class ClaimSpec:
    """Everything `verify`, `scan` and the CLI know about one claim."""

    token: str  # the claim's one name: CLI token, CLAIMS key, report claim
    default_p: int  # p when none is given
    build: Callable[..., Instance] | None = None  # (field, arg) -> one instance
    fixed_p: bool = False  # refuse any p but default_p
    # (build, p, value of the parameter, rng, trials) -> the built instances a scan runs
    family: Callable | None = None
    # (field, the CLI's --set reader) -> arg; None: the claim takes no --set
    parse_set: Callable | None = None
    param: str = "m"  # "h": instances take h and build their own GF(3^(3h))
    sweep: Callable | None = None  # (field, seed) -> a seeded randomized report
    seeded: str = ""  # the subcommand whose route reads --seed: "verify" (sweep) or "scan"

    def field_p(self, p: int | None) -> int:
        if p is None:
            return self.default_p
        if self.fixed_p and p != self.default_p:
            kind = {2: "binary", 3: "ternary"}[self.default_p]
            raise ValueError(f"{self.token} is a {kind} claim")
        return p

    def degree(self, value: int) -> int:
        """m of the field GF(p^m) that a parameter value lives in."""
        return 3 * value if self.param == "h" else value


def _digits_and_simplex(f: Field, option):
    """The arg of thm1 and cor2 from --set: (E digits, simplex set)."""
    return option.digits(f), sets.simplex_coset_reps(f)


CLAIMS = {spec.token: spec for spec in (
    ClaimSpec("thm1", 3, _expansion, parse_set=_digits_and_simplex),
    ClaimSpec("thm1prop", 3, sweep=_expansion_sweep, seeded="verify"),
    ClaimSpec("cor1", 3, _simplex, family=_one_per_m()),
    ClaimSpec("cor2", 3, _scaled_simplex, family=_scalar_subsets, parse_set=_digits_and_simplex),
    ClaimSpec("thm2", 2, _split, parse_set=lambda f, s: _split_off_rest(s.defining_set(f))),
    ClaimSpec("cor3", 2, _complement, family=_reflectable_sets,
              parse_set=lambda f, s: s.defining_set(f), seeded="scan"),
    ClaimSpec("cor4odd", 3, _quadratic, family=_diagonal_forms("cor4odd"),
              parse_set=lambda f, s: s.terms()),
    ClaimSpec("cor4even", 3, _quadratic, family=_diagonal_forms("cor4even"),
              parse_set=lambda f, s: s.terms()),
    ClaimSpec("cor5", 2, _boolean_complement, fixed_p=True,
              family=_one_per_m(arg=spectra.tr_cubic_table), parse_set=lambda f, s: s.table(f)),
    ClaimSpec("thm3", 3, _half_orbit, fixed_p=True, param="h",
              family=lambda build, p, h, rng, trials: [build(None, h)] if h % 2 == 1 else []),
    ClaimSpec("thm4", 2, _cubic_trace("thm4", True, 5, predict_cubic_trace_odd),
              fixed_p=True, family=_one_per_m(parity=1)),
    ClaimSpec("thm5", 2, _cubic_trace("thm5", False, 4, predict_cubic_trace_even),
              fixed_p=True, family=_one_per_m(parity=0)),
)}


def _report(inst: Instance, predicted=None, computed=None) -> TheoremReport:
    """The instance's report: the prediction against the enumeration when
    they are given, else a hypothesis not met."""
    verdict, diff = VERDICT_HYPOTHESIS, None
    if predicted is not None:
        verdict = VERDICT_MATCH if predicted == computed else VERDICT_MISMATCH
        if verdict == VERDICT_MISMATCH:
            diff = _first_diff(predicted, computed)
    return TheoremReport(
        inst.claim, inst.params, verdict, tuple(inst.checks), predicted, computed, diff
    )


def _run_all(insts) -> list[TheoremReport]:
    """One report per instance, in order.  Each instance is predicted and
    constructed as it is reached, when every hypothesis holds.

    The sets that the instances construct over one field are held and
    enumerated in one `weight_distributions` call once
    max(1, code.BATCH_CELLS // (q*p)) of them are held, or when a set of
    another field comes, or at the end.  So past BATCH_CELLS cells each
    instance is enumerated before the next one is built, and no instance
    is kept past its chunk."""
    reports = []  # a None stands for a held instance's report
    held = []  # (index in reports, instance, predicted, set), all over one field

    def enumerate_held():
        for (i, inst, predicted, _), wd in zip(held, weight_distributions([h[3] for h in held])):
            reports[i] = _report(inst, predicted, wd)
        held.clear()

    for inst in insts:
        if not inst.holds:
            reports.append(_report(inst))
            continue
        predicted, computed = inst.predict(), inst.construct()
        if not isinstance(computed, DefiningSet):
            reports.append(_report(inst, predicted, computed))
            continue
        f = computed.field
        if held and held[0][3].field is not f:
            enumerate_held()
        held.append((len(reports), inst, predicted, computed))
        reports.append(None)
        if len(held) >= max(1, code.BATCH_CELLS // (f.q * f.p)):
            enumerate_held()
    if held:
        enumerate_held()
    return reports


def _run(inst: Instance) -> TheoremReport:
    """One instance's report: the batch of one."""
    (report,) = _run_all([inst])
    return report


def verify(claim, field=None, arg=None, *, seed: int = DEFAULT_SEED):
    """One instance of the claim with token `claim`, with `field` and `arg`
    as its row takes them: built, then run.  Rows with a sweep (thm1prop)
    return an ExpansionPropertyReport."""
    spec = CLAIMS[claim]
    if spec.sweep is not None:
        return spec.sweep(field, seed)
    return _run(spec.build(field, arg))


def scan(
    claim: str, values, *, p: int | None = None, trials: int = 100, seed: int = DEFAULT_SEED
) -> list[TheoremReport]:
    """One report per instance the claim's family builds for each value,
    an m or an h as the row's `param` says."""
    spec = CLAIMS[claim]
    if spec.family is None:
        raise ValueError(f"no scan family for {spec.token}")
    p = spec.field_p(p)
    rng = random.Random(seed)
    return _run_all(
        inst for value in values for inst in spec.family(spec.build, p, value, rng, trials)
    )


def scan_summary(reports) -> dict:
    out = {"total": len(reports), VERDICT_MATCH: 0, VERDICT_MISMATCH: 0, VERDICT_HYPOTHESIS: 0}
    for r in reports:
        out[r.verdict] += 1
    return out
