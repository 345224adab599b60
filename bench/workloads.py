"""Seeded inputs of the three benchmark workloads.

The generators are the benchmark's own: they build coefficient vectors
from closed formulas (boundary family, gamma = 0 block-certificate
expansion) and never call the library's samplers, so a library change
cannot alter the inputs.  Each workload is one *pass*, a list of form
operations that the timed phase repeats whole.  Forms are drawn in a
fixed round-robin over strata (family, perturbed coefficient, epsilon,
variable count); the seed draws the random parameters inside a stratum.

A pass is a pinned core, drawn from the workload's CORE_SEED and the same
for every seed, followed by a seeded part: a fifth of limit_sweep, a tenth
of large_n, one A7 group of finite_scan.  Per-form cost varies tenfold
inside one stratum (it depends on how the random parameters place the form
against the cone boundary), so passes drawn wholly from the seed differed
by 10-20% in total cost between seeds (interquartile range over ten seeds,
at 48-150 forms).  In finite_scan the median falls in a band where one
form more or less below it moves it by 2%, hence the single seeded group.
Every seed still brings forms of its own, verified like the rest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

_EPS = (Fraction(1, 64), Fraction(1, 256), Fraction(1, 1024))

#: p-vector of the bundled four-variable Choi-Lam form (data/choi_lam.form),
#: copied so that the input does not depend on the library's loader.
CHOI_LAM = (
    Fraction(8),
    Fraction(-160, 3),
    Fraction(-8),
    Fraction(128),
    Fraction(-128, 3),
)

#: The boundary-family member (a, b, c, d) = (1, -13/10, 1, -5/4) of the
#: paper's example 6.10; its boundary status reaches irreducible_factors.
EXAMPLE_6_10 = (
    Fraction(1),
    Fraction(-13, 5),
    Fraction(0),
    Fraction(179, 100),
    Fraction(-51, 400),
)

@dataclass(frozen=True)
class Item:
    """One form operation: a coefficient vector, its scope (an int n, or
    None for the limit) and the family it was drawn from.  ``group`` ties
    the finite_scan forms that share one coefficient vector."""

    family: str
    coeffs: tuple[Fraction, ...]
    n: int | None
    group: int


def _frac(rng: random.Random, bound: int, den: int) -> Fraction:
    return Fraction(rng.randint(-bound * den, bound * den), den)


def _boundary_coeffs(a, b, c, d) -> tuple[Fraction, ...]:
    """Member (a, b, c, d) of the boundary family of the limit cone."""
    return (
        a * a,
        2 * a * b,
        c * c - a * a,
        2 * c * d + b * b - 2 * a * b,
        d * d - b * b,
    )


def _certificate_coeffs(a11, a12, a22, b11, b12, b22) -> tuple[Fraction, ...]:
    """Coefficients of the block decomposition with gamma = 0; they do not
    depend on the scope, so the form is SOS at every n and in the limit."""
    return (b22, 2 * b12, a22 - b22, 2 * a12 + b11 - 2 * b12, a11 - b11)


def _rand_psd(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    l11, l21, l22 = (_frac(rng, 2, 4) for _ in range(3))
    return l11 * l11, l11 * l21, l21 * l21 + l22 * l22


def _rank1(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    u, v = _frac(rng, 2, 4), _frac(rng, 2, 4)
    while u == 0 and v == 0:
        v = _frac(rng, 2, 4)
    return u * u, u * v, v * v


def _boundary_params(rng: random.Random):
    while True:
        a, b, c, d = (_frac(rng, 3, 4) for _ in range(4))
        if a != 0 and (c, d) != (0, 0):
            return a, b, c, d


def _bump(coeffs, idx: int, eps: Fraction) -> tuple[Fraction, ...]:
    out = list(coeffs)
    out[idx] += eps
    return tuple(out)


# ---------------------------------------------------------------------------
# limit_sweep: LIMIT scope, three equal families
# ---------------------------------------------------------------------------

LIMIT_CORE_SEED = 20260825
LIMIT_CORE, LIMIT_SEEDED = 80, 20


def _limit_forms(rng: random.Random, count: int) -> list[Item]:
    """Uniform box, boundary-family members and certificate expansions in
    turn.  The last two cycle through unperturbed, +eps and -eps, with the
    bumped coefficient and eps cycling too."""
    out: list[Item] = []
    for i in range(count):
        k = i // 3
        if i % 3 == 0:
            coeffs = tuple(_frac(rng, 4, 8) for _ in range(5))
            out.append(Item("uniform", coeffs, None, i))
            continue
        if i % 3 == 1:
            family, coeffs = "boundary", _boundary_coeffs(*_boundary_params(rng))
        else:
            family = "certificate"
            coeffs = _certificate_coeffs(*_rand_psd(rng), *_rand_psd(rng))
        mode = k % 3
        if mode:
            eps = _EPS[(k // 3) % 3] * (1 if mode == 1 else -1)
            coeffs = _bump(coeffs, (k // 9) % 5, eps)
            family += "+eps" if mode == 1 else "-eps"
        out.append(Item(family, coeffs, None, i))
    return out


def limit_sweep(seed: int) -> list[Item]:
    return _limit_forms(random.Random(LIMIT_CORE_SEED), LIMIT_CORE) + _limit_forms(
        random.Random(seed), LIMIT_SEEDED
    )


# ---------------------------------------------------------------------------
# finite_scan: numeric scope, n in 4..8
# ---------------------------------------------------------------------------

FINITE_NS = (8, 7, 6, 5, 4)
FINITE_CORE_SEED = 424242
A7_CORE, A7_SEEDED = 14, 1
#: Seed of the near-boundary forms, which are all in the core.
NEAR_BOUNDARY_SEED = 11
NEAR_BOUNDARY_FORMS = 20


def _a7_groups(rng: random.Random, groups: int, first: int) -> list[Item]:
    """A7-box vectors (coefficients in [-4, 4], denominator 6), each scanned
    over n = 8..4 so that downward closure from 8 to 4 can be checked."""
    out: list[Item] = []
    for g in range(first, first + groups):
        coeffs = tuple(_frac(rng, 4, 6) for _ in range(5))
        out.extend(Item("a7_box", coeffs, n, g) for n in FINITE_NS)
    return out


def _near_boundary(count: int) -> list[Item]:
    """Rank-1 block-certificate expansions with one coefficient lowered by
    1/1024, one n each: the family whose OUT members include nonnegative
    forms that are not SOS.  About one in five is SOS-OUT, and those cost
    0.05-4.5 s each in the separator search against ~50 ms for the rest,
    which is why none of them is left to the seed."""
    rng = random.Random(NEAR_BOUNDARY_SEED)
    out = []
    for i in range(count):
        coeffs = _certificate_coeffs(*_rank1(rng), *_rank1(rng))
        coeffs = _bump(coeffs, i % 5, -_EPS[2])
        out.append(Item("near_boundary", coeffs, FINITE_NS[(i // 5) % 5], -1 - i))
    return out


def finite_scan(seed: int) -> list[Item]:
    """Core: A7-box groups, the Choi-Lam vector over n = 8..4 (the bundled
    form is its n = 4 member) and the near-boundary forms.  Seeded: one
    more A7-box group."""
    core = _a7_groups(random.Random(FINITE_CORE_SEED), A7_CORE, 0)
    core += [Item("choi_lam", CHOI_LAM, n, A7_CORE) for n in FINITE_NS]
    core += _near_boundary(NEAR_BOUNDARY_FORMS)
    return core + _a7_groups(random.Random(seed), A7_SEEDED, A7_CORE + 1)


# ---------------------------------------------------------------------------
# large_n: numeric scope, n = 64..128
# ---------------------------------------------------------------------------

LARGE_NS = (64, 128, 80, 112, 96, 120)
#: The first seed from 5000 whose core holds a nonneg-OUT form, so that a
#: finite-n witness is verified on every run.
LARGE_CORE_SEED = 5001
LARGE_CORE, LARGE_SEEDED = 18, 2


def _large_forms(rng: random.Random, count: int) -> list[Item]:
    """Boundary-family members (zeros at irrational weights) and
    certificate expansions, nonnegative at every n; every sixth form is a
    boundary-family member with its p_4 coefficient lowered, about half of
    which are OUT and leave the grid loop early."""
    out: list[Item] = []
    for i in range(count):
        n = LARGE_NS[i % len(LARGE_NS)]
        if i % 2 == 0 or i % 6 == 5:
            family, coeffs = "boundary", _boundary_coeffs(*_boundary_params(rng))
            if i % 6 == 5:
                family, coeffs = "boundary-eps", _bump(coeffs, 0, -_EPS[0])
        else:
            family = "certificate"
            coeffs = _certificate_coeffs(*_rand_psd(rng), *_rand_psd(rng))
        out.append(Item(family, coeffs, n, i))
    return out


def large_n(seed: int) -> list[Item]:
    return _large_forms(random.Random(LARGE_CORE_SEED), LARGE_CORE) + _large_forms(
        random.Random(seed), LARGE_SEEDED
    )


PASSES = {"limit_sweep": limit_sweep, "finite_scan": finite_scan, "large_n": large_n}


def warmup_items(workload: str) -> list[Item]:
    """Fixed forms for the warm-up pass, one per entry point of the
    workload.  (The worker adds the example-6.10 boundary check, which
    reaches irreducible_factors and with it the lazy sympy import.)"""
    if workload == "limit_sweep":
        return [Item("warmup", EXAMPLE_6_10, None, 0)]
    if workload == "finite_scan":
        return [Item("warmup", CHOI_LAM, 4, 0)]
    return [Item("warmup", EXAMPLE_6_10, 12, 0)]
