import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from symquartic import MultiPoly, SymFormP, brute_symmetrize, m_to_p
from symquartic.dualcone import DualFunctional, _weighted_point_ints
from symquartic.partitions import partitions_of


def random_form(rng: random.Random, scope, bound: int = 4, den: int = 6) -> SymFormP:
    coeffs = tuple(
        Fraction(rng.randint(-bound * den, bound * den), den) for _ in range(5)
    )
    return SymFormP(4, coeffs, scope)


def weighted_point_functional(weights, point) -> DualFunctional:
    """The functional f -> Phi_f(w, x, y) of a nonnegativity witness
    ((w1, w2), (x, y)), y_lambda = p_lambda with p_i = w1 x^i + w2 y^i: the
    integers of ``dualcone._weighted_point_ints`` over their one
    denominator."""
    return DualFunctional(*_weighted_point_ints(weights, point))


#: rationals whose numerators and denominators have about 4000 bits
big_fractions = st.builds(
    lambda a, p, q, e: Fraction(p * 5 ** (e - 800) + a, q * 3**e),
    st.integers(-50, 50),
    st.integers(-9, 9),
    st.integers(1, 9),
    st.integers(2500, 2560),
)


def kept_by(f: SymFormP) -> list:
    """What a form keeps alive, its type aside: the objects it refers to,
    and the integers in its tuple of numerators."""
    return [r for r in gc.get_referents(f) if not isinstance(r, type)] + list(f.nums)


def coeff(f: SymFormP, parts) -> Fraction:
    """The coefficient of p_parts in f."""
    return f.coeffs[partitions_of(f.degree).index(tuple(parts))]


def constant_value(r) -> Fraction:
    """The value of a constant ``RatFunc``."""
    assert r.num.degree <= 0 and r.den.degree <= 0
    return r.at(0)


def choi_lam_multipoly() -> MultiPoly:
    """The bundled Choi-Lam quartic as an explicit 4-variable polynomial:
    both sums over all tuples of pairwise-distinct indices."""
    n = 4
    terms = {}

    def add(expo, c):
        e = tuple(expo)
        terms[e] = terms.get(e, Fraction(0)) + c

    for i, j in itertools.combinations(range(n), 2):
        e = [0] * n
        e[i] = 2
        e[j] = 2
        add(e, Fraction(2))
    for i in range(n):
        for j, k in itertools.combinations([t for t in range(n) if t != i], 2):
            e = [0] * n
            e[i] = 2
            e[j] = 1
            e[k] = 1
            add(e, Fraction(2))
    add([1, 1, 1, 1], Fraction(-4))
    return MultiPoly(n, terms)


@pytest.fixture(scope="session")
def choi_lam_form() -> SymFormP:
    return m_to_p(brute_symmetrize(choi_lam_multipoly(), 4), 4)
