import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from symquartic import LIMIT, MultiPoly, SymFormP, brute_symmetrize, m_to_p
from symquartic.algebra import (
    SymMat2,
    UniPoly,
    _zgcd,
    _zmul,
    _zpoly,
    _zquo,
    _zsqf,
    isolate_real_roots,
    psd2,
    refine_root_interval,
    simplest_in_middle,
)
from symquartic.dualcone import DualFunctional, _gamma_gen_ints, _weighted_point_ints
from symquartic.partitions import partitions_of
from symquartic.sos import _conditions


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


def coeff(f: SymFormP, parts) -> Fraction:
    """The coefficient of p_parts in f."""
    return f.coeffs[partitions_of(f.degree).index(tuple(parts))]


def constant_value(r) -> Fraction:
    """The value of a constant ``RatFunc``."""
    assert r.num.degree <= 0 and r.den.degree <= 0
    return r.at(0)


def condition_polys(blocks):
    """``sos._conditions`` on the integer linear forms in gamma of
    ``sos._block_polys``: the integer polynomials whose roots cut the
    gamma-cells."""
    return _conditions(*(UniPoly(form) for form in blocks[1]))


@dataclass(frozen=True)
class Cells:
    """The cells into which the real roots of some rational polynomials cut
    an open interval (see ``cells``).

    ``product`` is the squarefree product of the polynomials, as the
    primitive integer polynomial with a positive leading coefficient.
    ``breakpoints`` are the sorted isolating intervals of its roots in the
    open interval: a point ``(r, r)`` at a rational root, otherwise an
    interval whose endpoints are not roots; they lie strictly apart and
    strictly inside the interval.  ``samples`` holds one rational in each
    of the ``len(breakpoints) + 1`` open cells, left to right: the
    ``simplest_in_middle`` of the gap between its neighbouring intervals.
    """

    product: UniPoly
    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    samples: tuple[Fraction, ...]


def cells(polys, lo: Fraction, hi: Fraction) -> Cells:
    """A reference cell decomposition: cut the open interval (lo, hi) at
    the real roots of the rational polynomials, isolated on their
    squarefree product.

    The answer of a question whose verdict changes only across those
    roots is decided on [lo, hi] by testing ``lo``, ``hi``, one sample per
    open cell and each breakpoint.  Each sample is ``simplest_in_middle``
    of its gap (``Cells``), ``lo`` when ``lo == hi``.  Neighbouring
    intervals are refined strictly apart, so that each gap has room for a
    sample of small height."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    product = [1]  # the lcm of the squarefree parts: squarefree itself
    for q in polys:
        if q.is_zero():
            raise ValueError("zero polynomial")
        part = _zsqf(_zpoly(q.coeffs))
        common = _zgcd(product, part)
        product = _zmul(product, _zquo(part, common) if len(common) > 1 else part)

    # refine so every non-point interval sits strictly inside (lo, hi) and
    # strictly to the right of the previous one; the roots are strictly
    # interior, so halving terminates, and an accepted interval never ends
    # at a root
    breakpoints = []
    prev_hi = lo
    product_poly = UniPoly(product)
    for a, b in isolate_real_roots(product_poly, lo, hi):
        while a != b and (a <= prev_hi or b >= hi):
            a, b = refine_root_interval(product_poly, a, b, (b - a) / 2)
        breakpoints.append((a, b))
        prev_hi = b

    ends = [lo, *(x for ab in breakpoints for x in ab), hi]
    samples = tuple(simplest_in_middle(a, b) for a, b in zip(ends[::2], ends[1::2]))
    return Cells(product_poly, tuple(breakpoints), samples)


# Fraction references for the integer implementations: the pairing, the
# dual-cone blocks and the certificate checks, on Fraction values.


def gamma_gen_coeffs(scope) -> tuple[Fraction, ...]:
    """Canonical-order coefficients of the scalar-block generator at a
    numeric scope n, or LIMIT: ``dualcone._gamma_gen_ints`` over its m."""
    m, gen = _gamma_gen_ints(scope)
    return tuple(Fraction(g, m) for g in gen)


def fraction_pair(ell: DualFunctional, f: SymFormP) -> Fraction:
    return sum((c * y for c, y in zip(f.coeffs, ell.as_tuple())), Fraction(0))


def fraction_dual_blocks(ell: DualFunctional, n) -> tuple:
    y4, y31, y22, y211, y1111 = ys = ell.as_tuple()
    m_triv, m_hook = SymMat2(y22, y211, y1111), SymMat2(y4 - y22, y31 - y211, y211 - y1111)
    if n is LIMIT:
        return m_triv, m_hook, None
    return m_triv, m_hook, n * n * sum((g * y for g, y in zip(gamma_gen_coeffs(n), ys)), Fraction(0))


def fraction_is_valid(cert) -> bool:
    return psd2(cert.A) and psd2(cert.B) and cert.gamma >= 0 and (
        cert.scope is not LIMIT or cert.gamma == 0
    )


def fraction_expand_certificate(cert) -> SymFormP:
    A, B, g = cert.A, cert.B, cert.gamma
    g4, g31, g22, g211, g1111 = gamma_gen_coeffs(cert.scope)
    return SymFormP(
        4,
        (
            B.m22 + g * g4,
            2 * B.m12 + g * g31,
            A.m22 - B.m22 + g * g22,
            2 * A.m12 + B.m11 - 2 * B.m12 + g * g211,
            A.m11 - B.m11 + g * g1111,
        ),
        cert.scope,
    )


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
