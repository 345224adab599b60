import gc
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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
    _simplest_between_ints,
    _zsign_ints,
    isolate_real_roots,
    psd2,
    refine_root_interval,
    simplest_rational_between,
)
from symquartic.dualcone import DualFunctional, _gamma_gen_ints, _weighted_point_ints
from symquartic.partitions import partitions_of
from symquartic.sos import _gamma_range, _gamma_terms, _gamma_zero_entries, _reduction_terms, _sqrt_sign


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


# References for the ten-sign predicates that the smallest-u rule of
# ``sos._smallest_u`` replaced, and for the strict gamma-scan that the sign
# read of ``sos._has_interior_gamma`` replaced.


def former_conditions(b22, b12, a22, s, a11_u) -> tuple:
    """The ten quantities whose signs decide u-feasibility, from the block
    entries (``sos._block_polys``), scaled, as integers at one gamma or as
    integer polynomials in gamma.

    4 det A = -u^2 + 2 v u + r (``sos._reduction_terms``); the lower bounds
    L on u are 0, l1 = -(a11 - u) and b12^2/b22.  The list: b22, b12, a22,
    4 det A at v, then 4 det A at each L and v - L for each L, the last of
    both multiplied by b22^2 and b22.  Each is homogeneous in the entries,
    so entries scaled by a common positive factor give the same signs."""
    l1 = -a11_u
    v, r, D, V, H = _reduction_terms(b22, b12, a22, s, a11_u)
    return (b22, b12, a22, V, r, (v * 2 - l1) * l1 + r, H, v, v - l1, D)


def former_signs(xs) -> tuple[int, ...]:
    return tuple((x > 0) - (x < 0) for x in xs)


def former_feasible(signs) -> bool:
    """u-feasibility at one gamma from the signs of ``former_conditions``.

    B is PSD iff u >= 0, b22 >= 0, u b22 >= b12^2 (so b22 = 0 forces
    b12 = 0); A is PSD iff a22 >= 0, a11 >= 0 and det A >= 0, a concave
    quadratic in u.  {det A >= 0} is empty unless det A >= 0 at the
    vertex, and then it reaches above a lower bound L iff det A >= 0 at L
    or the vertex is >= L."""
    b22, b12, a22, q_top, *rest = signs
    return (
        min(b22, a22, q_top) >= 0
        and (b22 > 0 or b12 == 0)
        and all(q >= 0 or v >= 0 for q, v in zip(rest[:3], rest[3:]))
    )


def former_strictly_feasible(signs) -> bool:
    """Some u makes both blocks positive definite, from the signs of
    ``former_conditions``: ``former_feasible`` with strict inequalities.

    B is positive definite iff u > 0, b22 > 0 and u b22 > b12^2; A is iff
    a22 > 0 and det A > 0 (a11 > 0 follows).  {det A > 0} is an open
    interval around the vertex, empty unless det A > 0 there, and it
    reaches above a lower bound L iff det A > 0 at L or the vertex is > L."""
    b22, _, a22, q_top, *rest = signs
    return min(b22, a22, q_top) > 0 and all(q > 0 or v > 0 for q, v in zip(rest[:3], rest[3:]))


def former_class(signs) -> int:
    """The class of ``sos._gamma_zero_class`` from the ten signs."""
    return 2 if former_strictly_feasible(signs) else 1 if former_feasible(signs) else 0


def former_gamma_zero_signs(f: SymFormP) -> tuple[int, ...]:
    """The signs of ``former_conditions`` on the gamma = 0 entries of
    ``sos._gamma_zero_entries``."""
    return former_signs(former_conditions(*_gamma_zero_entries(f)[1]))


def condition_polys(blocks):
    """``former_conditions`` on the integer linear forms in gamma of
    ``sos._block_polys``: the integer polynomials whose roots cut the
    gamma-cells."""
    return former_conditions(*(UniPoly(form) for form in blocks[1]))


def simplest_in_middle(lo: Fraction, hi: Fraction) -> Fraction:
    """The simplest rational (``simplest_rational_between``) in the middle
    half of [lo, hi]: a point of small height away from both ends."""
    return simplest_rational_between((3 * lo + hi) / 4, (lo + 3 * hi) / 4)


def former_strict_open_gamma(f: SymFormP) -> Fraction | None:
    """``sos._open_gamma`` with > in place of >=, as it was: a rational
    gamma in (lo, hi) where (D > 0 and V > 0) or H > 0, else None.
    Candidates, in order: the ``simplest_in_middle`` of {D >= 0, V >= 0}
    when D and V are not 0 identically; the simplest between ends 2^-j
    apart, j = 1, 2, 4, ..., of the local maximum r = (x + y sqrt(d)) / z
    of H; lo + (hi - lo) 2^-j, or the mirror at hi, where H > 0 at that
    end."""
    lo, hi = _gamma_range(f)
    D, V, H = _gamma_terms(f)
    (an, ad), (bn, bd) = lo, hi
    for c0, c1 in (D, V):
        if c1 > 0 and -c0 * ad > an * c1:
            an, ad = -c0, c1
        elif c1 < 0 and c0 * bd < -bn * c1:
            bn, bd = c0, -c1
        elif not c1 and c0 <= 0:
            bn, bd = an, ad
    if an * bd < bn * ad:
        return simplest_in_middle(Fraction(an, ad), Fraction(bn, bd))

    h0, h1, h2, h3 = H
    x, y, z, d = (-h2, -1, 3 * h3, h2 * h2 - 3 * h1 * h3) if h3 else (-h1, 0, 2 * h2, 0)
    sz, az = (1 if z > 0 else -1), abs(z)
    top = None
    if (d > 0 if h3 else h2 < 0) and all(
        sz * _sqrt_sign(x * ed - z * en, y * ed, d) == side for (en, ed), side in ((lo, 1), (hi, -1))
    ):
        P = Q = 0
        for k, c in enumerate(reversed(H)):
            P, Q = P * x + Q * y * d + c * z**k, P * y + Q * x
        top = sz * _sqrt_sign(P, Q, d)
    j = 1
    while top == 1:
        k = isqrt((d << 2 * j) // (z * z))
        e0, e1 = sorted(sz * ((x << j) + y * i * az) for i in (k, k + 1))
        if e0 > 0:
            p, q = _simplest_between_ints(e0, az << j, e1, az << j)
            if lo[0] * q < p * lo[1] and p * hi[1] < hi[0] * q and _zsign_ints(H, p, q) > 0:
                return Fraction(p, q)
        j *= 2
    for (en, ed), (on, od) in ((lo, hi), (hi, lo)):
        if _zsign_ints(H, en, ed) > 0:
            while True:
                p, q = en * od * ((1 << j) - 1) + on * ed, ed * od << j
                if _zsign_ints(H, p, q) > 0:
                    return Fraction(p, q)
                j *= 2
    return None


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
