import itertools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy

import symquartic.algebra as algebra
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symquartic.algebra import (
    AlgebraicField,
    SymMat2,
    UniPoly,
    _simplest_between_ints,
    _zgcd,
    _zpoly,
    _zrem,
    _zroot_bound,
    _zsqf,
    binary_quartic_negative_point,
    binary_quartic_nonneg,
    binary_quartic_strictly_positive,
    count_real_roots,
    count_roots_open,
    disc_binary_quartic,
    irreducible_factors,
    isolate_real_roots,
    psd2,
    refine_root_interval,
    resultant,
    simplest_rational_between,
    squarefree_part_field,
    yun_decomposition,
)

from test_oracles import quartic_nonneg, quartic_positive

_x = sympy.Symbol("x")


def zgcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """The integer-core gcd (primitive, positive leading coefficient) of two
    rational polynomials, not both zero."""
    return UniPoly(_zgcd(_zpoly(p.coeffs), _zpoly(q.coeffs)))


def to_sympy(p: UniPoly):
    return sympy.Poly(
        [sympy.Rational(c) for c in reversed(p.coeffs)] or [0], _x, domain="QQ"
    )


rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=8
).map(Fraction)


@st.composite
def unipolys(draw, max_degree=5):
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_degree + 1))
    return UniPoly(coeffs)


class TestUniPolyBasics:
    def test_normalization_strips_leading_zeros(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert UniPoly([0, 0]).is_zero()
        assert UniPoly().degree == -1

    def test_arithmetic_matches_sympy(self):
        rng = random.Random(7)
        for _ in range(25):
            p = UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)])
            q = UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)])
            assert to_sympy(p * q) == to_sympy(p) * to_sympy(q)
            assert to_sympy(p + q) == to_sympy(p) + to_sympy(q)
            assert to_sympy(p - q) == to_sympy(p) - to_sympy(q)

    def test_evaluation(self):
        p = UniPoly([Fraction(1), Fraction(-3), Fraction(2)])  # 2x^2 - 3x + 1
        assert p(Fraction(1)) == 0
        assert p(Fraction(1, 2)) == 0
        assert p(Fraction(0)) == 1

    @given(st.lists(st.integers(-9, 9), max_size=5), st.integers(-9, 9), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_int_arithmetic_stays_int(self, ints, c, k):
        """``+``, ``-`` and ``**`` with ints keep an integer polynomial
        all-int, and equal, with the same hash, to the Fraction one."""
        p, pf = UniPoly(ints), UniPoly([Fraction(x) for x in ints])
        for got, want in ((p + c, pf + Fraction(c)), (c + p, Fraction(c) + pf), (p - c, pf - Fraction(c)),
                          (c - p, Fraction(c) - pf), (p**k, pf**k)):
            assert all(type(x) is int for x in got.coeffs), got
            assert got == want and hash(got) == hash(want)
        assert (UniPoly((0, 1)) + 1).coeffs == (1, 1)

    @given(unipolys(), unipolys())
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, p, q):
        if p.is_zero() and q.is_zero():
            return
        g = zgcd(p, q)
        assert not g.is_zero()
        assert (p % g).is_zero()
        assert (q % g).is_zero()


class TestRootMachinery:
    def test_count_real_roots_vs_sympy(self):
        rng = random.Random(11)
        for _ in range(30):
            p = UniPoly([Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(2, 6))])
            if p.is_zero() or p.degree < 1:
                continue
            sq = squarefree_part_field(p)
            expected = sympy.polys.polytools.count_roots(to_sympy(sq))
            assert count_real_roots(sq) == expected

    def test_isolate_real_roots_brackets_each_root(self):
        # (x - 1)(x - 1/3)(x + 2)
        p = UniPoly([Fraction(1)])
        for r in (Fraction(1), Fraction(1, 3), Fraction(-2)):
            p = p * UniPoly([-r, Fraction(1)])
        intervals = isolate_real_roots(p, Fraction(-5), Fraction(5))
        assert len(intervals) == 3
        roots = sorted([Fraction(-2), Fraction(1, 3), Fraction(1)])
        for (lo, hi), r in zip(intervals, roots):
            assert lo <= r <= hi

    def test_isolate_roots_closer_than_the_recursion_limit(self):
        # sqrt(2) and sqrt(2 + 2^-1200) are about 2^-1202 apart: about 1200
        # nested bisections, more than Python's default recursion depth
        x2 = UniPoly([Fraction(-2), Fraction(0), Fraction(1)])
        p = x2 * (x2 - Fraction(1, 2**1200))
        intervals = isolate_real_roots(p, Fraction(0), Fraction(2))
        assert len(intervals) == 2
        (a1, b1), (a2, b2) = intervals
        assert b1 <= a2
        for lo, hi in intervals:
            assert p(lo) * p(hi) < 0

    def test_refine_root_interval_shrinks(self):
        p = UniPoly([Fraction(-2), Fraction(0), Fraction(1)])  # x^2 - 2
        (lo, hi), = isolate_real_roots(p, Fraction(0), Fraction(2))
        lo2, hi2 = refine_root_interval(p, lo, hi, Fraction(1, 1000))
        assert hi2 - lo2 <= Fraction(1, 1000)
        assert lo2 * lo2 <= 2 <= hi2 * hi2

    def test_sturm_count_open_interval(self):
        p = UniPoly([Fraction(0), Fraction(-1), Fraction(0), Fraction(1)])  # x^3 - x
        assert count_roots_open(p, Fraction(-2), Fraction(2)) == 3
        assert count_roots_open(p, Fraction(1, 2), Fraction(2)) == 1

    def test_yun_decomposition_reconstructs(self):
        # (x-1)^2 (x+2)^3
        p = UniPoly([Fraction(-1), Fraction(1)]) ** 2 * UniPoly([Fraction(2), Fraction(1)]) ** 3
        parts = yun_decomposition(p)
        rebuilt = UniPoly([p.lead])
        for fac, mult in parts:
            rebuilt = rebuilt * fac**mult
        assert rebuilt == p
        assert sorted(m for _f, m in parts if _f.degree > 0) == [2, 3]

    def test_resultant_vs_sympy(self):
        rng = random.Random(13)
        for _ in range(20):
            p = UniPoly([Fraction(rng.randint(-4, 4)) for _ in range(4)])
            q = UniPoly([Fraction(rng.randint(-4, 4)) for _ in range(3)])
            if p.degree < 1 or q.degree < 1:
                continue
            expected = sympy.resultant(to_sympy(p).as_expr(), to_sympy(q).as_expr(), _x)
            assert resultant(p, q) == Fraction(str(expected))

    def test_irreducible_factors_multiply_back(self):
        p = UniPoly([Fraction(-2), Fraction(0), Fraction(1)]) * UniPoly(
            [Fraction(-1), Fraction(1)]
        )
        factors = irreducible_factors(p)
        assert sorted(f.degree for f in factors) == [1, 2]


class TestIntegerCoefficients:
    """``int`` coefficients take the same exact path as ``Fraction`` ones."""

    def test_no_float_leak(self):
        q, r = UniPoly([1, 2, 1]).divmod(UniPoly([1, 3]))
        assert q == UniPoly([Fraction(5, 9), Fraction(1, 3)])
        assert r == UniPoly([Fraction(4, 9)])
        sq = squarefree_part_field(UniPoly([1, 2, 1]))
        assert sq == UniPoly([1, 1])
        for c in q.coeffs + r.coeffs + sq.coeffs:
            assert isinstance(c, Fraction)
        assert count_real_roots(UniPoly([1, 0, -2])) == 2

    @pytest.mark.parametrize(
        "ints",
        [[1, 2, 1], [-2, 0, 1], [0, -1, 0, 1], [4, -4, -3, 2, 1], [-6, 11, -6, 1]],
    )
    def test_same_answers_as_fractions(self, ints):
        p, pf = UniPoly(ints), UniPoly([Fraction(c) for c in ints])
        q, qf = p.derivative(), pf.derivative()
        assert zgcd(p, q) == zgcd(pf, qf)
        assert yun_decomposition(p) == yun_decomposition(pf)
        sq = squarefree_part_field(p)
        assert sq == squarefree_part_field(pf)
        assert count_real_roots(p) == count_real_roots(pf)
        assert isolate_real_roots(sq, -10, 10) == isolate_real_roots(
            squarefree_part_field(pf), Fraction(-10), Fraction(10)
        )
        assert count_roots_open(p, -10, 10) == count_real_roots(p)


def euclid_sturm(p: UniPoly) -> list[UniPoly]:
    """Reference Sturm chain by field division over Q."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = chain[-2] % chain[-1]
        if r.is_zero():
            break
        chain.append(-r)
    return chain


class TestSturmSignRule:
    """The pseudo-remainder of a by b is lc(b)**k times the remainder over
    Q, k the number of reduction steps taken.  When one step cancels more
    than the leading term, k < deg a - deg b + 1, so with lc(b) < 0 a sign
    keyed on the degree difference comes out wrong; ``_zrem`` scales each
    step by a positive factor instead.  Each Euclidean chain below has
    such a step: a divisor with a negative leading coefficient and a step
    that drops two degrees (k = 1 where deg a - deg b + 1 = 2)."""

    CHAINS = [
        [-1, 3, 0, -1],  # -x^3 + 3x - 1: p' = -3x^2 + 3, p mod p' = 2x - 1
        [-2, -4, 1, 0, 0, 1, 0, -3],  # two such steps, the second inside
        [4, -3, 4, 0, 2, -1, 0, -2],
        [0, -1, -4, 0, 0, -1],
    ]

    @pytest.mark.parametrize("ints", CHAINS)
    def test_chain_terms_are_positive_multiples(self, ints):
        """Along the chain, ``_zrem`` of the integer terms is a positive
        integer multiple of the remainder over Q."""
        chain = euclid_sturm(UniPoly(ints))
        assert len(chain) >= 3
        for a, b in zip(chain, chain[1:]):
            term, want = UniPoly(_zrem(_zpoly(a.coeffs), _zpoly(b.coeffs))), a % b
            assert term.degree == want.degree
            if want.is_zero():
                continue
            ratio = Fraction(want.lead) / term.lead
            assert ratio > 0
            assert term.scale(ratio) == want
            assert all(isinstance(c, int) for c in term.coeffs)

    @pytest.mark.parametrize("ints", CHAINS)
    def test_counts_and_isolation_vs_sympy(self, ints):
        p = UniPoly(ints)
        expected = int(to_sympy(p).count_roots())
        assert count_real_roots(p) == expected
        assert count_real_roots(p.scale(-1)) == expected
        bound = Fraction(1 + max(abs(c) for c in ints))
        intervals = isolate_real_roots(p, -bound, bound)
        assert len(intervals) == expected
        for lo, hi in intervals:
            assert (lo == hi and p(lo) == 0) or p(lo) * p(hi) < 0
            assert count_roots_open(p, lo - 1, hi + 1) >= 1


big_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**220), max_value=2**220),
    st.integers(min_value=1, max_value=2**210),
)


@st.composite
def factored_pair(draw):
    """Two rational polynomials of degree <= 14 with coefficients of 200+
    bits, sharing a factor, one with repeated factors."""

    def poly(max_degree):
        coeffs = draw(st.lists(big_rationals, min_size=2, max_size=max_degree + 1))
        p = UniPoly(coeffs)
        return p if p.degree >= 1 else UniPoly([coeffs[0] or 1, 1])

    common, rep, p_rest, q_rest = poly(3), poly(2), poly(3), poly(3)
    return common * rep * rep * p_rest, common * q_rest


class TestCrossCheckSympy:
    @given(factored_pair())
    @settings(max_examples=25, deadline=None)
    def test_gcd_sqf_and_roots(self, pair):
        p, q = pair
        sp, sq = to_sympy(p), to_sympy(q)
        assert p.degree <= 14
        assert to_sympy(zgcd(p, q)).monic() == sympy.gcd(sp, sq).monic()
        part = squarefree_part_field(p)
        assert to_sympy(part) == sp.sqf_part().monic()
        roots = int(sp.sqf_part().count_roots())
        assert count_real_roots(p) == roots
        bound = Fraction(1) + max(abs(c) for c in part.coeffs[:-1])
        assert len(isolate_real_roots(part, -bound, bound)) == roots


def linear(r) -> UniPoly:
    return UniPoly([-Fraction(r), Fraction(1)])


small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=4
).map(lambda cs: UniPoly(cs) if any(cs) else UniPoly([1]))

small_rationals = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=16)
)


@st.composite
def mignotte(draw):
    """x^d - 2 (a x - 1)^2: two real roots about a^(-(d+2)/2) apart, near
    1/a."""
    d, a = draw(st.integers(min_value=3, max_value=12)), draw(st.integers(min_value=2, max_value=60))
    p = UniPoly([0] * d + [1]) - UniPoly([-1, a]) ** 2 * 2
    bound = Fraction(1 + max(abs(c) for c in p.coeffs[:-1]))
    return p, -bound, bound


@st.composite
def close_pair(draw):
    """(x - r)(x - r - 2^-k) q on an interval around r."""
    r, k, q = draw(small_rationals), draw(st.integers(min_value=1, max_value=300)), draw(small_polys)
    p = linear(r) * linear(r + Fraction(1, 2**k)) * q
    lo = r - draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(7, 2)]))
    return p, lo, lo + draw(st.sampled_from([Fraction(2), Fraction(5, 3), Fraction(9)]))


@st.composite
def dyadic_roots(draw):
    """Roots exactly at lo, hi and at dyadic points of (lo, hi), which the
    bisection meets as node ends and midpoints."""
    lo = draw(small_rationals)
    hi = lo + draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(8)]))
    ks = draw(st.lists(st.integers(min_value=1, max_value=31), min_size=1, max_size=4, unique=True))
    p = draw(small_polys)
    for r in [lo, hi] + [lo + (hi - lo) * Fraction(k, 32) for k in ks]:
        p = p * linear(r)
    return p, lo, hi


class TestDescartesIsolation:
    """``isolate_real_roots`` against sympy on clustered roots and roots at
    the ends and midpoints of the bisection: as many intervals as roots in
    the open interval, sorted, each holding one root, and non-point
    intervals with ends that are not roots.  The squarefree part and the
    root counts come from sympy (``sqf_part``, ``count_roots``)."""

    @staticmethod
    def check(case):
        p, lo, hi = case
        sp = to_sympy(p).sqf_part()
        p = UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())])
        want = int(sp.count_roots(lo, hi)) - sum(1 for r in (lo, hi) if p(r) == 0)
        intervals = isolate_real_roots(p, lo, hi)
        assert len(intervals) == want
        assert intervals == sorted(intervals)
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2 and (a1 != b1 and a2 != b2 or b1 < a2)
        for a, b in intervals:
            assert lo <= a <= b <= hi
            if a == b:
                assert lo < a < hi and p(a) == 0
            else:
                assert p(a) != 0 and p(b) != 0
                assert sp.count_roots(a, b) == 1

    @given(mignotte())
    @settings(max_examples=40, deadline=None)
    def test_mignotte(self, case):
        self.check(case)

    @given(close_pair())
    @settings(max_examples=60, deadline=None)
    def test_close_pairs(self, case):
        self.check(case)

    @given(dyadic_roots())
    @settings(max_examples=60, deadline=None)
    def test_roots_at_ends_and_midpoints(self, case):
        self.check(case)

    @given(dyadic_roots(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_count_roots_open_vs_sympy(self, case, double_lo):
        """Roots exactly at lo and hi (a double one at lo when drawn) are
        left out; sympy counts the distinct roots of [lo, hi]."""
        p, lo, hi = case
        if double_lo:
            p = p * linear(lo)
        want = int(to_sympy(p).count_roots(lo, hi)) - 2
        assert count_roots_open(p, lo, hi) == want
        assert count_roots_open(p, hi, lo) == 0

    def test_midpoint_root_is_a_point(self):
        # x (x - 1/2)(x - 1) on (0, 1): 0 and 1 lie outside, 1/2 is the
        # first midpoint
        p = linear(0) * linear(Fraction(1, 2)) * linear(1)
        assert isolate_real_roots(p, 0, 1) == [(Fraction(1, 2), Fraction(1, 2))]


class TestAlgebraicField:
    def test_sqrt2_signs(self):
        minpoly = UniPoly([Fraction(-2), Fraction(0), Fraction(1)])
        field = AlgebraicField(minpoly, Fraction(1), Fraction(2))
        # theta = sqrt(2): theta^2 - 2 = 0, theta - 1 > 0, theta - 3/2 < 0
        assert field.sign_of_poly(UniPoly([-2, 0, 1])) == 0
        assert field.sign_of_poly(UniPoly([-1, 1])) > 0
        assert field.sign_of_poly(UniPoly([Fraction(-3, 2), 1])) < 0
        # (theta - 1)^3 - (5 sqrt(2) - 7) = 0, a sign that needs refinement
        cube = UniPoly([-1, 1]) ** 3
        assert field.sign_of_poly(cube - UniPoly([-7, 5])) == 0
        assert field.sign_of_poly(cube - UniPoly([Fraction(-7), Fraction(4999, 1000)])) > 0
        assert field.sign_of_poly(UniPoly()) == 0
        assert field.sign_of_poly(UniPoly([-3])) < 0

    def test_reducible_modulus_shared_factor(self):
        # m = (x^2 - 2)(x - 1)(x^2 - 3), squarefree but reducible; the
        # interval (1/2, 5/4) isolates its root 1, (17/10, 9/5) sqrt(3)
        m = UniPoly([-2, 0, 1]) * UniPoly([-1, 1]) * UniPoly([-3, 0, 1])
        at_one = AlgebraicField(m, Fraction(1, 2), Fraction(5, 4))
        assert at_one.sign_of_poly(UniPoly([-1, 1]) * UniPoly([-2, 0, 1])) == 0
        assert at_one.sign_of_poly(UniPoly([-2, 0, 1])) < 0  # shares a factor of m
        assert at_one.sign_of_poly(UniPoly([-3, 0, 1]) ** 2) > 0
        at_sqrt3 = AlgebraicField(m, Fraction(17, 10), Fraction(9, 5))
        assert at_sqrt3.sign_of_poly(UniPoly([-2, 0, 1]) * UniPoly([-3, 0, 1])) == 0
        assert at_sqrt3.sign_of_poly(UniPoly([-2, 0, 1]) * UniPoly([-1, 1])) > 0
        assert at_sqrt3.sign_of_poly(UniPoly([Fraction(-173, 100), 1])) > 0
        assert at_sqrt3.sign_of_poly(UniPoly([Fraction(-1733, 1000), 1])) < 0

    def test_point_interval(self):
        m = UniPoly([-1, 0, 4]) * UniPoly([-2, 0, 1])  # roots +-1/2, +-sqrt(2)
        half = AlgebraicField(m, Fraction(1, 2), Fraction(1, 2))
        assert half.sign_of_poly(UniPoly([-1, 2])) == 0
        assert half.sign_of_poly(UniPoly([-2, 0, 1])) < 0
        assert half.sign_of_poly(UniPoly([0, 1])) > 0
        assert half.sign_of_poly(UniPoly([7])) > 0

    def test_root_of_p_next_to_theta(self):
        """p has a root within 2^-200 of theta = sqrt(2) but p(theta) != 0:
        the interval is bisected past that root until the Descartes count of
        p on it is 0."""
        r = Fraction(isqrt(2 << 400), 1 << 200)  # r < sqrt(2) < r + 2^-200
        assert r * r < 2 < (r + Fraction(1, 1 << 200)) ** 2
        tiny = Fraction(1, 1 << 400)
        cases = [
            (UniPoly([-r, 1]), 1),
            (UniPoly([-r - Fraction(1, 1 << 200), 1]), -1),
            (UniPoly([-2 - tiny, 0, 1]), -1),  # root sqrt(2 + 2^-400)
            (UniPoly([-2 + tiny, 0, 1]) * UniPoly([1, 0, 1]), 1),
        ]
        for p, want in cases:
            field = AlgebraicField(UniPoly([-2, 0, 1]), Fraction(1), Fraction(2))
            assert field.sign_of_poly(p) == want
            assert field._hi - field._lo < Fraction(1, 1 << 200)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_signs_at_roots_match_sympy(self, data):
        """At each real root of a random squarefree product of linear and
        quadratic factors, the sign query agrees with sympy's exact sign
        of p at that root (its isolating interval comes from
        ``isolate_real_roots`` on the squarefree part of the product)."""
        small = st.integers(min_value=-5, max_value=5)

        def factor():
            if data.draw(st.booleans()):
                return UniPoly([data.draw(small), data.draw(st.integers(1, 3))])
            return UniPoly([data.draw(small), data.draw(small), data.draw(st.integers(1, 3))])

        product = UniPoly([1])
        for _ in range(data.draw(st.integers(1, 4))):
            product = product * factor()
        if product.degree < 1:
            return
        p = factor() * factor() + UniPoly([data.draw(small)])
        if data.draw(st.booleans()):
            p = p * factor()  # often a factor in common with the product
        modulus = UniPoly(_zsqf(_zpoly(product.coeffs)))
        intervals = isolate_real_roots(modulus, Fraction(-20), Fraction(20))
        roots = sorted(sympy.Poly(to_sympy(product).as_expr(), _x).real_roots())
        roots = list(dict.fromkeys(roots))
        assert len(roots) == len(intervals)
        p_expr = to_sympy(p).as_expr()
        for (a, b), r in zip(intervals, roots):
            assert a <= r <= b
            want = sympy.sign(sympy.simplify(p_expr.subs(_x, r)))
            assert AlgebraicField(modulus, a, b).sign_of_poly(p) == int(want)


class TestMatrices:
    def test_psd2(self):
        assert psd2(SymMat2(Fraction(1), Fraction(0), Fraction(1)))
        assert psd2(SymMat2(Fraction(1), Fraction(1), Fraction(1)))
        assert psd2(SymMat2(Fraction(0), Fraction(0), Fraction(0)))
        assert not psd2(SymMat2(Fraction(1), Fraction(2), Fraction(1)))
        assert not psd2(SymMat2(Fraction(-1), Fraction(0), Fraction(1)))
        assert not psd2(SymMat2(Fraction(0), Fraction(1), Fraction(2)))


@st.composite
def midpoint_root_quartics(draw):
    """c x (x - r)(x - s)(x - m), 0 < r < s, r + s < 1 and m = 1 + r + s, or
    its mirror in x, as binary quartic coefficients.  The Cauchy bound is
    B = 2m, so 0 and m = B/2 are rational roots at the bisection midpoints
    of nodes that hold two or more roots, which isolation reports as point
    intervals."""
    i = draw(st.integers(min_value=1, max_value=30))
    j = draw(st.integers(min_value=i + 1, max_value=63 - i))
    r, s = Fraction(i, 64), Fraction(j, 64)
    side = draw(st.sampled_from((1, -1)))
    p = linear(0) * linear(side * r) * linear(side * s) * linear(side * (1 + r + s))
    c = draw(st.sampled_from((Fraction(1), Fraction(3, 7), Fraction(-2))))
    return tuple(reversed(p.scale(c).coeffs))


class TestBinaryQuartics:
    def test_disc_examples(self):
        # x^4 -> (1, 0, 0, 0, 0): discriminant 0 (quadruple root)
        assert disc_binary_quartic((1, 0, 0, 0, 0)) == 0
        # x^4 + y^4: distinct complex roots, nonzero discriminant
        assert disc_binary_quartic((1, 0, 0, 0, 1)) == 256

    @given(st.tuples(rationals, rationals, rationals, rationals, rationals))
    @settings(max_examples=60, deadline=None)
    def test_disc_matches_sympy(self, h):
        y = sympy.Symbol("y")
        expr = sum(
            sympy.Rational(c) * _x ** (4 - i) * y**i for i, c in enumerate(h)
        )
        expected = sympy.Rational(sympy.discriminant(expr.subs(y, 1), _x)) if h[0] else None
        if h[0]:
            assert disc_binary_quartic(tuple(Fraction(c) for c in h)) == expected

    @given(st.tuples(rationals, rationals, rationals, rationals, rationals))
    @settings(max_examples=60, deadline=None)
    def test_nonneg_consistent_with_sampling(self, h):
        h = tuple(Fraction(c) for c in h)
        verdict = binary_quartic_nonneg(h)
        samples = [Fraction(k, 7) for k in range(-21, 22)]
        values = [
            sum(c * x ** (4 - i) for i, c in enumerate(h)) for x in samples
        ] + [h[0]]
        if verdict:
            assert all(v >= 0 for v in values)
        else:
            x, y = binary_quartic_negative_point(h)
            value = sum(
                c * x ** (4 - i) * y**i for i, c in enumerate(h)
            )
            assert value < 0

    def test_closed_form_matches_sympy_on_box(self):
        """Against the binary-quartic oracle of ``test_oracles`` (sympy's
        ``sqf_list`` and ``count_roots``)."""
        mismatches = [
            h for h in itertools.product(range(-3, 4), repeat=5)
            if binary_quartic_nonneg(h) != quartic_nonneg(h)
            or binary_quartic_strictly_positive(h) != quartic_positive(h)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("family", ["l2q", "q2", "l3m", "l4", "four_real"])
    def test_closed_form_matches_sympy_on_multiple_roots(self, family):
        rng = random.Random(family)

        def r():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

        def quad():  # x^2 + b x + c, real or complex roots
            return UniPoly([r(), r(), 1])

        pool = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)]
        seen = set()
        for _ in range(400):
            l, m, s, t = linear(r()), linear(r()), linear(r()), linear(r())
            p = {
                "l2q": l * l * quad(),
                "q2": quad() ** 2,
                "l3m": l**3 * m,
                "l4": l**4,
                # roots from a small pool, so that some coincide in pairs
                "four_real": linear(rng.choice(pool)) * linear(rng.choice(pool))
                * linear(rng.choice(pool)) * linear(rng.choice(pool)),
            }[family].scale(r() or 1)
            h = tuple(reversed(p.coeffs))
            seen.add(quartic_nonneg(h))
            assert binary_quartic_nonneg(h) == quartic_nonneg(h), h
            assert binary_quartic_strictly_positive(h) == quartic_positive(h), h
        assert seen == {True, False}

    def test_negative_point_next_to_a_close_root(self):
        """x (x - e)^3 and x (x - e)(x^2 + 1), e = 2^-5000, are negative
        only on (0, e); the witness is an end of e's isolating interval."""
        e = Fraction(1, 2**5000)
        for p in (linear(0) * linear(e) ** 3, linear(0) * linear(e) * UniPoly([1, 0, 1])):
            h = tuple(reversed(p.coeffs))
            x, y = binary_quartic_negative_point(h)
            assert y == 1 and 0 < x < e and p(x) < 0

    @pytest.mark.parametrize(
        "roots, extra, delta_zero",
        [
            ((1, -2), (1, 0, 1), False),  # (x - 1)(x + 2)(x^2 + 1)
            ((Fraction(-187, 8), 0, 3, 5), (1,), False),  # four simple real roots
            ((1, 1, 2, -3), (1,), True),  # a double root and two simple ones
            ((1, 1, 1, -2), (1,), True),  # a triple root and a simple one
        ],
        ids=["two-real", "four-real", "double", "triple"],
    )
    @pytest.mark.parametrize("scale", [1, 6, Fraction(3, 7)])
    def test_negative_point_takes_the_gcd_only_when_delta_is_zero(
        self, monkeypatch, roots, extra, delta_zero, scale
    ):
        """The point search reads z and Rees' signs once: a quartic with
        Delta != 0 is squarefree and is isolated with no ``_zgcd`` call and
        no ``_zsqf``, while Delta = 0 (a double or a triple root) still
        takes the squarefree part.  Either way the witness is negative, for
        int and Fraction coefficients alike."""
        p = UniPoly(extra)
        for r in roots:
            p = p * linear(r)
        h = tuple(scale * c for c in reversed(p.coeffs))
        assert (disc_binary_quartic(h) == 0) == delta_zero
        calls = []
        for name in ("_zgcd", "_zsqf"):
            real = getattr(algebra, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(algebra, name, counted)
        point = binary_quartic_negative_point(h)
        assert ("_zsqf" in calls) == ("_zgcd" in calls) == delta_zero
        monkeypatch.undo()
        assert point is not None
        x, y = point
        assert sum(c * x ** (4 - i) * y**i for i, c in enumerate(h)) < 0

    def test_negative_point_between_point_roots(self):
        """x (x - 1)(x^2 + 1) is negative only on (0, 1), and isolation
        returns both roots as points (0 and 1 are the first bisection
        midpoints of (-2, 2)), so the witness is their midpoint."""
        p = linear(0) * linear(1) * UniPoly([1, 0, 1])
        assert isolate_real_roots(p, -2, 2) == [(0, 0), (1, 1)]
        assert binary_quartic_negative_point(tuple(reversed(p.coeffs))) == (Fraction(1, 2), 1)

    @given(st.one_of(st.tuples(rationals, rationals, rationals, rationals, rationals), midpoint_root_quartics()))
    @settings(max_examples=200, deadline=None)
    def test_negative_point_exactly_when_not_nonneg(self, h):
        """The point search returns a point exactly when the oracle says h
        is not nonnegative, h is negative there, and the intervals it walks
        come out ascending with no sort."""
        h = tuple(Fraction(c) for c in h)
        point = binary_quartic_negative_point(h)
        assert (point is None) == quartic_nonneg(h)
        if point is not None:
            assert sum(c * point[0] ** (4 - i) * point[1] ** i for i, c in enumerate(h)) < 0
        z = _zpoly(h[::-1])
        if len(z) > 1:
            bound = _zroot_bound(z)
            intervals = isolate_real_roots(UniPoly(_zsqf(z)), -bound, bound)
            for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
                assert a1 <= b1 <= a2 <= b2 and (a1, b1) < (a2, b2)

    def test_midpoint_roots_are_points(self):
        """In ``midpoint_root_quartics`` 0 and m = B/2 are roots at the
        midpoints of nodes that hold two or more roots: point intervals."""
        for i, j in ((1, 2), (5, 40), (30, 33)):
            r, s = Fraction(i, 64), Fraction(j, 64)
            m = 1 + r + s
            p = linear(0) * linear(r) * linear(s) * linear(m)
            bound = _zroot_bound(_zpoly(p.coeffs))
            assert bound == 2 * m
            intervals = isolate_real_roots(p, -bound, bound)
            assert intervals[0] == (0, 0) and intervals[-1] == (m, m) and len(intervals) == 4

    def test_strict_positivity(self):
        assert binary_quartic_strictly_positive((1, 0, 0, 0, 1))
        assert not binary_quartic_strictly_positive((1, 0, 0, 0, 0))
        assert not binary_quartic_strictly_positive((1, 0, -3, 0, 1))
        assert not binary_quartic_strictly_positive((1, 0, -2, 0, 1))  # (x^2 - y^2)^2
        assert binary_quartic_strictly_positive((1, 0, 2, 0, 1))  # (x^2 + y^2)^2


class TestSimplestRational:
    def test_inside_interval(self):
        rng = random.Random(3)
        for _ in range(50):
            lo = Fraction(rng.randint(-50, 49), rng.randint(1, 20))
            hi = lo + Fraction(rng.randint(1, 9), rng.randint(10, 500))
            mid = simplest_rational_between(lo, hi)
            assert lo <= mid <= hi

    def test_picks_simple_values(self):
        assert simplest_rational_between(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 2)
        assert simplest_rational_between(Fraction(9, 10), Fraction(11, 10)) == Fraction(1)

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
        st.fractions(min_value=0, max_value=2, max_denominator=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_loop_matches_the_recursion(self, lo, width):
        assert simplest_rational_between(lo, lo + width) == recursive_simplest(lo, lo + width)

    @pytest.mark.parametrize("digits", [1000, 2000])
    def test_deep_continued_fraction(self, digits):
        """Around the 1000-digit truncation s of sqrt(2), [s, s + 10^-digits]
        holds one rational per continued-fraction term of s, more terms
        than the recursion limit allows a recursive walk."""
        s = Fraction(isqrt(2 * 10**2000), 10**1000)
        hi = s + Fraction(1, 10**digits)
        x = simplest_rational_between(s, hi)
        assert is_simplest(x, s, hi)
        assert simplest_rational_between(-hi, -s) == -x

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
        st.fractions(min_value=0, max_value=2, max_denominator=10**6),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    @example(Fraction(-5, 2), Fraction(1, 6), 1, 1)
    @example(Fraction(-1, 3), Fraction(2, 3), 1, 1)
    @example(Fraction(1, 3), Fraction(0), 4, 6)
    def test_wraps_the_integer_core(self, lo, width, k, m):
        """The public function is ``_simplest_between_ints`` on a positive
        interval and on the mirror image of a negative one, and 0 on one
        that holds 0; the core takes ends out of lowest terms (times k and
        m) and returns p / q in lowest terms."""
        hi = lo + width
        x = simplest_rational_between(lo, hi)
        assert x == recursive_simplest(lo, hi)
        if lo == hi or (lo <= 0 <= hi):
            assert x == (lo if lo == hi else 0)
            return
        a, b = (lo, hi) if lo > 0 else (-hi, -lo)
        p, q = _simplest_between_ints(a.numerator * k, a.denominator * k, b.numerator * m, b.denominator * m)
        assert q > 0 and gcd(p, q) == 1
        assert x == (Fraction(p, q) if lo > 0 else -Fraction(p, q))

    def test_integer_walk_on_large_ends(self):
        """Seeded intervals of small and of 4096- to 16384-bit ends, with
        positive, negative and zero-straddling ones: the answer is the
        simplest rational there (``is_simplest_between``)."""
        rng = random.Random(27)

        def rational(bits):
            return Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) | 1)

        cases = []
        for bits in (8, 64, 4096):
            for _ in range(200 if bits < 4096 else 20):
                a, b = sorted((rational(bits), rational(bits)))
                cases += [(a, b), (a, a + (b - a) / (1 << bits))]
        for bits in (4096, 16384):
            # dyadic and non-dyadic intervals around a deep point, both signs
            x = Fraction(rng.getrandbits(bits), 1 << bits)
            y = Fraction(rng.getrandbits(bits), rng.getrandbits(bits) | 1)
            for c in (x, y, -x, -y):
                cases.append((c, c + Fraction(1, 1 << bits)))
                cases.append((c - Fraction(1, 3 << bits), c))
        cases += [(Fraction(-1, 1 << 4096), Fraction(1, 3)), (Fraction(-5, 7), Fraction(0))]
        assert any(a < 0 < b for a, b in cases) and any(b < 0 for a, b in cases)
        for a, b in cases:
            assert is_simplest_between(simplest_rational_between(a, b), a, b), (a, b)


def recursive_simplest(lo, hi):
    """``simplest_rational_between`` as a recursion, one call per
    continued-fraction term: the reference where that depth is allowed."""
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -recursive_simplest(-hi, -lo)

    def rec(a, b):
        ia = a.numerator // a.denominator
        if Fraction(ia + 1) <= b:
            return Fraction(ia if a == ia else ia + 1)
        frac_a = a - ia
        if frac_a == 0:
            return Fraction(ia)
        return ia + 1 / rec(1 / (b - ia), 1 / frac_a)

    return rec(lo, hi)


def is_simplest(x, lo, hi):
    """x = p/q, q > 1, is the rational of least denominator in [lo, hi]:
    it lies there and its two Stern-Brocot parents a/b < x < c/d
    (p b - q a = 1 = c q - d p, b + d = q) lie outside, since every other
    rational strictly between them has a denominator > q."""
    p, q = x.numerator, x.denominator
    b = pow(p, -1, q)
    a, d = (p * b - 1) // q, q - b
    c = p - a
    return q > 1 and lo <= x <= hi and Fraction(a, b) < lo and Fraction(c, d) > hi


def is_simplest_between(x, lo, hi):
    """x is the simplest rational of [lo, hi]: lo when lo = hi, 0 when the
    interval holds 0, else the integer nearest 0 when it holds one, else
    the rational of least denominator there (``is_simplest``)."""
    if lo == hi or lo <= 0 <= hi:
        return x == (lo if lo == hi else 0)
    if hi < 0:
        lo, hi, x = -hi, -lo, -x
    k = -((-lo.numerator) // lo.denominator)  # ceil(lo)
    return x == k if k <= hi else is_simplest(x, lo, hi)
