import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from symquartic.algebra import (
    AlgebraicField,
    SymMat2,
    UniPoly,
    _zgcd,
    _zpoly,
    _zsturm,
    binary_quartic_negative_point,
    binary_quartic_nonneg,
    binary_quartic_strictly_positive,
    cells,
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
    keyed on the degree difference comes out wrong.  Each chain below has
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
        p = UniPoly(ints)
        chain, ref = [UniPoly(z) for z in _zsturm(_zpoly(p.coeffs))], euclid_sturm(p)
        assert len(chain) == len(ref)
        for term, want in zip(chain, ref):
            assert term.degree == want.degree
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


class TestCells:
    @staticmethod
    def lin(r):
        return UniPoly([-Fraction(r), Fraction(1)])

    def test_breakpoints_samples_and_owners(self):
        half_sq = UniPoly([Fraction(-1, 2), Fraction(0), Fraction(1)])  # x^2 - 1/2
        polys = [
            self.lin(0) * self.lin(1),  # roots at the ends cut nothing
            self.lin(Fraction(1, 3)),  # rational, never hit by bisection
            self.lin(Fraction(1, 2)) ** 2,  # a double root counts once
            half_sq * self.lin(Fraction(1, 3)),  # sqrt(1/2), 1/3 again
        ]
        cs = cells(polys, Fraction(0), Fraction(1))
        assert len(cs.breakpoints) == 3
        assert len(cs.samples) == 4
        prev = Fraction(0)
        for (a, b), s, s_next in zip(cs.breakpoints, cs.samples, cs.samples[1:]):
            assert prev < a <= b < 1  # strictly apart and inside
            assert prev < s <= a and (s < a or a < b) and b < s_next
            prev = b
        assert prev < cs.samples[-1] < 1
        assert all(cs.product(s) != 0 for s in cs.samples)
        # each breakpoint isolates a root of the factor it came from
        for (a, b), factor in zip(
            cs.breakpoints, [self.lin(Fraction(1, 3)), self.lin(Fraction(1, 2)), half_sq]
        ):
            root = AlgebraicField(cs.product, a, b)
            assert root.sign_of_poly(factor) == 0
            assert root.sign_of_poly(half_sq - Fraction(1, 8)) != 0

    def test_degenerate_intervals(self):
        assert cells([], Fraction(0), Fraction(1)).samples == (Fraction(1, 2),)
        point = cells([self.lin(2)], Fraction(2), Fraction(2))
        assert point.breakpoints == () and point.samples == (Fraction(2),)


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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_signs_at_roots_match_sympy(self, data):
        """At each real root of a random squarefree product of linear and
        quadratic factors, the sign query agrees with sympy's exact sign
        of p at that root (its isolating interval comes from cells)."""
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
        cs = cells([product], Fraction(-20), Fraction(20))
        roots = sorted(sympy.Poly(to_sympy(product).as_expr(), _x).real_roots())
        roots = list(dict.fromkeys(roots))
        assert len(roots) == len(cs.breakpoints)
        p_expr = to_sympy(p).as_expr()
        for (a, b), r in zip(cs.breakpoints, roots):
            assert a <= r <= b
            want = sympy.sign(sympy.simplify(p_expr.subs(_x, r)))
            assert AlgebraicField(cs.product, a, b).sign_of_poly(p) == int(want)


class TestMatrices:
    def test_psd2(self):
        assert psd2(SymMat2(Fraction(1), Fraction(0), Fraction(1)))
        assert psd2(SymMat2(Fraction(1), Fraction(1), Fraction(1)))
        assert psd2(SymMat2(Fraction(0), Fraction(0), Fraction(0)))
        assert not psd2(SymMat2(Fraction(1), Fraction(2), Fraction(1)))
        assert not psd2(SymMat2(Fraction(-1), Fraction(0), Fraction(1)))
        assert not psd2(SymMat2(Fraction(0), Fraction(1), Fraction(2)))


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
