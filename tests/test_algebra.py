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
    binary_quartic_negative_point,
    binary_quartic_nonneg,
    binary_quartic_strictly_positive,
    cells,
    count_real_roots,
    count_roots_open,
    disc_binary_quartic,
    irreducible_factors,
    isolate_real_roots,
    poly_gcd,
    psd2,
    refine_root_interval,
    resultant,
    simplest_rational_between,
    squarefree_part_field,
    sturm_count,
    yun_decomposition,
)

_x = sympy.Symbol("x")


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
            with pytest.raises(ValueError):
                poly_gcd(p, q)
            return
        g = poly_gcd(p, q)
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
        assert sturm_count(p, Fraction(-2), Fraction(2)) == 3

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
        owners = cs.owners()
        assert owners == [self.lin(Fraction(1, 3)), self.lin(Fraction(1, 2)), half_sq]

    def test_degenerate_intervals(self):
        assert cells([], Fraction(0), Fraction(1)).samples == (Fraction(1, 2),)
        point = cells([self.lin(2)], Fraction(2), Fraction(2))
        assert point.breakpoints == () and point.samples == (Fraction(2),)
        assert point.owners() == []


class TestAlgebraicField:
    def test_sqrt2_signs(self):
        minpoly = UniPoly([Fraction(-2), Fraction(0), Fraction(1)])
        field = AlgebraicField(minpoly, Fraction(1), Fraction(2))
        root = field.elem(UniPoly([Fraction(0), Fraction(1)]))
        # root = sqrt(2): root^2 - 2 = 0, root - 1 > 0, root - 3/2 < 0
        assert not (root * root - 2)
        assert (root - 1).sign() > 0
        assert (root - Fraction(3, 2)).sign() < 0

    def test_inverse(self):
        minpoly = UniPoly([Fraction(-2), Fraction(0), Fraction(1)])
        field = AlgebraicField(minpoly, Fraction(1), Fraction(2))
        root = field.elem(UniPoly([Fraction(0), Fraction(1)]))
        assert not (root * (1 / root) - 1)


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
