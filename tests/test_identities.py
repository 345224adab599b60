import random
from fractions import Fraction

import pytest

import sympy

from symquartic.dualcone import boundary_family_functional, pair
from symquartic.identities import (
    BoundaryParams,
    boundary_family_form,
    disc_poly,
    q1_poly,
    q2_poly,
    second_case_form,
    verify_disc_factorization,
    verify_second_case_double_root,
)
from symquartic.positivity import boundary_status_limit, is_nonneg_limit
from symquartic.sos import sos_membership_limit
from symquartic.symfunc import LIMIT


def count_roots_between(p, lo, hi) -> int:
    """The distinct real roots of the polynomial p in the open interval
    (lo, hi), from sympy's ``Poly.count_roots`` on the closed interval less
    the ends that are roots."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    ends = (sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator))
    return poly.count_roots(*ends) - sum(poly.eval(e) == 0 for e in ends)


def rand_params(rng):
    a = Fraction(rng.randint(1, 5))
    b = Fraction(rng.randint(-6, 6), 2)
    c = Fraction(rng.randint(-5, 5))
    d = Fraction(rng.randint(-6, 6), 2)
    if c == 0 and d == 0:
        d = Fraction(1)
    return BoundaryParams(a, b, c, d)


class TestBoundaryFamilyForm:
    def test_example_coefficients(self):
        p = BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4))
        f = boundary_family_form(p)
        assert f.scope is LIMIT
        assert f.coeffs == (
            Fraction(1),
            Fraction(-13, 5),
            Fraction(0),
            Fraction(179, 100),
            Fraction(-51, 400),
        )

    def test_trivial_parameters_give_p4(self):
        f = boundary_family_form(BoundaryParams(1, 0, 1, 0))
        assert f.coeffs == (1, 0, 0, 0, 0)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            BoundaryParams(0, 0, 1, 1)
        with pytest.raises(ValueError):
            BoundaryParams(1, 1, 0, 0)
        with pytest.raises(ValueError):
            boundary_family_form(BoundaryParams(0, 1, 1, 1))


class TestDiscFactorization:
    def test_fixed_examples(self):
        for params in (
            BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4)),
            BoundaryParams(1, 0, 1, 0),
            BoundaryParams(2, Fraction(1, 2), -1, Fraction(3, 2)),
        ):
            assert verify_disc_factorization(params)

    def test_random_parameters(self):
        rng = random.Random(101)
        for _ in range(40):
            assert verify_disc_factorization(rand_params(rng))

    def test_q1_symmetry_and_special_values(self):
        rng = random.Random(103)
        for _ in range(10):
            p = rand_params(rng)
            q1 = q1_poly(p)
            a, b, c, d = p.a, p.b, p.c, p.d
            assert q1(Fraction(0)) == -16 * a * a * (c + d) ** 2
            assert q1(Fraction(1, 2)) == -Fraction(1, 4) * (
                4 * a * a + 4 * a * b + 4 * c * d + 4 * c * c + b * b
            ) ** 2
            for alpha in (Fraction(1, 3), Fraction(2, 7)):
                assert q1(alpha) == q1(1 - alpha)

    def test_q2_special_values(self):
        rng = random.Random(107)
        for _ in range(10):
            p = rand_params(rng)
            q2 = q2_poly(p)
            a, b, c, d = p.a, p.b, p.c, p.d
            assert q2(Fraction(0)) == a * a * (c + d)
            assert q2(Fraction(1)) == a * a * (c + d)
            assert q2(Fraction(1, 2)) == Fraction(1, 4) * c * (2 * a + b) ** 2

    def test_example_q2_has_two_roots_inside_unit_interval(self):
        p = BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4))
        q2 = q2_poly(p)
        assert count_roots_between(q2, Fraction(0), Fraction(1)) == 2
        # and the discriminant vanishes exactly at those double roots
        disc = disc_poly(p)
        assert count_roots_between(disc, Fraction(1, 100), Fraction(99, 100)) == 2

    def test_end_to_end_boundary_membership(self):
        # the example family member is on the boundary: nonneg, on the
        # limit SOS cone with a certificate, annihilated by its functional
        p = BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4))
        f = boundary_family_form(p)
        assert is_nonneg_limit(f).status == "IN"
        assert boundary_status_limit(f).status == "BOUNDARY"
        verdict = sos_membership_limit(f)
        assert verdict.status == "IN"
        assert verdict.certificate.gamma == 0
        ell = boundary_family_functional(p.a, p.b, p.c, p.d)
        assert pair(ell, f.with_scope(8)) == 0


class TestSecondCase:
    def test_form_coefficients(self):
        f = second_case_form(Fraction(2), (Fraction(3), Fraction(1), Fraction(5)))
        b11, b12, b22 = Fraction(3), Fraction(1), Fraction(5)
        a = Fraction(2)
        assert f.coeffs == (
            b22,
            2 * b12,
            -b22,
            b11 - 2 * b12,
            a * a - b11,
        )

    def test_double_root_identity_default_samples(self):
        assert verify_second_case_double_root()

    def test_double_root_identity_custom_samples(self):
        samples = [
            (Fraction(3), (Fraction(4), Fraction(1), Fraction(2))),
            (Fraction(5, 2), (Fraction(2), Fraction(-1), Fraction(3))),
        ]
        assert verify_second_case_double_root(samples)
