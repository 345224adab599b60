import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symquartic.algebra import psd2
from symquartic.dualcone import (
    DualFunctional,
    boundary_family_functional,
    dual_blocks,
    dual_membership,
    pair,
    point_eval_functional,
)
from symquartic.identities import BoundaryParams, boundary_family_form
from symquartic.positivity import boundary_status_limit
from symquartic.sos import sos_boundary
from symquartic.symfunc import LIMIT, SymFormP, evaluate, form_from_dict

from conftest import big_fractions, fraction_dual_blocks, fraction_pair, weighted_point_functional


class TestPairing:
    def test_pair_is_linear_in_coefficients(self):
        ell = DualFunctional.from_values(
            Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(5)
        )
        f = SymFormP(4, (1, 0, -1, 2, Fraction(1, 2)), 4)
        assert pair(ell, f) == 1 - 3 + 8 + Fraction(5, 2)

    def test_point_eval_pairs_to_evaluation(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.choice([4, 5, 6])
            v = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
            f = SymFormP(
                4,
                tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(5)),
                n,
            )
            ell = point_eval_functional(v)
            assert pair(ell, f) == evaluate(f, v)

    def test_point_eval_is_dual_member(self):
        rng = random.Random(89)
        for _ in range(25):
            n = rng.choice([4, 5, 7])
            v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            assert dual_membership(point_eval_functional(v), n)

    def test_weighted_point_is_the_expanded_point(self):
        # weights (k/n, 1 - k/n) at (x, y): the point with k coordinates x
        # and n - k coordinates y
        rng = random.Random(97)
        for _ in range(20):
            n = rng.choice([4, 5, 7, 64])
            k = rng.randint(0, n)
            x, y = (Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2))
            w = (Fraction(k, n), Fraction(n - k, n))
            ell = weighted_point_functional(w, (x, y))
            assert ell == point_eval_functional((x,) * k + (y,) * (n - k))
            assert dual_membership(ell, n)


class TestLimitDualCone:
    def test_two_row_block_drops_out(self):
        # f -> c4: trivial block 0, hook block e1 e1^T, two-row block
        # (1 - n)/2 < 0 at every n, yet it is nonnegative on the limit cone
        ell = DualFunctional.from_values(1, 0, 0, 0, 0)
        assert dual_membership(ell, LIMIT)
        assert not any(dual_membership(ell, n) for n in range(4, 40))

    def test_indefinite_blocks_rejected(self):
        assert not dual_membership(DualFunctional.from_values(0, 0, 1, 0, 0), LIMIT)  # hook
        assert not dual_membership(DualFunctional.from_values(1, 0, 0, 0, 1), LIMIT)  # trivial

    def test_point_evaluations_are_limit_members(self):
        # a form of the limit cone is nonnegative at every n, so every
        # point evaluation is nonnegative on it
        rng = random.Random(97)
        for _ in range(25):
            v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 9)))
            assert dual_membership(point_eval_functional(v), LIMIT)

    def test_example_functional(self):
        # example 6.10: the two-row block (25n^2 - 149n + 149)/800 is
        # negative at n = 4 and positive from n = 5 on
        params = BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4))
        ell = boundary_family_functional(params.a, params.b, params.c, params.d)
        assert not dual_membership(ell, 4)
        assert all(dual_membership(ell, n) for n in range(5, 13))
        assert dual_membership(ell, LIMIT)


class TestDualBlocks:
    def test_small_n_rejected(self):
        ell = point_eval_functional((1, 1, 1, 1))
        with pytest.raises(ValueError):
            dual_blocks(ell, 3)

    def test_all_ones_point(self):
        ell = point_eval_functional((1,) * 4)
        m_triv, m_hook, m_tworow = dual_blocks(ell, 4)
        assert (m_triv.m11, m_triv.m12, m_triv.m22) == (1, 1, 1)
        assert (m_hook.m11, m_hook.m12, m_hook.m22) == (0, 0, 0)
        assert m_tworow == 0

    def test_choi_lam_separator_blocks(self):
        ell = DualFunctional.from_values(
            Fraction(176), Fraction(36), Fraction(64), Fraction(8), Fraction(1)
        )
        m_triv, m_hook, m_tworow = dual_blocks(ell, 4)
        assert (m_triv.m11, m_triv.m12, m_triv.m22) == (64, 8, 1)
        assert (m_hook.m11, m_hook.m12, m_hook.m22) == (112, 28, 7)
        assert m_tworow == 56
        assert dual_membership(ell, 4)


class TestKernelSystem:
    def test_family_functional_annihilates_family_form(self):
        rng = random.Random(97)
        for _ in range(20):
            a = Fraction(rng.randint(1, 4))
            b = Fraction(rng.randint(-4, 4), 2)
            c = Fraction(rng.randint(1, 4))
            d = Fraction(rng.randint(-4, 4), 2)
            ell = boundary_family_functional(a, b, c, d)
            f = boundary_family_form(BoundaryParams(a, b, c, d))
            assert pair(ell, f.with_scope(7)) == 0

    def test_example_functional_values(self):
        ell = boundary_family_functional(1, Fraction(-13, 10), 1, Fraction(-5, 4))
        assert ell.as_tuple() == (
            Fraction(397, 200),
            Fraction(63, 40),
            Fraction(25, 16),
            Fraction(5, 4),
            Fraction(1),
        )
        m_triv, m_hook, _ = dual_blocks(ell, 4)
        assert m_triv.det() == 0  # singular
        assert (m_hook.m11, m_hook.m12, m_hook.m22) == (
            Fraction(169, 400),
            Fraction(13, 40),
            Fraction(1, 4),
        )
        assert m_hook.det() == 0  # singular

    def test_example_two_row_value(self):
        ell = boundary_family_functional(1, Fraction(-13, 10), 1, Fraction(-5, 4))
        for n in range(4, 13):
            _, _, m_tworow = dual_blocks(ell, n)
            assert m_tworow == Fraction(25 * n * n - 149 * n + 149, 800)

    def test_special_functional(self):
        # f -> c_(4) + c_(2^2), the end w = 0 of the separator segment
        # (1 + w, 0, 1, 0, 0): in the dual cone at every n
        ell = DualFunctional.from_values(1, 0, 1, 0, 0)
        assert ell.as_tuple() == (1, 0, 1, 0, 0)
        for n in (4, 5, 9):
            _, _, m_tworow = dual_blocks(ell, n)
            assert m_tworow == Fraction((n - 2) ** 2, 2)
            assert dual_membership(ell, n)


class TestCertifyBoundary:
    """Boundary certificates at a numeric scope, from ``sos.sos_boundary``."""

    EX_COEFFS = (
        Fraction(1),
        Fraction(-13, 5),
        Fraction(0),
        Fraction(179, 100),
        Fraction(-51, 400),
    )
    EX_ELL = (
        Fraction(397, 200),
        Fraction(63, 40),
        Fraction(25, 16),
        Fraction(5, 4),
        Fraction(1),
    )

    def test_interior_form_returns_none(self):
        f = form_from_dict(4, {(4,): 1}, 4)
        assert sos_boundary(f) == ("INTERIOR", None)

    def test_boundary_family_example(self):
        # the paper's functional, up to a positive factor
        for n in range(5, 13):
            f = SymFormP(4, self.EX_COEFFS, n)
            status, ell = sos_boundary(f)
            assert status == "BOUNDARY"
            ratios = {y / e for y, e in zip(ell.as_tuple(), self.EX_ELL)}
            assert len(ratios) == 1 and ratios.pop() > 0
            assert pair(ell, f) == 0
            assert dual_membership(ell, n)

    def test_example_interior_at_four(self):
        # at size 4 the two-row block of the family functional is negative
        # and the form sits strictly inside the cone
        f = SymFormP(4, self.EX_COEFFS, 4)
        assert sos_boundary(f) == ("INTERIOR", None)

    def test_point_zero_certificate(self):
        # p_4 - p_(2,2) vanishes at the all-ones point
        f = form_from_dict(4, {(4,): 1, (2, 2): -1}, 4)
        status, ell = sos_boundary(f)
        assert status == "BOUNDARY"
        assert ell == point_eval_functional((1,) * 4)
        assert pair(ell, f) == 0
        assert dual_membership(ell, 4)

    def test_limit_scope_agrees_with_boundary_status_limit(self):
        for coeffs in ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, -1, 0, 0), (-1, 0, 0, 0, 0), self.EX_COEFFS):
            f = SymFormP(4, coeffs, LIMIT)
            verdict = boundary_status_limit(f)
            assert sos_boundary(f) == (verdict.status, verdict.witness)

    def test_non_sos_outside(self):
        f = form_from_dict(4, {(4,): -1}, 4)
        assert sos_boundary(f) == ("OUTSIDE", None)


_rat = st.fractions(min_value=-6, max_value=6, max_denominator=12)
#: values with small denominators, so that determinants and two-row
#: blocks vanish often enough to hit the boundary of every test
_val = st.one_of(st.integers(-3, 3).map(Fraction), _rat)
#: the same, or rationals with about 4000-bit numerators and denominators
_any_val = st.one_of(_val, big_fractions)
_scope = st.sampled_from((4, 5, 6, 7, 8, 64, 10**30, 10**40, LIMIT))


def reference_membership(ell, n):
    """``dual_membership`` in Fractions, on the blocks themselves."""
    m_triv, m_hook, m_tworow = fraction_dual_blocks(ell, n)
    return psd2(m_triv) and psd2(m_hook) and (n is LIMIT or m_tworow >= 0)


@st.composite
def _functionals(draw, values=_val):
    """Functionals drawn directly, or as rank-1 trivial and hook blocks
    (the extreme rays' shape), whose determinants vanish."""
    if draw(st.booleans()):
        return DualFunctional.from_values(*draw(st.tuples(*[values] * 5)))
    a, b, c, d = draw(st.tuples(*[values] * 4))
    y22, y211, y1111 = a * a, a * b, b * b
    return DualFunctional.from_values(c * c + y22, c * d + y211, y22, y211, d * d + y211)


class TestIntegerCore:
    """``pair``, ``_weighted_point_ints`` (through the test-local
    ``weighted_point_functional``) and ``dual_membership`` run in integers;
    each must equal its Fraction definition."""

    @given(st.tuples(*[_any_val] * 5), st.tuples(*[_any_val] * 5), _scope)
    @settings(max_examples=150, deadline=None)
    def test_pair_is_the_fraction_sum(self, ys, cs, n):
        ell = DualFunctional.from_values(*ys)
        f = SymFormP(4, cs, n)
        assert pair(ell, f) == sum((c * y for c, y in zip(cs, ys)), Fraction(0)) == fraction_pair(ell, f)

    @given(st.tuples(*[_val] * 4))
    @settings(max_examples=150, deadline=None)
    @example((Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-5, 7)))
    @example((Fraction(1, 3), Fraction(2, 3), Fraction(0), Fraction(0)))
    def test_weighted_point_is_the_fraction_formula(self, vals):
        w1, w2, x, y = vals
        p1, p2, p3, p4 = (w1 * x**i + w2 * y**i for i in (1, 2, 3, 4))
        ell = weighted_point_functional((w1, w2), (x, y))
        assert ell.as_tuple() == (p4, p3 * p1, p2 * p2, p2 * p1 * p1, p1**4)
        assert all(type(v) is Fraction for v in ell.as_tuple())

    def test_weighted_point_takes_ints(self):
        ell = weighted_point_functional((1, 0), (2, 5))
        assert ell == point_eval_functional((2,))

    @given(st.one_of(_functionals(), _functionals(_any_val)), _scope)
    @settings(max_examples=300, deadline=None)
    def test_membership_is_the_fraction_blocks(self, ell, n):
        assert dual_membership(ell, n) == reference_membership(ell, n)
        if n is not LIMIT:
            assert dual_blocks(ell, n) == fraction_dual_blocks(ell, n)

    def test_membership_branches(self):
        # each block decides one of these: the hook block fails, the
        # two-row block fails at n = 4 only, and all three hold
        hook_fails = DualFunctional.from_values(0, 0, 1, 0, 0)
        assert not dual_membership(hook_fails, LIMIT) and not reference_membership(hook_fails, 4)
        # y = (1 + w, 0, 1, 0, 0): tau >= 0 iff w <= (n-2)^2/(n-1), 4/3 at n = 4
        tworow = DualFunctional.from_values(3, 0, 1, 0, 0)
        assert [dual_membership(tworow, n) for n in (4, 5, LIMIT)] == [False, True, True]
        assert [reference_membership(tworow, n) for n in (4, 5, LIMIT)] == [False, True, True]
        edge = DualFunctional.from_values(Fraction(7, 3), 0, 1, 0, 0)
        assert dual_membership(edge, 4) and dual_blocks(edge, 4)[2] == 0

    def test_membership_rejects_small_n(self):
        with pytest.raises(ValueError):
            dual_membership(DualFunctional.from_values(-1, 0, 0, 0, 0), 3)


def test_functional_from_values_converts_every_value():
    third = Fraction(1, 3)
    ell = DualFunctional.from_values(third, 2, "3/4", 0.5, Fraction(5))
    assert ell.y4 == third
    assert (ell.den, ell.ys) == (12, (4, 24, 9, 6, 60))
    assert ell.as_tuple() == (third, Fraction(2), Fraction(3, 4), Fraction(1, 2), Fraction(5))
    assert all(type(v) is Fraction for v in ell.as_tuple())


class TestRepresentation:
    """A functional is five integers over one positive scale in lowest
    terms (``TestIntegerCore`` checks what reads them)."""

    @given(st.tuples(*[_any_val] * 5), st.integers(1, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_values_round_trip(self, values, k):
        ell = DualFunctional.from_values(*values)
        assert ell.as_tuple() == values
        assert (ell.y4, ell.y31, ell.y22, ell.y211, ell.y1111) == values
        assert ell.den > 0 and math.gcd(ell.den, *ell.ys) == 1
        # the same values over k times the scale are the same functional
        same = DualFunctional(ell.den * k, tuple(y * k for y in ell.ys))
        assert same == ell and hash(same) == hash(ell) and same.ys == ell.ys

    def test_equal_values_equal_objects(self):
        a = DualFunctional.from_values(Fraction(1, 2), 0, 1, Fraction(-3, 4), 2)
        b = DualFunctional(12, (6, 0, 12, -9, 24))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != DualFunctional.from_values(Fraction(1, 2), 0, 1, Fraction(-3, 4), 3)

    def test_bad_scale_or_length_rejected(self):
        for den in (0, -4):
            with pytest.raises(ValueError):
                DualFunctional(den, (1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            DualFunctional(1, (1, 0, 0, 0))
