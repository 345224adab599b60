import random
from fractions import Fraction

import pytest

from symquartic.dualcone import (
    DualFunctional,
    boundary_family_functional,
    certify_boundary,
    dual_blocks,
    dual_membership,
    kernel_system_rows,
    pair,
    point_eval_functional,
    special_functional,
)
from symquartic.identities import BoundaryParams, boundary_family_form
from symquartic.symfunc import LIMIT, SymFormP, evaluate, form_from_dict


class TestPairing:
    def test_pair_is_linear_in_coefficients(self):
        ell = DualFunctional(
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


class TestLimitDualCone:
    def test_two_row_block_drops_out(self):
        # f -> c4: trivial block 0, hook block e1 e1^T, two-row block
        # (1 - n)/2 < 0 at every n, yet it is nonnegative on the limit cone
        ell = DualFunctional(1, 0, 0, 0, 0)
        assert dual_membership(ell, LIMIT)
        assert not any(dual_membership(ell, n) for n in range(4, 40))

    def test_indefinite_blocks_rejected(self):
        assert not dual_membership(DualFunctional(0, 0, 1, 0, 0), LIMIT)  # hook
        assert not dual_membership(DualFunctional(1, 0, 0, 0, 1), LIMIT)  # trivial

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
        ell = DualFunctional(
            Fraction(176), Fraction(36), Fraction(64), Fraction(8), Fraction(1)
        )
        m_triv, m_hook, m_tworow = dual_blocks(ell, 4)
        assert (m_triv.m11, m_triv.m12, m_triv.m22) == (64, 8, 1)
        assert (m_hook.m11, m_hook.m12, m_hook.m22) == (112, 28, 7)
        assert m_tworow == 56
        assert dual_membership(ell, 4)


class TestKernelSystem:
    def test_nullspace_dimension_one(self):
        from symquartic.dualcone import _nullspace

        rows = kernel_system_rows(1, Fraction(-13, 10), 1, Fraction(-5, 4))
        basis = _nullspace(rows)
        assert len(basis) == 1

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
        ell = special_functional()
        assert ell.as_tuple() == (1, 0, 1, 0, 0)
        for n in (4, 5, 9):
            _, _, m_tworow = dual_blocks(ell, n)
            assert m_tworow == Fraction((n - 2) ** 2, 2)
            assert dual_membership(ell, n)


class TestCertifyBoundary:
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
        assert certify_boundary(f) is None

    def test_boundary_family_example(self):
        for n in range(5, 13):
            f = SymFormP(4, self.EX_COEFFS, n)
            ell = certify_boundary(f)
            assert ell is not None
            assert ell.as_tuple() == self.EX_ELL
            assert pair(ell, f) == 0
            assert dual_membership(ell, n)

    def test_example_interior_at_four(self):
        # at size 4 the two-row block of the family functional is negative
        # and the form sits strictly inside the cone
        f = SymFormP(4, self.EX_COEFFS, 4)
        assert certify_boundary(f) is None

    def test_point_zero_certificate(self):
        # p_4 - p_(2,2) vanishes at the all-ones point
        f = form_from_dict(4, {(4,): 1, (2, 2): -1}, 4)
        ell = certify_boundary(f)
        assert ell is not None
        assert pair(ell, f) == 0
        assert dual_membership(ell, 4)

    def test_limit_scope_rejected(self):
        f = form_from_dict(4, {(4,): 1}, LIMIT)
        with pytest.raises(ValueError):
            certify_boundary(f)

    def test_non_sos_rejected(self):
        f = form_from_dict(4, {(4,): -1}, 4)
        with pytest.raises(ValueError):
            certify_boundary(f)


class TestRationalProjectiveRoots:
    @staticmethod
    def sympy_roots(h):
        """Rational projective zeros from sympy's factorization of the
        homogeneous quartic h[0] x^4 + h[1] x^3 y + ... + h[4] y^4."""
        import sympy

        x, y = sympy.symbols("x y")
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** (4 - i) * y**i
                   for i, c in enumerate(h))
        out = set()
        for fac, _ in sympy.factor_list(expr, x, y)[1]:
            p = sympy.Poly(fac, x, y)
            if p.total_degree() == 1:
                cx, cy = p.coeff_monomial(x), p.coeff_monomial(y)
                # cx x + cy y = 0 at (x, y) = (-cy/cx, 1), or at (1, 0)
                out.add((Fraction(-cy / cx), Fraction(1)) if cx else (Fraction(1), Fraction(0)))
        return out

    def test_matches_sympy_factor_list(self):
        from symquartic.dualcone import _rational_projective_roots

        def times(h, g):
            """Product of homogeneous forms given by descending coefficients."""
            out = [Fraction(0)] * (len(h) + len(g) - 1)
            for i, a in enumerate(h):
                for j, b in enumerate(g):
                    out[i + j] += a * b
            return out

        rng = random.Random(2718)
        with_infinity = 0
        for _ in range(40):
            # two or four linear forms a x + b y (a = 0 puts a root at
            # infinity, repeats are allowed) times quadratics that may or
            # may not split
            h = [Fraction(1)]
            for _ in range(rng.choice((2, 4))):
                a = 0 if rng.random() < 0.15 else Fraction(rng.randint(1, 9), rng.randint(1, 6))
                h = times(h, [a, Fraction(rng.randint(-9, 9), rng.randint(1, 6)) or 1])
            while len(h) < 5:
                h = times(h, [Fraction(rng.randint(-5, 5)) for _ in range(3)])
            if not any(h):
                continue
            got = _rational_projective_roots(h)
            assert len(got) == len(set(got))
            assert set(got) == self.sympy_roots(h)
            with_infinity += (Fraction(1), Fraction(0)) in got
        assert with_infinity > 0
