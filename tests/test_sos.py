import random
from fractions import Fraction

import pytest

from symquartic.algebra import SymMat2, psd2
from symquartic.dualcone import DualFunctional, dual_blocks, dual_membership, pair
from symquartic.positivity import is_nonneg, is_nonneg_limit
from symquartic.sos import (
    SosCertificate,
    _chart_quadratic,
    _gamma_gen_coeffs,
    expand_certificate,
    find_separating_functional,
    sos_membership,
    sos_membership_limit,
)
from symquartic.symfunc import LIMIT, SymFormP, form_from_dict

from conftest import choi_lam_multipoly, random_form


def zero2():
    return SymMat2(Fraction(0), Fraction(0), Fraction(0))


def e22():
    return SymMat2(Fraction(0), Fraction(0), Fraction(1))


class TestExpandCertificate:
    def test_alpha_block_e22_is_p22(self):
        # the second alpha-basis element is p_2, so its square is p_(2,2)
        cert = SosCertificate(e22(), zero2(), Fraction(0), LIMIT)
        assert expand_certificate(cert).coeffs == (0, 0, 1, 0, 0)

    def test_beta_block_e22_is_p4_minus_p22(self):
        cert = SosCertificate(zero2(), e22(), Fraction(0), LIMIT)
        assert expand_certificate(cert).coeffs == (1, 0, -1, 0, 0)

    def test_gamma_generator_at_n4(self):
        cert = SosCertificate(zero2(), zero2(), Fraction(1), 4)
        assert expand_certificate(cert).coeffs == (
            Fraction(-3, 32),
            Fraction(3, 8),
            Fraction(7, 32),
            Fraction(-1),
            Fraction(1, 2),
        )

    def test_limit_requires_zero_gamma(self):
        cert = SosCertificate(zero2(), zero2(), Fraction(1), LIMIT)
        with pytest.raises(ValueError):
            expand_certificate(cert)

    def test_linearity(self):
        a = SosCertificate(
            SymMat2(Fraction(2), Fraction(1), Fraction(3)),
            SymMat2(Fraction(1), Fraction(0), Fraction(1)),
            Fraction(1, 2),
            5,
        )
        doubled = SosCertificate(
            SymMat2(Fraction(4), Fraction(2), Fraction(6)),
            SymMat2(Fraction(2), Fraction(0), Fraction(2)),
            Fraction(1),
            5,
        )
        fa = expand_certificate(a)
        fd = expand_certificate(doubled)
        assert tuple(2 * c for c in fa.coeffs) == fd.coeffs


class TestLimitMembership:
    def test_p4_minus_p22_in(self):
        f = form_from_dict(4, {(4,): 1, (2, 2): -1}, LIMIT)
        verdict = sos_membership_limit(f)
        assert verdict.status == "IN"
        cert = verdict.certificate
        assert cert.is_valid()
        assert expand_certificate(cert) == f

    def test_p22_minus_p4_out(self):
        f = form_from_dict(4, {(2, 2): 1, (4,): -1}, LIMIT)
        assert sos_membership_limit(f).status == "OUT"

    def test_scalar_generator_direction_in(self):
        f = form_from_dict(
            4, {(1, 1, 1, 1): Fraction(1, 2), (2, 1, 1): -1, (2, 2): Fraction(1, 2)}, LIMIT
        )
        verdict = sos_membership_limit(f)
        assert verdict.status == "IN"
        assert expand_certificate(verdict.certificate) == f

    def test_numeric_scope_rejected(self):
        with pytest.raises(ValueError):
            sos_membership_limit(form_from_dict(4, {(4,): 1}, 4))


# Forms expand_certificate(rank-1 A, rank-1 B, gamma), SOS by construction,
# whose feasible gamma lies in an open cell between two breakpoint
# intervals that share an endpoint; canonical coefficient order.
_RANK_ONE_SOS = {
    "rank1-n5": (5, ("127/60", "98/15", "-421/240", "-109/24", "-5/48")),
    "rank1-n7": (7, ("44/49", "167/49", "-965/2352", "-73/24", "7/48")),
    "rank1-n6": (6, ("7/144", "13/72", "59/240", "-181/80", "323/80")),
}
# Forms expand_certificate(rank-1 A, rank-1 B, 1/3) whose two PSD regions in
# the (gamma, u) plane touch at one point: gamma = 1/3 is the only feasible
# value, a rational breakpoint inside a non-point isolating interval.
_SINGLE_GAMMA_SOS = {
    "single-gamma-n5a": (5, ("73/75", "158/75", "-131/150", "-26/15", "1/6")),
    "single-gamma-n5b": (5, ("94/225", "-92/75", "407/900", "1/5", "1/6")),
}


class TestNumericMembership:
    @pytest.mark.parametrize(
        "n, coeffs",
        [(n, (1, 0, 0, 0, 0)) for n in (4, 5, 9)]
        + list(_RANK_ONE_SOS.values())
        + list(_SINGLE_GAMMA_SOS.values()),
        ids=["p4-n4", "p4-n5", "p4-n9"] + list(_RANK_ONE_SOS) + list(_SINGLE_GAMMA_SOS),
    )
    def test_in_with_certificate(self, n, coeffs):
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        verdict = sos_membership(f)
        assert verdict.status == "IN"
        assert verdict.certificate is not None
        assert verdict.note is None
        assert expand_certificate(verdict.certificate) == f

    def test_negative_form_out(self):
        assert sos_membership(form_from_dict(4, {(4,): -1}, 4)).status == "OUT"

    def test_limit_scope_rejected(self):
        with pytest.raises(ValueError):
            sos_membership(form_from_dict(4, {(4,): 1}, LIMIT))

    def test_certificates_reexpand_exactly(self):
        rng = random.Random(61)
        ins = 0
        for _ in range(40):
            f = random_form(rng, rng.choice([4, 5, 7]))
            verdict = sos_membership(f)
            if verdict.status == "IN" and verdict.certificate is not None:
                ins += 1
                assert verdict.certificate.is_valid()
                assert expand_certificate(verdict.certificate) == f
        assert ins > 0

    def test_sos_implies_nonneg(self):
        rng = random.Random(67)
        ins = 0
        for _ in range(40):
            f = random_form(rng, 5)
            if sos_membership(f).status == "IN":
                ins += 1
                assert is_nonneg(f).status == "IN"
        assert ins > 0

    def test_limit_sos_implies_limit_nonneg(self):
        rng = random.Random(71)
        ins = 0
        for _ in range(30):
            f = random_form(rng, LIMIT)
            if sos_membership_limit(f).status == "IN":
                ins += 1
                assert is_nonneg_limit(f).status == "IN"
        assert ins > 0


class TestSeparation:
    def test_nonneg_not_sos_example(self):
        from symquartic.specht import brute_symmetrize
        from symquartic.symfunc import m_to_p

        f = m_to_p(brute_symmetrize(choi_lam_multipoly(), 4), 4)
        assert is_nonneg(f).status == "IN"
        assert sos_membership(f).status == "OUT"
        ell = find_separating_functional(f)
        assert ell is not None
        assert dual_membership(ell, 4)
        assert pair(ell, f) < 0

    def test_separator_certifies_out_random(self):
        rng = random.Random(73)
        outs = 0
        for _ in range(30):
            f = random_form(rng, 4)
            if sos_membership(f).status == "OUT":
                outs += 1
                ell = find_separating_functional(f)
                assert ell is not None
                assert dual_membership(ell, 4)
                assert pair(ell, f) < 0
        assert outs > 0

    def test_nonneg_not_sos_near_boundary_regression(self):
        # the former grid search exhausted its grid on this form (n = 5)
        f = SymFormP(
            4,
            (Fraction(9, 16), Fraction(-21, 8), Fraction(27, 16), Fraction(7, 16),
             Fraction(-1, 1024)),
            5,
        )
        assert is_nonneg(f).status == "IN"
        assert sos_membership(f).status == "OUT"
        ell = find_separating_functional(f)
        assert ell is not None
        assert dual_membership(ell, 5)
        assert pair(ell, f) < 0

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_separator_exactly_when_out(self, n):
        """Rank-one certificate expansions with one coefficient lowered by
        1/1024 (some of them nonnegative but not SOS) and box forms."""
        rng = random.Random(1000 + n)

        def small():
            return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))

        def rank1():
            a, b = small(), small()
            return SymMat2(a * a, a * b, b * b)

        ins = nonneg_outs = 0
        for i in range(24):
            if i % 3:
                coeffs = list(
                    expand_certificate(SosCertificate(rank1(), rank1(), Fraction(0), n)).coeffs
                )
                coeffs[i % 5] -= Fraction(1, 1024)
                f = SymFormP(4, tuple(coeffs), n)
            else:
                f = random_form(rng, n)
            ell = find_separating_functional(f)
            if sos_membership(f).status == "OUT":
                nonneg_outs += is_nonneg(f).status == "IN"
                assert ell is not None
                assert dual_membership(ell, n)
                assert pair(ell, f) < 0
            else:
                ins += 1
                assert ell is None
        assert nonneg_outs > 0 and ins > 0

    def test_sos_forms_have_no_separator(self):
        for n in (4, 5, 8):
            gen = SymFormP(4, _gamma_gen_coeffs(n), n)
            assert find_separating_functional(gen) is None
            assert find_separating_functional(gen.scale(0)) is None
            ell = find_separating_functional(gen.scale(-1))
            assert ell is not None and pair(ell, gen) > 0
            assert dual_membership(ell, n)

    def test_limit_scope_rejected(self):
        with pytest.raises(ValueError):
            find_separating_functional(SymFormP(4, (1, 0, 0, 0, -1), LIMIT))


def _s_chart(s, z):
    t = 1 + s * s
    return DualFunctional(z * z + t * t, s * z + t, t * t, t, 1)


class TestSeparatorCharts:
    GRID = [Fraction(p, q) for q in (1, 3) for p in range(-7, 8)]

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_s_chart_in_dual_cone_where_tau_nonneg(self, n):
        for s in self.GRID:
            for z in self.GRID:
                ell = _s_chart(s, z)
                m_triv, m_hook, tau = dual_blocks(ell, n)
                assert m_triv.det() == 0 and m_hook.det() == 0
                assert psd2(m_triv) and psd2(m_hook)
                assert dual_membership(ell, n) == (tau >= 0)

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_x2_zero_chart_in_dual_cone_on_its_segment(self, n):
        w_max = Fraction((n - 2) ** 2, n - 1)
        for k in range(-2, 13):
            w = w_max * Fraction(k, 10)
            ell = DualFunctional(1 + w, 0, 1, 0, 0)
            assert dual_membership(ell, n) == (0 <= w <= w_max)

    def test_chart_quadratic_is_the_pairing(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_form(rng, 6)
            a, b, c = _chart_quadratic(f.coeffs)
            for s in self.GRID[::4]:
                for z in self.GRID[::3]:
                    assert a(s) * z * z + b(s) * z + c(s) == pair(_s_chart(s, z), f)
