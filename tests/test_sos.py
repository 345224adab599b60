import random
from fractions import Fraction

import pytest

from symquartic.algebra import SymMat2
from symquartic.dualcone import dual_membership, pair
from symquartic.positivity import is_nonneg, is_nonneg_limit
from symquartic.sos import (
    SosCertificate,
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
        assert ell.as_tuple() == (176, 36, 64, 8, 1)
        assert dual_membership(ell, 4)
        assert pair(ell, f) == Fraction(-128, 3)

    def test_separator_certifies_out_random(self):
        rng = random.Random(73)
        found = 0
        for _ in range(30):
            f = random_form(rng, 4)
            if sos_membership(f).status == "OUT":
                ell = find_separating_functional(f)
                if ell is not None:
                    found += 1
                    assert dual_membership(ell, 4)
                    assert pair(ell, f) < 0
        assert found > 0
