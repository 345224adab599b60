import importlib.util
import random
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import symquartic.algebra as algebra
import symquartic.positivity as positivity
import symquartic.sos as sos
from symquartic.algebra import SymMat2, psd2
from symquartic.dualcone import (
    DualFunctional,
    _gamma_gen_ints,
    boundary_family_functional,
    dual_blocks,
    dual_membership,
    pair,
)
from symquartic.identities import BoundaryParams, boundary_family_form
from symquartic.positivity import (
    boundary_status_limit,
    is_nonneg,
    is_nonneg_limit,
    is_strictly_positive,
)
from symquartic.sos import (
    _NO_GEN,
    SosCertificate,
    _block_polys,
    _certificate,
    _chart_quartic,
    _entries_at,
    _entry_map,
    _gamma_zero_entries,
    _smallest_u,
    _w_separator,
    expand_certificate,
    find_separating_functional,
    sos_boundary,
    sos_membership,
    sos_membership_limit,
)
from symquartic.symfunc import LIMIT, SymFormP, evaluate, form_from_dict

from conftest import big_fractions, choi_lam_multipoly, random_form, weighted_point_functional
from test_oracles import (
    check_certificate,
    expand,
    feasible_at_gamma,
    gamma_range,
    in_cone,
    in_dual_cone,
    least_passing_u,
    pairing,
    psd,
    supports,
)


_SCAN_SCOPES_AND_LIMIT = st.sampled_from((4, 5, 6, 8, 10**40, LIMIT))


def _certificate_on_blocks(f, blocks, gamma):
    """``_certificate`` at a rational gamma from the linear forms of
    ``_block_polys``, as ``sos_membership`` builds it at gamma > 0: the
    certificate, or None when no u makes both blocks PSD there."""
    return _certificate(f, *_entries_at(blocks, gamma), gamma, blocks[2])


def zero2():
    return SymMat2(Fraction(0), Fraction(0), Fraction(0))


def e22():
    return SymMat2(Fraction(0), Fraction(0), Fraction(1))


class TestExpandCertificate:
    def test_alpha_block_e22_is_p22(self):
        # the second alpha-basis element is p_2, so its square is p_(2,2)
        cert = SosCertificate.from_blocks(e22(), zero2(), Fraction(0), LIMIT)
        assert expand_certificate(cert).coeffs == (0, 0, 1, 0, 0)

    def test_beta_block_e22_is_p4_minus_p22(self):
        cert = SosCertificate.from_blocks(zero2(), e22(), Fraction(0), LIMIT)
        assert expand_certificate(cert).coeffs == (1, 0, -1, 0, 0)

    def test_gamma_generator_at_n4(self):
        cert = SosCertificate.from_blocks(zero2(), zero2(), Fraction(1), 4)
        assert expand_certificate(cert).coeffs == (
            Fraction(-3, 32),
            Fraction(3, 8),
            Fraction(7, 32),
            Fraction(-1),
            Fraction(1, 2),
        )

    def test_limit_requires_zero_gamma(self):
        cert = SosCertificate.from_blocks(zero2(), zero2(), Fraction(1), LIMIT)
        with pytest.raises(ValueError):
            expand_certificate(cert)

    def test_linearity(self):
        a = SosCertificate.from_blocks(
            SymMat2(Fraction(2), Fraction(1), Fraction(3)),
            SymMat2(Fraction(1), Fraction(0), Fraction(1)),
            Fraction(1, 2),
            5,
        )
        doubled = SosCertificate.from_blocks(
            SymMat2(Fraction(4), Fraction(2), Fraction(6)),
            SymMat2(Fraction(2), Fraction(0), Fraction(2)),
            Fraction(1),
            5,
        )
        fa = expand_certificate(a)
        fd = expand_certificate(doubled)
        assert tuple(2 * c for c in fa.coeffs) == fd.coeffs


_entry = st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=6), big_fractions)


@st.composite
def _cert_blocks(draw, psd=False):
    """Six block entries: drawn directly, or as PSD blocks a a^T + t I."""
    if not psd and draw(st.booleans()):
        return draw(st.tuples(*[_entry] * 6))
    a, b, c, d = draw(st.tuples(*[_entry] * 4))
    t, r = draw(st.tuples(*[st.sampled_from((0, 0, Fraction(1, 3), 2))] * 2))
    return (a * a + t, a * b, b * b + t, c * c + r, c * d, d * d + r)


class TestCertificateRepresentation:
    """A certificate keeps its six block entries as integers over one
    positive scale in lowest terms; ``is_valid`` and ``expand_certificate``
    read them."""

    @given(_cert_blocks(), st.fractions(min_value=0, max_value=4, max_denominator=6), st.integers(1, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_blocks_round_trip(self, xs, gamma, k):
        A, B = SymMat2(*xs[:3]), SymMat2(*xs[3:])
        cert = SosCertificate.from_blocks(A, B, gamma, 5)
        assert (cert.A, cert.B, cert.gamma) == (A, B, gamma)
        assert cert.den > 0 and gcd(cert.den, *cert.entries) == 1
        # the same entries over k times the scale are the same certificate
        same = SosCertificate(cert.den * k, tuple(x * k for x in cert.entries), gamma, 5)
        assert same == cert and hash(same) == hash(cert) and same.entries == cert.entries

    def test_bad_scale_or_length_rejected(self):
        with pytest.raises(ValueError):
            SosCertificate(0, (1, 0, 0, 0, 0, 0), Fraction(0), 4)
        with pytest.raises(ValueError):
            SosCertificate(1, (1, 0, 0, 0, 0), Fraction(0), 4)

    @given(_cert_blocks(), st.fractions(min_value=-1, max_value=4, max_denominator=6), _SCAN_SCOPES_AND_LIMIT)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_fraction_versions(self, xs, gamma, scope):
        """``is_valid`` is both blocks PSD, gamma >= 0 and gamma = 0 at
        LIMIT, and ``expand_certificate`` is the block map of the oracles
        (``test_oracles.expand``), both in Fractions."""
        cert = SosCertificate.from_blocks(SymMat2(*xs[:3]), SymMat2(*xs[3:]), gamma, scope)
        valid = psd(*xs[:3]) and psd(*xs[3:]) and gamma >= 0 and (scope is not LIMIT or gamma == 0)
        assert cert.is_valid() == valid
        if scope is not LIMIT or gamma == 0:
            assert expand_certificate(cert).coeffs == expand(xs, gamma, scope)

    @given(_cert_blocks(psd=True), st.sampled_from((0, Fraction(1, 3), 2)), _SCAN_SCOPES_AND_LIMIT)
    @settings(max_examples=60, deadline=None)
    def test_decided_certificates_pass_the_fraction_checks(self, xs, gamma, scope):
        """The certificate ``sos`` builds for the image of PSD blocks under
        the block map, with entries of up to about 4000 bits, passes the
        certificate check of the oracles."""
        gamma = 0 if scope is LIMIT else gamma
        f = SymFormP(4, expand(xs, gamma, scope), scope)
        cert = sos_certificate(f)
        assert cert.is_valid() and expand_certificate(cert) == f
        check_certificate(cert, f)


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


def count_gamma_zero_route(monkeypatch) -> dict[str, list]:
    """Record the calls of ``_smallest_u``, of the gcd route
    ``_certificate`` and of ``_checked``, which turns a step into the
    checked certificate, by name."""
    calls = {"_smallest_u": [], "_certificate": [], "_checked": []}
    for name in calls:

        def counted(*args, _name=name, _real=getattr(sos, name)):
            calls[_name].append(args)
            return _real(*args)

        monkeypatch.setattr(sos, name, counted)
    return calls


class TestLimitOncePerForm:
    def test_certificate_built_once(self, monkeypatch):
        """The gamma = 0 certificate of a LIMIT form is built once, from the
        step kept on the form: ``_smallest_u`` runs once, ``_checked`` once,
        and the gcd route ``_certificate`` never."""
        calls = count_gamma_zero_route(monkeypatch)
        f = form_from_dict(4, {(4,): 1, (2, 2): -1}, LIMIT)
        assert is_nonneg_limit(f).status == "IN"
        verdict = sos_membership_limit(f)
        assert verdict.status == "IN" and expand_certificate(verdict.certificate) == f
        assert [len(c) for c in calls.values()] == [1, 0, 1]
        assert calls["_checked"][0][3] is sos._gamma_zero_step(f)
        # the supporting functional of a BOUNDARY form reads that certificate
        boundary = boundary_status_limit(f)
        assert boundary.status == "BOUNDARY" and pair(boundary.witness, f) == 0
        assert [len(c) for c in calls.values()] == [1, 0, 1]
        g = SymFormP(4, f.coeffs, LIMIT)
        assert f == g and hash(f) == hash(g)
        assert sos_membership_limit(g) == verdict
        assert [len(c) for c in calls.values()] == [2, 0, 2]

    def test_gamma_zero_signs_read_once(self, monkeypatch):
        """The gamma = 0 blocks are classified once, and the certificate
        is built once from that same step: ``_smallest_u`` never runs
        inside the gamma = 0 certificate."""
        calls = count_gamma_zero_route(monkeypatch)
        f = form_from_dict(4, {(4,): 1, (2, 2): 1}, LIMIT)
        assert is_nonneg_limit(f).status == "IN"
        assert sos_membership_limit(f).status == "IN"
        assert boundary_status_limit(f).status == "INTERIOR"
        assert calls["_smallest_u"] == [_gamma_zero_entries(f)[1]]
        assert calls["_certificate"] == []
        assert len(calls["_checked"]) == 1 and calls["_checked"][0][1:] == (
            *_gamma_zero_entries(f), sos._gamma_zero_step(f), 0, _NO_GEN
        )

    def test_gamma_zero_entries_built_once(self, monkeypatch):
        """The gamma = 0 entries of one form are built once, though the
        signs, the coefficient sum, the limit witness and the gamma = 0
        certificate each read them; ``_entry_map`` also maps the generator
        in ``_block_polys``, which only a gamma > 0 decision builds, so the
        form IN at gamma = 0 maps once."""
        calls = []

        def counted(v):
            calls.append(v)
            return _entry_map(v)

        monkeypatch.setattr(sos, "_entry_map", counted)
        coeffs = ("8", "-160/3", "-8", "128", "-128/3")
        choi_lam = SymFormP(4, tuple(Fraction(c) for c in coeffs), LIMIT)
        assert is_nonneg_limit(choi_lam).status == "OUT"
        assert sos_membership_limit(choi_lam).status == "OUT"
        assert boundary_status_limit(choi_lam).status == "OUTSIDE"
        assert len(calls) == 1
        f = choi_lam.with_scope(64)
        assert is_nonneg(f).status == "OUT"
        assert not is_strictly_positive(f)
        assert len(calls) == 2
        assert sos_membership(form_from_dict(4, {(4,): 1}, 64)).status == "IN"
        assert len(calls) == 3


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


@pytest.fixture
def gamma_scan_builds(monkeypatch):
    """The forms whose D, V and H (``sos._gamma_terms``, kept once per form
    object) the closed-form gamma-scan builds."""
    calls = []
    real = sos._gamma_terms

    def counted(f):
        if real.kept(f) is None:
            calls.append(f)
        return real(f)

    monkeypatch.setattr(sos, "_gamma_terms", counted)
    return calls


class TestNumericMembership:
    @pytest.mark.parametrize(
        "n, coeffs",
        [(n, (1, 0, 0, 0, 0)) for n in (4, 5, 9)]
        + list(_RANK_ONE_SOS.values())
        + list(_SINGLE_GAMMA_SOS.values()),
        ids=["p4-n4", "p4-n5", "p4-n9"] + list(_RANK_ONE_SOS) + list(_SINGLE_GAMMA_SOS),
    )
    def test_in_with_certificate(self, gamma_scan_builds, n, coeffs):
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        verdict = sos_membership(f)
        assert verdict.status == "IN"
        assert verdict.certificate is not None
        assert verdict.note is None
        assert expand_certificate(verdict.certificate) == f
        # p4 is feasible at gamma = lo = 0 and takes no gamma-scan; the
        # other forms are feasible only inside the range and take the scan
        if coeffs == (1, 0, 0, 0, 0):
            assert verdict.certificate.gamma == 0 and gamma_scan_builds == []
        else:
            assert len(gamma_scan_builds) >= 1

    @pytest.mark.parametrize(
        "n, coeffs, cell_gamma, gamma",
        [
            (6, ("1/6", "22/9", "5/2", "-15", "17"), Fraction(7), Fraction(6)),
            (4, ("1/16", "-9/4", "43/144", "8", "1"), Fraction(7, 3), Fraction(5, 2)),
        ],
    )
    def test_closed_form_gamma_pinned(self, gamma_scan_builds, n, coeffs, cell_gamma, gamma):
        """Both ends of the gamma range are infeasible, and {D >= 0, V >= 0}
        is empty inside it.  The certificate's gamma is the simplest
        rational near the local maximum of H (``sos._open_gamma``), pinned,
        read off one build of D, V and H; the cell sample that the former
        scan certified is feasible too."""
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        lo, hi = gamma_range(f)
        assert not feasible_at_gamma(f, lo) and not feasible_at_gamma(f, hi)
        assert feasible_at_gamma(f, cell_gamma)
        verdict = sos_membership(f)
        assert verdict.status == "IN" and verdict.certificate.gamma == gamma
        check_certificate(verdict.certificate, f)
        assert len(gamma_scan_builds) == 1

    def test_negative_form_out(self):
        assert sos_membership(form_from_dict(4, {(4,): -1}, 4)).status == "OUT"

    def test_limit_scope_rejected(self):
        with pytest.raises(ValueError):
            sos_membership(form_from_dict(4, {(4,): 1}, LIMIT))

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


class TestEndsFirst:
    """``sos_membership`` tests both ends of the admissible gamma range
    before it scans the open range; a feasible end decides IN (p4, feasible
    at lo, is in ``TestNumericMembership``)."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_feasible_only_at_hi_builds_no_cells(self, gamma_scan_builds, n):
        # core group 9 of the finite_scan workload: infeasible at lo = 0
        f = SymFormP(4, tuple(Fraction(c) for c in ("0", "3", "11/3", "-4", "3/2")), n)
        hi = (f.coeffs[2] + f.coeffs[0]) * Fraction(2 * n * n, (n - 2) ** 2)
        assert not feasible_at_gamma(f, 0) and gamma_range(f) == (0, hi)
        verdict = sos_membership(f)
        assert verdict.status == "IN" and verdict.certificate.gamma == hi
        assert expand_certificate(verdict.certificate) == f
        assert gamma_scan_builds == []
        if n == 4:
            assert hi == Fraction(88, 3)
            # the gamma at which the former full scan certified it
            assert feasible_at_gamma(f, Fraction(13, 7))

    @pytest.mark.parametrize(
        "coeffs, n, end",
        [
            ((1, 0, 0, 0, 0), 4, "lo"),
            ((1, 0, 0, 0, 0), 10**4000, "lo"),
            ((0, 3, Fraction(11, 3), -4, Fraction(3, 2)), 4, "hi"),
            ((0, 3, Fraction(11, 3), -4, Fraction(3, 2)), 7, "hi"),
        ],
        ids=["p4-4", "p4-10^4000", "group9-4", "group9-7"],
    )
    def test_n_squared_once(self, monkeypatch, coeffs, n, end):
        """A form IN at the end hi of the gamma range squares n once: the
        (m, m gen) of ``_gamma_gen_ints`` that ``_block_polys`` builds is
        the one ``_certificate`` checks the blocks with.  A form IN at
        lo = 0 (p4) gets the gamma = 0 certificate from the entries of
        ``_gamma_zero_entries``, which do not depend on n, and never
        squares n."""
        calls = []

        def counted(scope):
            calls.append(scope)
            return _gamma_gen_ints(scope)

        monkeypatch.setattr(sos, "_gamma_gen_ints", counted)
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        verdict = sos_membership(f)
        assert verdict.status == "IN"
        assert verdict.certificate.gamma == gamma_range(f)[0 if end == "lo" else 1]
        assert len(calls) == (0 if end == "lo" else 1)
        assert expand_certificate(verdict.certificate) == f


    @pytest.mark.parametrize(
        "coeffs, n, tests",
        [
            (("8", "-160/3", "-8", "128", "-128/3"), 4, 0),
            (("8", "-160/3", "-8", "128", "-128/3"), 8, 0),
            (("-1", "0", "7/3", "0", "0"), 4, 1),
        ],
        ids=["choi-lam-4", "choi-lam-8", "lo=hi=32/3"],
    )
    def test_one_point_range_is_one_test(self, monkeypatch, gamma_scan_builds, coeffs, n, tests):
        """A range lo = hi is decided by one test of that gamma, none at
        gamma = 0, whose signs have already failed (Choi-Lam: c4 + c22 = 0),
        and takes no scan; the SOS oracle agrees."""
        calls = []

        def counted(*args):
            calls.append(args[3])
            return _certificate(*args)

        monkeypatch.setattr(sos, "_certificate", counted)
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        lo, hi = gamma_range(f)
        assert lo == hi and (lo == 0) == (tests == 0)
        assert sos_membership(f).status == "OUT" and not in_cone(f)
        assert calls == [lo] * tests and gamma_scan_builds == []

    @pytest.mark.parametrize("n", [4, 5, 8, 10**4000])
    def test_gamma_zero_feasible_builds_no_range(self, monkeypatch, n):
        """A form whose gamma = 0 blocks are feasible is IN with the
        gamma = 0 certificate before ``_gamma_range`` is called: b22 >= 0
        makes lo = 0 and a22 >= 0 makes hi >= 0, so that is the certificate
        the ends-first scan returns at lo.  Feasibility at gamma = 0 comes
        from the SOS oracle."""
        calls = []
        real = sos._gamma_range

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(sos, "_gamma_range", counted)
        rng = random.Random(29)

        def small():
            return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))

        forms = [(1, 0, 0, 0, 0), (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400))]
        for _ in range(40):
            a, b, c, d, e = small(), small(), small(), small(), small()
            cert = SosCertificate.from_blocks(SymMat2(a * a + e * e, a * b, b * b), SymMat2(c * c, c * d, d * d), Fraction(0), LIMIT)
            forms.append(expand_certificate(cert).coeffs)
            forms.append(random_form(rng, 4).coeffs)
        seen = 0
        for coeffs in forms:
            f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
            if not feasible_at_gamma(f, 0):
                continue
            seen += 1
            verdict = sos_membership(f)
            assert calls == []
            lo, hi = (Fraction(*end) for end in real(f))
            assert lo == 0 <= hi and gamma_range(f) == (lo, hi)
            assert verdict.status == "IN" and verdict.certificate.gamma == 0
            check_certificate(verdict.certificate, f)
        assert seen > 40


class TestNonnegOutRead:
    """``sos_membership`` reads an OUT that ``is_nonneg`` keeps on the same
    form object (every sum of squares is nonnegative) and never asks
    ``is_nonneg`` itself."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 30])
    def test_read_matches_the_scan(self, monkeypatch, n):
        nonneg_calls, cell_calls = [], []
        real_nonneg, real_cells = positivity.is_nonneg, sos._gamma_terms

        def counted_nonneg(f):
            nonneg_calls.append(f)
            return real_nonneg(f)

        def counted_cells(f):
            cell_calls.append(f)
            return real_cells(f)

        monkeypatch.setattr(positivity, "is_nonneg", counted_nonneg)
        monkeypatch.setattr(sos, "_gamma_terms", counted_cells)
        rng = random.Random(2700 + n)
        choi_lam = tuple(Fraction(c) for c in ("8", "-160/3", "-8", "128", "-128/3"))
        forms = [choi_lam] + [random_form(rng, n).coeffs for _ in range(40)]
        read = scanned = 0
        for coeffs in forms:
            cell_calls.clear()
            fresh = sos_membership(SymFormP(4, coeffs, n))
            fresh_cells = len(cell_calls)
            f = SymFormP(4, coeffs, n)
            nonneg = real_nonneg(f)
            cell_calls.clear()
            assert sos_membership(f) == fresh
            if nonneg.status == "OUT":
                read += 1
                scanned += fresh_cells
                assert fresh.status == "OUT" and cell_calls == []
        assert nonneg_calls == []
        assert read > 0
        if n in (5, 6, 8):
            # nonneg-OUT forms among them took the gamma-scan to find OUT
            # (not Choi-Lam, whose range is the one point gamma = 0)
            assert scanned > 0


# Expansions of rank-one blocks at a rational gamma that the full scan
# certifies through its sign queries: gamma, the one feasible value, is a
# breakpoint inside a non-point isolating interval.
_SIGN_QUERY_SOS = (
    (5, ("23/25", "-17/25", "13/50", "-15/4", "17/4")),
    (4, ("-7/32", "29/24", "99/32", "-89/9", "109/18")),
    (6, ("211/96", "5/24", "-457/288", "-11/4", "21/8")),
    (5, ("22/25", "-13/25", "-449/900", "-25/36", "17/18")),
)
_EXAMPLE_6_10 = boundary_family_form(BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4)))


@pytest.mark.parametrize("name", list(_SINGLE_GAMMA_SOS))
def test_single_gamma_without_sign_queries(name):
    """The one feasible gamma = 1/3 is certified; ``sos`` isolates no
    root on the way (``test_gamma_scan_isolates_no_root``)."""
    n, coeffs = _SINGLE_GAMMA_SOS[name]
    f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
    verdict = sos_membership(f)
    assert verdict.status == "IN" and verdict.certificate.gamma == Fraction(1, 3)
    assert expand_certificate(verdict.certificate) == f


@st.composite
def _single_gamma_forms(draw, scopes=st.sampled_from((*range(4, 13), 30))):
    """(f, gamma*): the expansion of rank-one blocks A = a (t^2, -t, 1) and
    B = b (r^2, -r, 1) at a rational gamma* > 0, built as the
    ``_SINGLE_GAMMA_SOS`` forms are, so that gamma* is the only feasible
    gamma.  Along the (gamma, u) moves that keep f, the kernels (1, t) of
    A and (1, r) of B give d det A ~ (1 - t) du + ... and
    d det B ~ du - g31 (r - r^2/4) dgamma, which are opposite exactly when
    t = (n^2 - 4 (n-1) r + (n-1) r^2) / (n-2)^2; t > 1 iff r != 2, and then
    the boundary u = b12^2 / b22 of the B-region is strictly convex, so the
    two PSD regions touch at one point, on opposite sides of their common
    tangent."""
    n = draw(scopes)
    r = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda x: x != 2))
    t = (n * n - 4 * (n - 1) * r + (n - 1) * r * r) / Fraction((n - 2) ** 2)
    a, b = (draw(st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)) for _ in range(2))
    gamma = draw(st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6))
    cert = SosCertificate.from_blocks(SymMat2(a * t * t, -a * t, a), SymMat2(b * r * r, -b * r, b), gamma, n)
    return expand_certificate(cert), gamma


@given(_single_gamma_forms())
@settings(max_examples=60, deadline=None)
def test_single_feasible_gamma_at_random(fg):
    """Forms feasible at one rational gamma* alone, strictly inside the
    gamma range and infeasible at both its ends: ``sos_membership``
    certifies them at gamma*, the double root of H at its local maximum
    (``sos._open_gamma``), and they are BOUNDARY with a functional that
    supports the cone at f."""
    f, gamma = fg
    lo, hi = gamma_range(f)
    assert lo < gamma < hi
    assert not feasible_at_gamma(f, lo) and not feasible_at_gamma(f, hi)
    verdict = sos_membership(f)
    assert verdict.status == "IN" and verdict.certificate.gamma == gamma
    check_certificate(verdict.certificate, f)
    status, y = sos_boundary(f)
    assert status == "BOUNDARY" and supports(y, f)


# ---------------------------------------------------------------------------
# the closed-form gamma-scan
# ---------------------------------------------------------------------------


# The three nonnegative forms outside the SOS cone of the benchmark's
# finite_scan pass (seed 1), with their n.
_GAP_FORMS = {
    "choi-lam-n4": (4, ("8", "-160/3", "-8", "128", "-128/3")),
    "near-boundary-n8": (8, ("4", "-8", "-55/16", "39/4", "-1793/1024")),
    "near-boundary-n5": (5, ("9/16", "-21/8", "27/16", "7/16", "-1/1024")),
}


def test_gamma_scan_isolates_no_root(monkeypatch):
    """Neither ``sos_membership`` nor ``sos_boundary`` calls
    ``algebra._root_intervals``, the walk under every root isolation, on
    forms that take the gamma-scan and its sign read: ``sos`` imports
    neither it nor a cell engine, ``UniPoly``, ``_zgcd``, ``_zderiv`` or
    ``_zpoly``."""
    for name in ("cells", "Cells", "UniPoly", "_zgcd", "_zderiv", "_zpoly", "_root_intervals"):
        assert not hasattr(sos, name), name
    calls, scans = [], []

    def counted(*args, _real=algebra._root_intervals):
        calls.append("_root_intervals")
        return _real(*args)

    monkeypatch.setattr(algebra, "_root_intervals", counted)
    for name in ("_open_gamma", "_has_interior_gamma"):

        def counted_scan(f, _name=name, _real=getattr(sos, name)):
            scans.append(_name)
            return _real(f)

        monkeypatch.setattr(sos, name, counted_scan)
    forms = [(n, coeffs) for n, coeffs in (*_RANK_ONE_SOS.values(), *_SINGLE_GAMMA_SOS.values(), *_SIGN_QUERY_SOS)]
    forms += [(6, ("1/6", "22/9", "5/2", "-15", "17")), (4, ("1/16", "-9/4", "43/144", "8", "1"))]
    forms += [(m, coeffs) for n, coeffs in _GAP_FORMS.values() for m in (5, 8, 10**40)]
    statuses = set()
    for n, coeffs in forms:
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        statuses.add((sos_membership(f).status, sos_boundary(f)[0]))
    assert calls == []
    assert set(scans) == {"_open_gamma", "_has_interior_gamma"}
    assert statuses == {("IN", "BOUNDARY"), ("IN", "INTERIOR"), ("OUT", "OUTSIDE")}


def test_gamma_scan_near_an_end_bounded_time():
    """A form SOS at gamma* = 10^-3600 alone, next to the end lo = 0 of its
    range, and the same form raised by 10^-7300 p_4, whose H is positive
    only on an interval about 10^-3650 wide around gamma*: the first is
    certified at the double root gamma*, the second at a rational near the
    local maximum of H, from dyadic ends of a square root at precision
    2^-16384.  They took 0.03-0.27 s in-process on a 2-vCPU VM."""
    n, k = 5, 3600
    t = (n * n - 4 * (n - 1) + (n - 1)) / Fraction((n - 2) ** 2)  # r = 1, as in _single_gamma_forms
    cert = SosCertificate.from_blocks(SymMat2(t * t, -t, Fraction(1)), SymMat2(Fraction(1), Fraction(-1), Fraction(1)), Fraction(1, 10**k), n)
    single = expand_certificate(cert)
    raised = SymFormP(4, (single.coeffs[0] + Fraction(1, 10**7300), *single.coeffs[1:]), n)
    for f, status in ((single, "BOUNDARY"), (raised, "INTERIOR")):
        start = time.perf_counter()
        verdict = sos_membership(f)
        boundary = sos_boundary(f)[0]
        elapsed = time.perf_counter() - start
        assert elapsed < 5, elapsed
        assert gamma_range(f)[0] == 0 and not feasible_at_gamma(f, 0)
        assert verdict.status == "IN" and expand_certificate(verdict.certificate) == f
        assert boundary == status
        gamma = verdict.certificate.gamma
        assert gamma == Fraction(1, 10**k) if f is single else 0 < gamma < Fraction(2, 10**k)


# ---------------------------------------------------------------------------
# boundary status at a numeric scope
# ---------------------------------------------------------------------------

_BLOCK_ENTRIES = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


def _block(rng, kind):
    """A zero, rank-one or definite 2x2 block; rank-one vectors from
    ``_BLOCK_ENTRIES``, so that kernels along e_1, e_2 and (1, 1) occur."""
    if kind == "zero":
        return zero2()
    p, q = rng.choice([(p, q) for p in _BLOCK_ENTRIES for q in _BLOCK_ENTRIES if p or q])
    r = 0 if kind == "rank1" else Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return SymMat2(p * p + r, p * q, q * q + r)


def boundary_sample(seed=0, count=400):
    """Block expansions with A, B each zero, rank one or definite and
    gamma = 0 or > 0 at n = 4..9, and every tenth form a boundary-family
    member; all are SOS by construction."""
    rng = random.Random(seed)
    kinds = ("zero", "rank1", "definite")
    out = []
    for i in range(count):
        n = rng.randint(4, 9)
        if i % 10 == 9:
            a, b, c, d = (Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
                          for _ in range(4))
            out.append(boundary_family_form(BoundaryParams(a, b, c, d)).with_scope(n))
            continue
        A, B = (_block(rng, rng.choice(kinds)) for _ in range(2))
        gamma = rng.choice((0, Fraction(rng.randint(1, 8), rng.randint(1, 4))))
        f = expand_certificate(SosCertificate.from_blocks(A, B, Fraction(gamma), n))
        if not f.is_zero():
            out.append(f)
    return out


def kernel(m):
    """A kernel vector of the singular PSD block m, e_2 for the zero
    block; None when m is definite."""
    if m.m11 * m.m22 != m.m12 * m.m12:
        return None
    if m.m12:
        return -m.m12, m.m11
    return (0, 1) if m.m22 == 0 else (1, 0)


def face_case(cert):
    """The case of ``sos._supporting_functional`` that a boundary form's
    certificate takes at a numeric scope."""
    A, B = cert.A, cert.B
    if not (A.m11 or A.m12 or A.m22):
        return "A = 0"
    j = kernel(B)
    if j is not None and j[0] == 0:
        return "B e_2 = 0, gamma > 0" if cert.gamma else "B e_2 = 0, gamma = 0"
    k1, k2 = kernel(A)
    return "rank-1 B, beta > 0" if k1 * (k2 - k1) else "beta = 0"


def assert_supports(y, f):
    assert supports(y, f)


class TestSosBoundary:
    def test_missed_boundary_regression(self):
        # the former two-value-point / family-inversion search found no
        # functional here; f - 2^-k p_4 is SOS-OUT for every k below
        f = SymFormP(4, tuple(Fraction(c) for c in ("-15/196", "15/49", "547/392", "-23/4", "91/16")), 7)
        status, y = sos_boundary(f)
        assert status == "BOUNDARY"
        assert y == DualFunctional.from_values(
            Fraction(42957, 512), Fraction(1539, 64), Fraction(6561, 256), Fraction(729, 64), Fraction(81, 16)
        )
        assert_supports(y, f)
        p4 = SymFormP(4, (1, 0, 0, 0, 0), 7)
        assert all(sos_membership(f - p4.scale(Fraction(1, 2**k))).status == "OUT" for k in (4, 10, 20, 40))

    def test_zero_form_rejected(self):
        for scope in (4, 9, LIMIT):
            with pytest.raises(ValueError):
                sos_boundary(SymFormP(4, (0,) * 5, scope))

    def test_outside(self):
        assert sos_boundary(form_from_dict(4, {(4,): -1}, 5)) == ("OUTSIDE", None)

    @pytest.mark.parametrize("name", list(_SINGLE_GAMMA_SOS))
    def test_single_feasible_gamma_is_boundary(self, gamma_scan_builds, name):
        # one feasible gamma leaves no strictly feasible neighbour; both
        # ends are infeasible, and the membership scan and the interior
        # test read one build of D, V and H
        n, coeffs = _SINGLE_GAMMA_SOS[name]
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        status, y = sos_boundary(f)
        assert status == "BOUNDARY"
        assert_supports(y, f)
        assert len(gamma_scan_builds) == 1

    def test_example_family_functional(self):
        # example 6.10: strictly inside at n = 4, on the boundary from n = 5
        # on, supported by the paper's functional up to a positive factor
        params = BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4))
        paper = boundary_family_functional(params.a, params.b, params.c, params.d)
        f = boundary_family_form(params)
        assert sos_boundary(f.with_scope(4)) == ("INTERIOR", None)
        for n in range(5, 13):
            status, y = sos_boundary(f.with_scope(n))
            ratios = {a / b for a, b in zip(y.as_tuple(), paper.as_tuple())}
            assert status == "BOUNDARY" and len(ratios) == 1 and ratios.pop() > 0


def test_boundary_sample_decided():
    """Every form of the seeded block-expansion sample (all SOS) is
    INTERIOR or BOUNDARY with a verified supporting functional, and every
    case of ``sos._supporting_functional`` occurs."""
    seen = set()
    statuses = {"INTERIOR": 0, "BOUNDARY": 0}
    for f in boundary_sample():
        status, y = sos_boundary(f)
        statuses[status] += 1
        if status == "BOUNDARY":
            assert_supports(y, f)
            seen.add(face_case(sos_membership(f).certificate))
    assert min(statuses.values()) > 0
    assert seen == {
        "A = 0", "B e_2 = 0, gamma = 0", "B e_2 = 0, gamma > 0", "rank-1 B, beta > 0", "beta = 0"
    }


def test_finite_perturbation_gate():
    """On the seeded sample: a BOUNDARY form minus 2^-k p_4 is SOS-OUT for
    every k tried, because every nonzero y of the dual cone at n has
    y4 > 0 (y4 - y22 >= 0, y22 >= 0, and y22 = 0 forces y211 = 0, then
    y31 = y211 and y1111 = 0), so the supporting functional pairs
    negatively with it; an INTERIOR form minus 2^-k p_lambda stays SOS for
    some k, for each lambda."""
    statuses = {"INTERIOR": 0, "BOUNDARY": 0}
    for f in boundary_sample(seed=1):
        status, y = sos_boundary(f)
        statuses[status] += 1
        n = f.scope
        basis = [SymFormP(4, tuple(int(i == j) for j in range(5)), n) for i in range(5)]
        if status == "BOUNDARY":
            assert y.y4 > 0
            for k in (4, 10, 20, 40):
                assert sos_membership(f - basis[0].scale(Fraction(1, 2**k))).status == "OUT", f
        else:
            for p in basis:
                assert any(
                    sos_membership(f - p.scale(Fraction(1, 2**k))).status == "IN" for k in (4, 10, 20, 40)
                ), (f, p)
    assert min(statuses.values()) > 0


def _bench_workloads():
    """The benchmark's workload generators (``bench/workloads.py``), which
    import nothing from the library."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def limit_boundary_sample():
    """LIMIT forms whose status is BOUNDARY or nearly so: the pinned core
    of the benchmark's limit_sweep pass, seeded boundary-family members,
    and gamma = 0 block expansions with a zero or rank-one block."""
    workloads = _bench_workloads()
    forms = [SymFormP(4, item.coeffs, LIMIT) for item in workloads.limit_sweep(0)[: workloads.LIMIT_CORE]]
    rng = random.Random(30)
    for _ in range(60):
        a, b, c, d = (Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1)) for _ in range(4))
        forms.append(boundary_family_form(BoundaryParams(a, b, c, d)))
    kinds = ("zero", "rank1", "definite")
    for _ in range(200):
        kind_a, kind_b = rng.choice(kinds), rng.choice(kinds)
        if "definite" == kind_a == kind_b:
            continue
        cert = SosCertificate.from_blocks(_block(rng, kind_a), _block(rng, kind_b), Fraction(0), LIMIT)
        forms.append(expand_certificate(cert))
    return [f for f in forms if not f.is_zero()]


class TestIntegerSupportingFunctional:
    """``sos._supporting_functional`` builds y on integers over one scale,
    and ``sos_boundary`` checks it on those integers."""

    def test_gamma_step_at_many_n(self):
        """The free branch with gamma > 0 scales every value by n - 1; at
        n = 4..40 and n = 10^40 its functional supports the cone at f
        (``test_oracles.supports``)."""
        rng = random.Random(31)
        checked = 0
        for n in (*range(4, 41), 10**40):
            for _ in range(4):
                A = _block(rng, "rank1")
                B = SymMat2(Fraction(rng.randint(0, 3)), Fraction(0), Fraction(0))
                cert = SosCertificate.from_blocks(A, B, Fraction(rng.randint(1, 9), rng.randint(1, 5)), n)
                f = expand_certificate(cert)
                status, y = sos_boundary(f)
                if status == "BOUNDARY":
                    held = sos_membership(f).certificate
                    assert supports(y, f)
                    checked += held.gamma > 0 and face_case(held) == "B e_2 = 0, gamma > 0"
        assert checked > 20

    def test_no_fraction_checks(self, monkeypatch):
        """``sos_boundary`` keeps the integers of ``_supporting_functional``
        as the ``DualFunctional`` it returns, and its checks are the
        pairing numerator ``dualcone._pairing_ints``, which ``pair`` wraps,
        and ``dual_membership`` on those integers, once each per BOUNDARY
        form; ``sos`` makes no Fraction on the way
        (``test_witness_builders_make_no_fraction``).  Each functional
        supports the cone at its form (``test_oracles.supports``)."""
        calls = []
        for name in ("_pairing_ints", "dual_membership"):
            real = getattr(sos, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(sos, name, counted)
        boundary = 0
        for f in boundary_sample()[:200] + limit_boundary_sample():
            status, y = sos_boundary(f)
            if status == "BOUNDARY":
                boundary += 1
                assert y == DualFunctional(*sos._supporting_functional(sos_certificate(f)))
                assert supports(y, f)
        assert boundary > 50
        assert calls.count("_pairing_ints") == calls.count("dual_membership") == boundary == len(calls) // 2


def sos_certificate(f):
    """The certificate of an SOS form at its scope."""
    return (sos_membership_limit(f) if f.scope is LIMIT else sos_membership(f)).certificate


def test_witness_builders_make_no_fraction(monkeypatch):
    """A finite-n IN ``sos_membership`` (at gamma = 0, at an end and inside
    the range), a LIMIT BOUNDARY ``sos_boundary`` and every separator case
    of ``find_separating_functional`` make no Fraction inside
    ``_certificate``, ``_checked``, ``_gamma_zero_certificate``,
    ``_supporting_functional`` or ``_separator``, nor in
    anything they call: ``sos.Fraction`` is patched to record the call
    stack of each Fraction it makes."""
    made = []
    real = sos.Fraction

    def counted(*args):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        made.append(names)
        return real(*args)

    monkeypatch.setattr(sos, "Fraction", counted)
    finite_in = [
        SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        for n, coeffs in (*_RANK_ONE_SOS.values(), *_SINGLE_GAMMA_SOS.values())
    ]
    finite_in += [_EXAMPLE_6_10.with_scope(n) for n in (5, 8, 10**40)]
    finite_in.append(SymFormP(4, (Fraction(1, 6), Fraction(22, 9), Fraction(5, 2), -15, 17), 6))
    certificates = 0
    for f in finite_in:
        verdict = sos_membership(f)
        assert verdict.status == "IN"
        certificates += verdict.certificate.gamma > 0
    assert certificates >= 4
    boundary = sum(sos_boundary(f)[0] == "BOUNDARY" for f in limit_boundary_sample())
    assert boundary > 50
    for n, coeffs in _GAP_FORMS.values():
        assert find_separating_functional(SymFormP(4, tuple(Fraction(c) for c in coeffs), n)) is not None
    # the two segment ends, and the point evaluation at Choi-Lam's negative point
    for coeffs in ((-1, 0, 0, 0, 0), (-1, 0, Fraction(3, 2), 0, 0), (8, Fraction(-160, 3), -8, 128, Fraction(-128, 3))):
        assert find_separating_functional(SymFormP(4, coeffs, 6)) is not None
    assert made  # the patch is live: the gamma-scan makes Fractions
    builders = {"_certificate", "_checked", "_gamma_zero_certificate", "_supporting_functional", "_separator"}
    assert not [names & builders for names in made if names & builders]


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

    def test_near_form_separator_bounded_time(self):
        """The CI's near form with c1111 = -10^-1200 at n = 5: nonnegative,
        outside the SOS cone, with gamma = 0 entries of about 4000 bits.
        Its separator took 0.22 s in-process on a 2-vCPU VM when it came
        from the w-cells, and takes about 4 ms from the closed form."""
        coeffs = ("9/16", "-21/8", "27/16", "7/16", Fraction(-1, 10**1200))
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), 5)
        start = time.perf_counter()
        ell = find_separating_functional(f)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05, elapsed
        assert is_nonneg(f).status == "IN"
        assert ell is not None and pair(ell, f) < 0 and dual_membership(ell, 5)

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_negative_point_gives_point_evaluation(self, n):
        """A form that is not nonnegative, yet passes both segment ends, is
        separated by the point evaluation at the negative point that
        ``is_nonneg`` keeps on the form; a nonnegative form outside the SOS
        cone (``test_nonneg_not_sos_example``) still takes the s-chart."""
        rng = random.Random(2000 + n)
        seen = 0
        for _ in range(40):
            f = random_form(rng, n)
            c = f.coeffs
            ends = (Fraction(0), Fraction((n - 2) ** 2, n - 1))
            nonneg = is_nonneg(f)
            if nonneg.status == "IN" or any((1 + w) * c[0] + c[2] < 0 for w in ends):
                continue
            seen += 1
            ell = find_separating_functional(f)
            assert ell == weighted_point_functional(*nonneg.witness)
            (k_n, _), (x, y) = nonneg.witness
            k = int(k_n * n)
            assert pair(ell, f) == evaluate(f, (x,) * k + (y,) * (n - k)) < 0
        assert seen > 0

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 30, 10**40])
    def test_point_separator_is_the_weighted_point_functional(self, n):
        """On nonneg-OUT forms the separator is exactly
        ``weighted_point_functional`` of the kept witness, unless an end
        (1 + v, 0, 1, 0, 0), v = 0 or (n-2)^2/(n-1), of the segment of the
        ``sos`` docstring pairs negatively with f first; then it is that
        end.  Choi-Lam, box forms and rank-one block expansions lowered by
        1/1024."""
        rng = random.Random(2900 + n % 1000)

        def small():
            return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))

        forms = [(8, Fraction(-160, 3), -8, 128, Fraction(-128, 3))]
        for i in range(30):
            forms.append(random_form(rng, 4).coeffs)
            a, b, c, d = small(), small(), small(), small()
            cert = SosCertificate.from_blocks(SymMat2(a * a, a * b, b * b), SymMat2(c * c, c * d, d * d), Fraction(0), LIMIT)
            coeffs = list(expand_certificate(cert).coeffs)
            coeffs[i % 5] -= Fraction(1, 1024)
            forms.append(coeffs)
        points = ends = 0
        for coeffs in forms:
            f = SymFormP(4, tuple(coeffs), n)
            nonneg = is_nonneg(f)
            ell = find_separating_functional(f)
            segment = (DualFunctional.from_values(1 + v, 0, 1, 0, 0) for v in (0, Fraction((n - 2) ** 2, n - 1)))
            end = next((y for y in segment if pair(y, f) < 0), None)
            if end is not None:
                ends += 1
                assert ell == end
            elif nonneg.status == "OUT":
                points += 1
                assert ell == weighted_point_functional(*nonneg.witness)
                assert all(type(y) is Fraction for y in ell.as_tuple())
                assert pair(ell, f) < 0 and dual_membership(ell, n)
        assert points >= 3 and ends > 5

    def test_sos_forms_have_no_separator(self):
        for n in (4, 5, 8):
            gen = SymFormP(4, expand((0,) * 6, 1, n), n)  # the scalar-block generator
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
    return DualFunctional.from_values(z * z + t * t, s * z + t, t * t, t, 1)


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
            ell = DualFunctional.from_values(1 + w, 0, 1, 0, 0)
            assert dual_membership(ell, n) == (0 <= w <= w_max)

    def test_chart_quadratic_is_the_pairing(self):
        """P(u, w) of ``_chart_quartic`` is d times the pairing on the
        s-chart at z = 2s + s^2 w, over s^4 at u = 1/s, and tau is
        s^4 ((n-2)^2 - (n-1) w^2) / 2 there."""
        rng = random.Random(5)
        for _ in range(10):
            f = random_form(rng, 6)
            d = _gamma_zero_entries(f)[0]
            C0, K, B, b22, a22 = _chart_quartic(f)
            assert all(type(c) is int for c in (C0, K, B, b22, a22))
            for w in self.GRID[::4]:
                for s in self.GRID[::3]:
                    u = 1 / s
                    ell = _s_chart(s, 2 * s + s * s * w)
                    assert s**4 * (C0 * u**4 + K * u**2 + B * u * w + b22 * w * w + a22) == d * pair(ell, f)
                    assert dual_blocks(ell, 6)[2] == s**4 * (16 - 5 * w * w) / 2


# Forms with an s-chart separator, one or more for each case of
# ``_w_separator``: the three nonnegative forms outside the SOS cone of
# the benchmark's finite_scan pass (seed 1), and forms with B = 0 or
# a22 < 0, take the vertex (I); the others take the edge (E).
_SEPARATOR_CASES = {
    **{name: (*form, "vertex") for name, form in _GAP_FORMS.items()},
    "B=0": (5, ("1", "-4", "-1", "8388607/1048576", "-20/9"), "vertex"),
    "a22<0": (6, ("1/2", "-1", "-1", "-1/2", "-1"), "vertex"),
    "edge-C0>0": (4, ("1", "-1/2", "-1", "-1/2", "3/2"), "edge"),
    "edge-C0<0": (4, ("3", "-2", "-2", "-1/2", "-2"), "edge"),
    "b22=0": (100, ("0", "1", "0", "0", "1/2"), "edge"),
    "b22<0": (4, ("-1/2", "3/2", "1", "2", "1"), "edge"),
}


def _case_form(name):
    n, coeffs, _ = _SEPARATOR_CASES[name]
    return SymFormP(4, tuple(Fraction(c) for c in coeffs), n)


@pytest.mark.parametrize("name", list(_SEPARATOR_CASES))
def test_separator_cases(monkeypatch, name):
    """Each example takes its case, named by the signs of
    ``_chart_quartic``, and finds a separator that verifies.  The vertex
    case isolates no root: it calls none of ``isolate_real_roots``,
    ``binary_quartic_critical_polys`` and ``binary_quartic_negative_point``;
    the edge case calls the last once."""
    calls = {}

    def counting(module, fname):
        inner = getattr(module, fname)

        def counted(*args):
            calls[fname] = calls.get(fname, 0) + 1
            return inner(*args)

        monkeypatch.setattr(module, fname, counted, raising=False)

    for fname in ("isolate_real_roots", "binary_quartic_critical_polys", "binary_quartic_negative_point"):
        counting(algebra, fname)
        monkeypatch.setattr(sos, fname, getattr(algebra, fname), raising=False)
    f = _case_form(name)
    C0, K, B, b22, a22 = _chart_quartic(f)
    signs = {
        "B=0": B == 0 and b22 > 0,
        "a22<0": a22 < 0 and b22 > 0,
        "edge-C0>0": C0 > 0,
        "edge-C0<0": C0 < 0,
        "b22=0": b22 == 0,
        "b22<0": b22 < 0,
    }
    assert signs.get(name, True)
    ell = _w_separator(f)
    assert ell is not None and pairing(ell, f) < 0 and in_dual_cone(ell, f.scope)
    if _SEPARATOR_CASES[name][2] == "vertex":
        assert calls == {}
    else:
        assert calls == {"binary_quartic_negative_point": 1}


# ---------------------------------------------------------------------------
# the certificate at a fixed gamma
# ---------------------------------------------------------------------------


#: (branch, n, A, B, gamma): one form expand_certificate(A, B, gamma) for
#: each way u is chosen: the bound 0, -(a11 - u) or b12^2 / b22 of the
#: smallest-u rule of the ``sos`` docstring, or the vertex of det A, with
#: b22 = 0 or not.
_U_BRANCHES = [
    ("zero", 7, (1, 0, 1), (0, 0, 1), Fraction(2, 3)),
    ("zero", LIMIT, (1, 0, 1), (0, 0, 1), Fraction(0)),
    ("a11", 10**30, (0, 0, 1), (2, 0, 1), Fraction(1, 7)),
    ("a11", 5, (0, 0, 1), (2, 1, 1), Fraction(3, 4)),
    ("hook", 64, (1, 1, 1), (1, 2, 4), Fraction(5, 3)),
    ("hook", LIMIT, (1, 1, 1), (1, 2, 4), Fraction(0)),
    ("vertex", 6, (1, -1, 1), (3, 0, 1), Fraction(1, 2)),
    ("b22=0:zero", 6, (1, 0, 1), (0, 0, 0), Fraction(1, 2)),
    ("b22=0:a11", LIMIT, (0, 0, 1), (2, 0, 0), Fraction(0)),
    ("b22=0:vertex", 4, (1, 0, 1), (1, 0, 0), Fraction(1, 3)),
]


def _branch_form(n, A, B, gamma):
    A, B = (SymMat2(*map(Fraction, x)) for x in (A, B))
    return expand_certificate(SosCertificate.from_blocks(A, B, gamma, n))


@pytest.mark.parametrize("branch, n, A, B, gamma", _U_BRANCHES)
def test_integer_certificate_on_every_u_branch(branch, n, A, B, gamma):
    """Each way of choosing u, and b22 = 0, gives a certificate at gamma
    that passes the oracles' check, whose u is the least candidate u of
    the SOS oracle that makes both blocks PSD there."""
    f = _branch_form(n, A, B, gamma)
    cert = _certificate_on_blocks(f, _block_polys(f), gamma)
    assert cert.gamma == gamma and cert.B.m11 == least_passing_u(f, gamma)
    check_certificate(cert, f)


@pytest.mark.parametrize("branch, n, A, B, gamma", _U_BRANCHES[::3])
def test_certificate_self_check_bites(branch, n, A, B, gamma):
    """``_certificate`` checks the integer blocks against the form it is
    given: the blocks of f with any other form g raise AssertionError."""
    f = _branch_form(n, A, B, gamma)
    blocks = _block_polys(f)
    others = [f.scale(2), SymFormP(4, (0, 0, 0, 0, 0), n)]
    for i in range(5):
        coeffs = list(f.coeffs)
        coeffs[i] += Fraction(1, 1024)
        others.append(SymFormP(4, tuple(coeffs), n))
    for g in others:
        with pytest.raises(AssertionError):
            _certificate_on_blocks(g, blocks, gamma)


@pytest.mark.parametrize("n, gamma", [(6, Fraction(-1, 8)), (LIMIT, Fraction(1, 2))])
def test_certificate_rejects_gamma_outside_the_cone(n, gamma):
    """PSD blocks at gamma < 0, or at gamma != 0 at LIMIT, raise
    AssertionError; blocks that are not PSD give None."""
    f = _branch_form(n, (4, 0, 4), (4, 0, 4), Fraction(0))
    blocks = _block_polys(f)
    assert feasible_at_gamma(f, gamma)
    with pytest.raises(AssertionError):
        _certificate_on_blocks(f, blocks, gamma)
    out = SymFormP(4, (-1, 0, 0, 0, 0), n)
    assert not feasible_at_gamma(out, 0)
    assert _certificate(out, *_gamma_zero_entries(out), Fraction(0), _NO_GEN) is None


def test_gamma_zero_signs_independent_of_n(monkeypatch):
    """The gamma = 0 class is read on integers that do not grow with n:
    at n = 4 and n = 10^4000 ``_smallest_u`` gets integers of the same bit
    length and gives the same class."""
    seen = []

    def recorded(*entries):
        seen.append(entries)
        return _smallest_u(*entries)

    monkeypatch.setattr(sos, "_smallest_u", recorded)
    coeffs = (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400))
    kinds = [sos._gamma_zero_class(SymFormP(4, coeffs, n)) for n in (4, 10**4000)]
    assert len(seen) == 2
    assert [x.bit_length() for x in seen[0]] == [x.bit_length() for x in seen[1]]
    assert kinds[0] == kinds[1] == 1


# ---------------------------------------------------------------------------
# the gamma = 0 route: one class per form, the certificate from its entries
# ---------------------------------------------------------------------------


class TestGammaZeroRoute:
    """Every gamma = 0 decision reads one class of the gamma = 0 blocks kept
    on the form object, and the gamma = 0 certificate is built from the
    entries of ``_gamma_zero_entries``."""

    def test_signs_classified_once_per_form(self, monkeypatch):
        """On one form object, asking every gamma = 0 entry point, twice and
        in either order, classifies the gamma = 0 blocks once:
        ``_smallest_u`` runs exactly once, on the gamma = 0 entries, and
        never inside the gamma = 0 certificate, which ``_checked`` builds
        once from the kept step for the forms that gamma = 0 decides IN
        and never for the others here; the gcd route ``_certificate`` is
        not taken."""
        calls = count_gamma_zero_route(monkeypatch)
        numeric = (is_nonneg, is_strictly_positive, sos_membership, sos_boundary, find_separating_functional)
        limit = (is_nonneg_limit, sos_membership_limit, boundary_status_limit)
        cases = {  # coefficients: the class of their gamma = 0 blocks
            (1, 0, 1, 0, 0): 2,
            (1, 0, -1, 0, 0): 1,
            (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400)): 1,
            (-1, 0, 1, 0, 0): 0,
            (8, Fraction(-160, 3), -8, 128, Fraction(-128, 3)): 0,
        }
        seen = set()
        for coeffs, kind in cases.items():
            for scope in (4, 64, 10**40, LIMIT):
                for order in (1, -1):
                    f = SymFormP(4, tuple(Fraction(c) for c in coeffs), scope)
                    entries = _gamma_zero_entries(f)
                    for found in calls.values():
                        found.clear()
                    for _ in range(2):
                        for ask in (limit if scope is LIMIT else numeric)[::order]:
                            ask(f)
                    assert calls["_smallest_u"] == [entries[1]], (coeffs, scope, order)
                    assert calls["_certificate"] == [], (coeffs, scope, order)
                    want = [(f, *entries, sos._gamma_zero_step(f), 0, _NO_GEN)] if kind else []
                    assert calls["_checked"] == want, (coeffs, scope, order)
                    assert sos._gamma_zero_class(f) == kind
                    seen.add((kind, scope is LIMIT))
        assert len(seen) == 6

    def test_gamma_zero_certificate_reads_no_block_forms(self, monkeypatch):
        """The gamma = 0 IN certificate, at every n and at LIMIT, is built
        and checked with neither ``_block_polys`` nor ``_gamma_gen_ints``:
        n is never squared for it."""
        calls = []

        def counted(name, real):
            def wrapped(arg):
                calls.append(name)
                return real(arg)

            return wrapped

        monkeypatch.setattr(sos, "_block_polys", counted("_block_polys", _block_polys))
        monkeypatch.setattr(sos, "_gamma_gen_ints", counted("_gamma_gen_ints", _gamma_gen_ints))
        rng = random.Random(1205)
        forms = [(1, 0, 0, 0, 0), (1, 0, -1, 0, 0), (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400))]
        while len(forms) < 20:
            coeffs = random_form(rng, LIMIT).coeffs
            if sos._gamma_zero_class(SymFormP(4, coeffs, LIMIT)):
                forms.append(coeffs)
        certs = []
        for coeffs in forms:
            for scope in (4, 5, 8, 64, 10**40, LIMIT):
                f = SymFormP(4, coeffs, scope)
                verdict = sos_membership_limit(f) if scope is LIMIT else sos_membership(f)
                assert verdict.status == "IN" and verdict.certificate.gamma == 0
                certs.append((f, verdict.certificate))
        assert calls == []
        monkeypatch.undo()
        for f, cert in certs:
            assert expand_certificate(cert) == f

    def test_witness_free_verdicts_are_shared_constants(self):
        """The verdicts that carry no witness are shared constants: two
        decisions on different forms return the same object, equal to a
        freshly built one, with the same hash, and frozen."""
        from dataclasses import FrozenInstanceError

        inside, edge, outside = ((1, 0, 1, 0, 0), (1, 0, -1, 0, 0), (-1, 0, 1, 0, 0))
        inside2, outside2 = (2, 0, 1, 0, 0), (-1, 0, 0, 0, 0)
        shared = [
            (is_nonneg_limit(SymFormP(4, inside, LIMIT)), is_nonneg(SymFormP(4, inside, 64)), positivity.NonnegVerdict("IN")),
            (sos_membership_limit(SymFormP(4, outside, LIMIT)), sos_membership(SymFormP(4, outside, 5)), sos.SosVerdict("OUT")),
            (
                boundary_status_limit(SymFormP(4, inside, LIMIT)),
                boundary_status_limit(SymFormP(4, inside2, LIMIT)),
                positivity.BoundaryVerdict("INTERIOR"),
            ),
            (
                boundary_status_limit(SymFormP(4, outside, LIMIT)),
                boundary_status_limit(SymFormP(4, outside2, LIMIT)),
                positivity.BoundaryVerdict("OUTSIDE"),
            ),
        ]
        for constant, again, fresh in shared:
            assert constant is again
            assert constant == fresh and hash(constant) == hash(fresh) and constant is not fresh
            for name in ("status", "certificate" if isinstance(fresh, sos.SosVerdict) else "witness"):
                with pytest.raises(FrozenInstanceError):
                    setattr(constant, name, None)
            assert constant == fresh
        boundary = boundary_status_limit(SymFormP(4, edge, LIMIT))
        assert boundary.status == "BOUNDARY" and boundary.witness is not None


# ---------------------------------------------------------------------------
# the smallest-u rule and the sign read against the former predicates
# ---------------------------------------------------------------------------

_INTERIOR_GAMMA = SymFormP(4, tuple(Fraction(c) for c in ("1/6", "22/9", "5/2", "-15", "17")), 6)


def test_membership_kept_on_the_form(monkeypatch):
    """``sos_membership`` is decided once per form object: on the form of
    the interior-gamma CI run at n = 6, ``sos_membership``, then
    ``sos_boundary`` and ``find_separating_functional`` build one
    certificate, at the gamma = 6 of step 2, after one test of the end hi
    (lo = 0 is known infeasible from the class), and read the range three
    times: once for the ends, once in step 2 and once in the sign read of
    ``_has_interior_gamma``.  An equal, distinct form decides again."""
    calls, ranges = [], []

    def counted(*args):
        cert = _certificate(*args)
        calls.append(cert)
        return cert

    def counted_range(f, _real=sos._gamma_range):
        ranges.append(f)
        return _real(f)

    monkeypatch.setattr(sos, "_certificate", counted)
    monkeypatch.setattr(sos, "_gamma_range", counted_range)
    f = SymFormP(4, _INTERIOR_GAMMA.coeffs, 6)
    verdict = sos_membership(f)
    assert sos_boundary(f) == ("INTERIOR", None)
    assert find_separating_functional(f) is None
    assert sos_membership(f) is sos_membership(f) is verdict
    assert verdict.certificate.gamma == 6 and expand_certificate(verdict.certificate) == f
    assert [c is None for c in calls] == [True, False] and calls[1] is verdict.certificate
    assert len(ranges) == 3
    fresh = SymFormP(4, f.coeffs, 6)
    assert sos_membership(fresh) == verdict and sos_membership(fresh) is not verdict
    assert len(calls) == 4


@pytest.mark.parametrize("n", [4, 5, 6, 8, 30, 10**40])
def test_gamma_zero_interior_builds_no_range(monkeypatch, n):
    """A form whose gamma = 0 blocks are definite for some u (class 2) is
    INTERIOR at every numeric n before any gamma range is built: the
    blocks stay definite at small gamma > 0, which lie in the range, as
    a22 > 0 makes hi > 0 (``test_oracles.gamma_range``)."""
    ranges = []

    def counted_range(f, _real=sos._gamma_range):
        ranges.append(f)
        return _real(f)

    rng = random.Random(3500 + (n % 1000))
    seen = 0
    for _ in range(300):
        coeffs = random_form(rng, n).coeffs
        if sos._gamma_zero_class(SymFormP(4, coeffs, LIMIT)) != 2:
            continue
        seen += 1
        f = SymFormP(4, coeffs, n)
        monkeypatch.setattr(sos, "_gamma_range", counted_range)
        assert sos_boundary(f) == ("INTERIOR", None)
        assert ranges == []
        monkeypatch.undo()
        lo, hi = gamma_range(f)
        assert lo < hi
    assert seen > 10


#: block entries (b22, b12, a22, s, a11 - u): small ones with zeros and
#: ties, ones of about 4000 bits, and small ones times a 4000-bit factor
#: moved by -1, 0 or 1, near the ties at that size
_entry_tuples = st.one_of(
    st.tuples(*[st.integers(-3, 3)] * 5),
    st.tuples(*[st.integers(-(2**4000), 2**4000)] * 5),
    st.builds(
        lambda xs, k, ys: tuple(x * k + y for x, y in zip(xs, ys)),
        st.tuples(*[st.integers(-3, 3)] * 5),
        st.integers(2**3990, 2**4000),
        st.tuples(*[st.integers(-1, 1)] * 5),
    ),
)


@given(_entry_tuples, st.sampled_from((4, 5, 8, 10**40, LIMIT)))
@example((0, 1, 1, 0, 0), 4)  # b22 = 0 with b12 != 0
@example((0, 0, 0, 0, 0), LIMIT)
@example((1, 1, 1, -1, 0), 5)  # q(L) = 0 and v = L at L = b12^2 / b22 = 1
@example((1, 1, 1, -3, 3), 8)  # q(L) = 0 at L = 1 > v = -1
@seed(3505)
@settings(max_examples=300, deadline=None)
def test_gamma_zero_class_on_large_entries(entries, scope):
    """On the form whose gamma = 0 entries these are: the class of
    ``_gamma_zero_class`` is feasible exactly when the SOS oracle finds a u
    at gamma = 0 (``test_oracles.feasible_at_gamma``), and ``_certificate``
    gives None exactly then, else a certificate that passes the oracles'
    check."""
    b22, b12, a22, s, a11_u = entries
    f = SymFormP(4, (b22, 2 * b12, a22 - b22, s - 2 * b12, a11_u), scope)
    d, e = _gamma_zero_entries(f)
    assert tuple(Fraction(x, d) for x in e) == entries
    feasible = feasible_at_gamma(f, 0)
    assert (sos._gamma_zero_class(f) > 0) == feasible
    cert = _certificate(f, d, e, Fraction(0), _NO_GEN)
    assert (cert is None) == (not feasible)
    if cert is not None:
        check_certificate(cert, f)


