import importlib.util
import itertools
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import sympy

import symquartic.algebra as algebra
import symquartic.positivity as positivity
import symquartic.sos as sos
from symquartic.algebra import (
    AlgebraicField,
    SymMat2,
    UniPoly,
    _zderiv,
    _zgcd,
    _zpoly,
    _zroot_bound,
    binary_quartic_critical_polys,
    binary_quartic_nonneg,
    psd2,
)
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
    _gamma_range,
    _gamma_terms,
    _gamma_zero_entries,
    _has_interior_gamma,
    _smallest_u,
    _w_separator,
    expand_certificate,
    find_separating_functional,
    sos_boundary,
    sos_membership,
    sos_membership_limit,
)
from symquartic.symfunc import (
    LIMIT,
    SymFormP,
    _phi_alpha_ints,
    evaluate,
    form_from_dict,
    phi_alpha_coeffs,
)

from conftest import (
    big_fractions,
    cells,
    choi_lam_multipoly,
    condition_polys,
    former_class,
    former_conditions,
    former_feasible,
    former_gamma_zero_signs,
    former_signs,
    former_strict_open_gamma,
    former_strictly_feasible,
    fraction_expand_certificate,
    fraction_is_valid,
    gamma_gen_coeffs,
    random_form,
    weighted_point_functional,
)


_SCAN_SCOPES_AND_LIMIT = st.sampled_from((4, 5, 6, 8, 10**40, LIMIT))


def _signs_at(blocks, gamma):
    """The signs of ``former_conditions`` at a rational gamma, read on the
    integers of ``_entries_at``."""
    return former_signs(former_conditions(*_entries_at(blocks, gamma)[1]))


def _certificate_on_blocks(f, blocks, gamma):
    """``_certificate`` at a rational gamma from the linear forms of
    ``_block_polys``, as ``sos_membership`` builds it at gamma > 0: the
    certificate, or None when no u makes both blocks PSD there."""
    return _certificate(f, *_entries_at(blocks, gamma), gamma, blocks[2])


def fraction_gamma_range(f):
    """``_gamma_range`` with its integer ends as Fractions (None when
    empty)."""
    ends = _gamma_range(f)
    return None if ends is None else tuple(Fraction(*end) for end in ends)


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
        cert = SosCertificate.from_blocks(SymMat2(*xs[:3]), SymMat2(*xs[3:]), gamma, scope)
        assert cert.is_valid() == fraction_is_valid(cert)
        if scope is not LIMIT or gamma == 0:
            assert expand_certificate(cert) == fraction_expand_certificate(cert)

    @given(_cert_blocks(psd=True), st.sampled_from((0, Fraction(1, 3), 2)), _SCAN_SCOPES_AND_LIMIT)
    @settings(max_examples=60, deadline=None)
    def test_decided_certificates_pass_the_fraction_checks(self, xs, gamma, scope):
        """The certificate ``sos`` builds for the expansion of PSD blocks,
        with entries of up to about 4000 bits, passes the Fraction
        checks."""
        gamma = 0 if scope is LIMIT else gamma
        f = fraction_expand_certificate(
            SosCertificate.from_blocks(SymMat2(*xs[:3]), SymMat2(*xs[3:]), gamma, scope)
        )
        cert = sos_certificate(f)
        assert cert.is_valid() and fraction_is_valid(cert)
        assert fraction_expand_certificate(cert) == f == expand_certificate(cert)


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


def entries_at(blocks, gamma):
    """The block entries at a rational gamma = p/q read off the integer
    linear forms of ``_block_polys``, (C_i q + G_i p) / (S q)."""
    p, q = gamma.numerator, gamma.denominator
    return tuple(Fraction(c * q + g * p, blocks[0] * q) for c, g in blocks[1])


#: What ``reference_membership`` returns where the only feasible gamma is
#: irrational, which the rationality proof of the ``sos`` docstring rules out.
IRRATIONAL_IN = sos.SosVerdict("IN")


def sympy_rational_roots(p, lo, hi):
    """The distinct rational roots of the polynomial p in (lo, hi), sorted,
    from sympy's roots over the rationals."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    roots = (Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
    return sorted(r for r in roots if lo < r < hi)


def reference_membership(f):
    """The full sorted scan of ``sos_membership`` before its ends-first
    test: cells over the whole admissible range, then lo, hi, every point
    breakpoint and every cell sample in increasing order, then the sign
    queries at the irrational breakpoints.  Returns (verdict, lo, stage),
    stage "scan" or "sign queries" for the step that decided IN."""
    n = f.scope
    c4, _c31, c22, _c211, _c1111 = f.coeffs
    lo = Fraction(0) if c4 >= 0 else -c4 * Fraction(2 * n * n, n - 1)
    if c22 + c4 < 0:
        return sos.SosVerdict("OUT"), lo, None
    hi = (c22 + c4) * Fraction(2 * n * n, (n - 2) * (n - 2))
    if lo > hi:
        return sos.SosVerdict("OUT"), lo, None
    blocks = _block_polys(f)
    conditions = condition_polys(blocks)
    gamma_cells = cells([p for p in conditions if p.degree > 0], lo, hi)
    point_breaks = {a for a, b in gamma_cells.breakpoints if a == b}
    for gamma in sorted({lo, hi} | point_breaks | set(gamma_cells.samples)):
        cert = _certificate_on_blocks(f, blocks, gamma)
        if cert is not None:
            return sos.SosVerdict("IN", certificate=cert), lo, "scan"
    for a, b in gamma_cells.breakpoints:
        if a == b:
            continue
        root = AlgebraicField(gamma_cells.product, a, b)
        signs = [root.sign_of_poly(p) for p in conditions]
        if not former_feasible(signs):
            continue
        vanishing = next(p for p, sg in zip(conditions, signs) if sg == 0 and p.degree > 0)
        for gamma in sympy_rational_roots(vanishing, a, b):
            cert = _certificate_on_blocks(f, blocks, gamma)
            return sos.SosVerdict("IN", certificate=cert), lo, "sign queries"
        return IRRATIONAL_IN, lo, "sign queries"
    return sos.SosVerdict("OUT"), lo, None


class TestEndsFirst:
    """``sos_membership`` tests both ends of the admissible gamma range
    before it scans the open range; a feasible end decides IN (p4, feasible
    at lo, is in ``TestNumericMembership``)."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_feasible_only_at_hi_builds_no_cells(self, gamma_scan_builds, n):
        # core group 9 of the finite_scan workload: infeasible at lo = 0
        f = SymFormP(4, tuple(Fraction(c) for c in ("0", "3", "11/3", "-4", "3/2")), n)
        hi = (f.coeffs[2] + f.coeffs[0]) * Fraction(2 * n * n, (n - 2) ** 2)
        assert _certificate_on_blocks(f, _block_polys(f), Fraction(0)) is None
        verdict = sos_membership(f)
        assert verdict.status == "IN" and verdict.certificate.gamma == hi
        assert expand_certificate(verdict.certificate) == f
        assert gamma_scan_builds == []
        if n == 4:
            assert hi == Fraction(88, 3)
            # the full scan returned the smallest feasible sample
            assert reference_membership(f)[0].certificate.gamma == Fraction(13, 7)

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
        assert verdict.certificate.gamma == fraction_gamma_range(f)[0 if end == "lo" else 1]
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
        and takes no scan; the cell scan agrees."""
        calls = []

        def counted(*args):
            calls.append(args[3])
            return _certificate(*args)

        monkeypatch.setattr(sos, "_certificate", counted)
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        lo, hi = fraction_gamma_range(f)
        assert lo == hi and (lo == 0) == (tests == 0)
        assert sos_membership(f).status == cell_scan_membership(f)[0] == "OUT"
        assert calls == [lo] * tests and gamma_scan_builds == []

    @pytest.mark.parametrize("n", [4, 5, 8, 10**4000])
    def test_gamma_zero_feasible_builds_no_range(self, monkeypatch, n):
        """A form whose gamma = 0 blocks are feasible is IN with the
        gamma = 0 certificate before ``_gamma_range`` is called: b22 >= 0
        makes lo = 0 and a22 >= 0 makes hi >= 0, so that is the certificate
        the ends-first scan returns at lo."""
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
            if not former_feasible(former_gamma_zero_signs(f)):
                continue
            seen += 1
            verdict = sos_membership(f)
            assert calls == []
            lo, hi = (Fraction(*end) for end in real(f))
            assert lo == 0 <= hi
            assert verdict.status == "IN"
            assert verdict.certificate == _certificate_on_blocks(f, _block_polys(f), lo)
            assert verdict.certificate.gamma == 0 and expand_certificate(verdict.certificate) == f
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


def deciding_polys(blocks):
    """D, V and H of the reduction lemma in the ``sos`` docstring:
    ``former_conditions`` 9, 3 and 6 as integer polynomials in gamma."""
    conditions = condition_polys(blocks)
    return conditions[9], conditions[3], conditions[6]


def scan_candidates(f):
    """The block polynomials and the gamma candidates of the scan in
    ``sos_membership``, the samples of the cells cut at the roots of D, V
    and H, or None when an end of the admissible range is feasible or the
    range is empty (no scan runs)."""
    n = f.scope
    c4, _c31, c22, _c211, _c1111 = f.coeffs
    lo = Fraction(0) if c4 >= 0 else -c4 * Fraction(2 * n * n, n - 1)
    hi = (c22 + c4) * Fraction(2 * n * n, (n - 2) ** 2)
    blocks = _block_polys(f)
    if c22 + c4 < 0 or lo > hi or any(_certificate_on_blocks(f, blocks, g) for g in (lo, hi)):
        return None
    return blocks, cells([p for p in deciding_polys(blocks) if p.degree > 0], lo, hi).samples


class TestScanOrder:
    """The convexity fact behind the gamma-scan, checked on
    ``_certificate_on_blocks`` against the test-local cell reference
    ``scan_candidates``, not against code that ``sos`` runs.  The cell
    samples start at the sample of the cell between the lower end lo and
    the first root of D, V or H.  The feasible gammas form a closed
    interval; with lo infeasible its left end is such a root, so that
    first cell is never feasible.  The second candidate is the first that
    can be feasible, and the forms below are feasible there alone.
    ``sos_membership`` scans no cells: its certificate's gamma is the
    simplest rational of {D >= 0, V >= 0} (``sos._open_gamma``), pinned
    here next to the cell sample."""

    CLOSED_FORM_GAMMA = {Fraction(7): Fraction(6), Fraction(7, 3): Fraction(5, 2)}

    @pytest.mark.parametrize(
        "n, coeffs, gamma",
        [
            (6, ("1/6", "22/9", "5/2", "-15", "17"), Fraction(7)),
            (4, ("1/16", "-9/4", "43/144", "8", "1"), Fraction(7, 3)),
        ],
    )
    def test_only_feasible_candidate_is_second(self, gamma_scan_builds, n, coeffs, gamma):
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        blocks, candidates = scan_candidates(f)
        feasible = [g for g in candidates if _certificate_on_blocks(f, blocks, g) is not None]
        assert feasible == [gamma] and candidates.index(gamma) == 1
        gamma_scan_builds.clear()
        verdict = sos_membership(f)
        assert verdict.status == "IN" and verdict.certificate.gamma == self.CLOSED_FORM_GAMMA[gamma]
        assert expand_certificate(verdict.certificate) == f
        assert len(gamma_scan_builds) == 1


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _membership_forms(draw, scopes=st.integers(4, 9)):
    """Box forms, and expansions of rank-one blocks at a gamma >= 0, some
    lowered in one coefficient: these put the feasible gammas at an end,
    strictly inside the range, at a single point or nowhere."""
    n = draw(scopes)
    if draw(st.booleans()):
        return SymFormP(4, draw(st.tuples(*[_small] * 5)), n)
    a, b, c, d = (draw(_small) for _ in range(4))
    gamma = draw(st.fractions(min_value=0, max_value=4, max_denominator=6))
    cert = SosCertificate.from_blocks(SymMat2(a * a, a * b, b * b), SymMat2(c * c, c * d, d * d), gamma, n)
    coeffs = list(expand_certificate(cert).coeffs)
    coeffs[draw(st.integers(0, 4))] -= draw(st.sampled_from((0, Fraction(1, 1024))))
    return SymFormP(4, tuple(coeffs), n)


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


def _with_cell_path_examples(test):
    for n, coeffs in (*_RANK_ONE_SOS.values(), *_SINGLE_GAMMA_SOS.values(), *_SIGN_QUERY_SOS):
        test = example(SymFormP(4, tuple(Fraction(c) for c in coeffs), n))(test)
    for n in range(5, 13):
        test = example(_EXAMPLE_6_10.with_scope(n))(test)
    return test


@_with_cell_path_examples
@given(_membership_forms())
@settings(max_examples=80, deadline=None)
def test_ends_first_matches_full_scan(f):
    """Statuses equal those of the full sorted scan, every IN verdict has a
    certificate, and the certificate is the same whenever the full scan's
    gamma is lo or came from its sign queries.  The forms whose feasible
    gammas lie inside the range, and those that the full scan certifies
    through its sign queries, are always among the examples."""
    got = sos_membership(f)
    want, lo, stage = reference_membership(f)
    assert want is not IRRATIONAL_IN
    assert got.status == want.status
    if got.status == "IN":
        assert got.certificate is not None and expand_certificate(got.certificate) == f
    if want.certificate is not None and (want.certificate.gamma == lo or stage == "sign queries"):
        assert got.certificate == want.certificate


def test_examples_reach_the_sign_queries():
    """The full scan certifies the single-gamma forms through its sign
    queries, so ``test_ends_first_matches_full_scan`` compares those
    certificates."""
    for n, coeffs in (*_SINGLE_GAMMA_SOS.values(), *_SIGN_QUERY_SOS):
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        assert reference_membership(f)[2] == "sign queries"


@pytest.mark.parametrize("name", list(_SINGLE_GAMMA_SOS))
def test_single_gamma_without_sign_queries(monkeypatch, name):
    """The one feasible gamma = 1/3, a breakpoint inside an isolating
    interval, is read off gcd(H, H'): no sign query at an isolated root is
    made."""

    def refuse(self, p):
        raise AssertionError("sign query made")

    monkeypatch.setattr(AlgebraicField, "sign_of_poly", refuse)
    n, coeffs = _SINGLE_GAMMA_SOS[name]
    f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
    verdict = sos_membership(f)
    assert verdict.status == "IN" and verdict.certificate.gamma == Fraction(1, 3)
    assert expand_certificate(verdict.certificate) == f
    assert not hasattr(sos, "AlgebraicField")


@_with_cell_path_examples
@given(_membership_forms())
@settings(max_examples=80, deadline=None)
def test_first_scan_candidate_is_never_feasible(f):
    """The convexity fact of ``TestScanOrder``, on ``_certificate_on_blocks`` at
    the first sample of the test-local cell reference ``scan_candidates``,
    not on code that ``sos`` runs; the forms reach that reference's scan,
    from the examples of the former cell path and the membership
    strategy."""
    scan = scan_candidates(f)
    if scan is not None and scan[1]:
        blocks, candidates = scan
        assert _certificate_on_blocks(f, blocks, candidates[0]) is None


def reference_boundary(f):
    """The boundary status from ``reference_membership`` and the cells of
    all ten conditions: INTERIOR when a sample of an open cell of
    (lo, hi) is strictly feasible."""
    verdict, lo, _ = reference_membership(f)
    if verdict.status == "OUT":
        return "OUTSIDE"
    hi = fraction_gamma_range(f)[1]
    blocks = _block_polys(f)
    conditions = [p for p in condition_polys(blocks) if p.degree > 0]
    samples = cells(conditions, lo, hi).samples if lo < hi else ()
    return "INTERIOR" if any(former_strictly_feasible(_signs_at(blocks, g)) for g in samples) else "BOUNDARY"


@st.composite
def _lemma_forms(draw):
    """Box forms, and expansions of rank-one or rank-two blocks at a
    rational gamma >= 0, some moved by 10^-3 in one coefficient, at
    n in 4..12 and n = 30."""
    n = draw(st.sampled_from((*range(4, 13), 30)))
    if draw(st.booleans()):
        return SymFormP(4, draw(st.tuples(*[_small] * 5)), n)

    def block():
        a, b, c, d = (draw(_small) for _ in range(4))
        if draw(st.booleans()):
            c = d = 0  # rank one
        return SymMat2(a * a + c * c, a * b + c * d, b * b + d * d)

    gamma = draw(st.fractions(min_value=0, max_value=4, max_denominator=6))
    coeffs = list(expand_certificate(SosCertificate.from_blocks(block(), block(), gamma, n)).coeffs)
    coeffs[draw(st.integers(0, 4))] -= draw(st.sampled_from((0, 0, Fraction(1, 1000))))
    return SymFormP(4, tuple(coeffs), n)


@given(_lemma_forms(), st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40), max_size=4))
@settings(max_examples=100, deadline=None)
def test_reduction_lemma(f, ts):
    """The reduction lemma of the ``sos`` docstring: deg D <= 1, deg V <= 1
    and deg H <= 3, and at a gamma in (lo, hi) (random ones and the roots
    of D and V) the ten-sign predicates ``former_feasible`` and
    ``former_strictly_feasible`` are (D >= 0 and V >= 0) or H >= 0 and its strict
    form.  The integer D, V and H of ``sos._gamma_terms`` are these
    polynomials.  The statuses of ``sos_membership`` and ``sos_boundary``,
    decided on D, V and H alone, are those of the references over the
    cells of all ten conditions."""
    blocks = _block_polys(f)
    D, V, H = deciding_polys(blocks)
    assert D.degree <= 1 and V.degree <= 1 and H.degree <= 3
    gamma_range = fraction_gamma_range(f)
    if gamma_range is not None:
        lo, hi = gamma_range
        assert [UniPoly(t) for t in _gamma_terms(f)] == [D, V, H.scale(6)]
        gammas = [lo + t * (hi - lo) for t in ts]
        gammas += [-p.coeffs[0] / Fraction(p.coeffs[1]) for p in (D, V) if p.degree == 1]
        for gamma in gammas:
            if not lo < gamma < hi:
                continue
            d, v, h = former_signs(p(gamma) for p in (D, V, H))
            signs = _signs_at(blocks, gamma)
            assert former_feasible(signs) == ((d >= 0 and v >= 0) or h >= 0)
            assert former_strictly_feasible(signs) == ((d > 0 and v > 0) or h > 0)
    verdict = sos_membership(f)
    assert verdict.status == reference_membership(f)[0].status
    if verdict.status == "IN":
        assert expand_certificate(verdict.certificate) == f
    if not f.is_zero():
        assert sos_boundary(f)[0] == reference_boundary(f)


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
    r = draw(_small.filter(lambda x: x != 2))
    t = (n * n - 4 * (n - 1) * r + (n - 1) * r * r) / Fraction((n - 2) ** 2)
    a, b = (draw(st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)) for _ in range(2))
    gamma = draw(st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6))
    cert = SosCertificate.from_blocks(SymMat2(a * t * t, -a * t, a), SymMat2(b * r * r, -b * r, b), gamma, n)
    return expand_certificate(cert), gamma


@given(_single_gamma_forms())
@settings(max_examples=60, deadline=None)
def test_single_feasible_gamma_at_random(fg):
    """Forms feasible at one rational gamma* alone: no sample of the cells
    cut at D, V and H is feasible, and ``sos_membership`` certifies them at
    gamma*, the double root of H at its local maximum
    (``sos._open_gamma``), and they are BOUNDARY, as the reference with its
    sign queries at the breakpoints says."""
    f, gamma = fg
    lo, hi = fraction_gamma_range(f)
    assert lo < gamma < hi
    blocks = _block_polys(f)
    samples = cells([p for p in deciding_polys(blocks) if p.degree > 0], lo, hi).samples
    assert all(_certificate_on_blocks(f, blocks, g) is None for g in (lo, hi, *samples))
    verdict = sos_membership(f)
    assert verdict.status == "IN" and verdict.certificate.gamma == gamma
    assert expand_certificate(verdict.certificate) == f
    assert reference_membership(f)[0].status == "IN"
    assert sos_boundary(f)[0] == reference_boundary(f) == "BOUNDARY"


# ---------------------------------------------------------------------------
# the closed-form gamma-scan against the cell scan it replaced
# ---------------------------------------------------------------------------


def cell_scan_membership(f):
    """(status, gamma, stage): ``sos_membership`` as it was before the
    closed form of ``sos._open_gamma``, kept as a reference, with no kept
    nonnegativity verdict to read.  gamma = 0 when its signs are feasible,
    else both ends of the range, then the samples of the cells that the
    roots of D, V and H cut (lo, hi) into, past the first, then the one
    root of gcd(H, H'); stage is "zero", "end", "cell" or "gcd" for the
    candidate that certified IN."""
    if former_feasible(former_gamma_zero_signs(f)):
        return "IN", Fraction(0), "zero"
    gamma_range = fraction_gamma_range(f)
    if gamma_range is None:
        return "OUT", None, None
    lo, hi = gamma_range
    blocks = _block_polys(f)
    for gamma in (lo, hi):
        if _certificate_on_blocks(f, blocks, gamma) is not None:
            return "IN", gamma, "end"
    D, V, H = deciding_polys(blocks)
    for gamma in cells([p for p in (D, V, H) if p.degree > 0], lo, hi).samples[1:]:
        if _certificate_on_blocks(f, blocks, gamma) is not None:
            return "IN", gamma, "cell"
    z = _zpoly(H.coeffs)
    g = _zgcd(z, _zderiv(z)) if len(z) > 2 else [1]
    k = len(g) - 1
    if k:
        gamma = Fraction(-g[k - 1], k * g[k])
        if lo < gamma < hi and _certificate_on_blocks(f, blocks, gamma) is not None:
            return "IN", gamma, "gcd"
    return "OUT", None, None


def cell_scan_boundary(f):
    """The boundary status from ``cell_scan_membership`` and, for an SOS
    form, one strictness test per sample of the cells cut at D, V and H,
    as ``sos._has_interior_gamma`` was."""
    if cell_scan_membership(f)[0] == "OUT":
        return "OUTSIDE"
    lo, hi = fraction_gamma_range(f)
    if lo == hi:
        return "BOUNDARY"
    blocks = _block_polys(f)
    samples = cells([p for p in deciding_polys(blocks) if p.degree > 0], lo, hi).samples
    return "INTERIOR" if any(former_strictly_feasible(_signs_at(blocks, g)) for g in samples) else "BOUNDARY"


_SCAN_SCOPES = st.sampled_from((4, 5, 6, 8, 30, 10**40))
# The three nonnegative forms outside the SOS cone of the benchmark's
# finite_scan pass (seed 1), with their n.
_GAP_FORMS = {
    "choi-lam-n4": (4, ("8", "-160/3", "-8", "128", "-128/3")),
    "near-boundary-n8": (8, ("4", "-8", "-55/16", "39/4", "-1793/1024")),
    "near-boundary-n5": (5, ("9/16", "-21/8", "27/16", "7/16", "-1/1024")),
}


@st.composite
def _scan_forms(draw):
    """Box forms, near-boundary forms (``_membership_forms``: expansions of
    rank-one blocks, some lowered by 1/1024), segment forms (the expansion
    of rank-one or definite blocks moved by +-2^-k towards a box form) and
    the single-gamma forms of ``_single_gamma_forms``, at
    n in {4, 5, 6, 8, 30, 10^40}."""
    kind = draw(st.sampled_from(("near", "segment", "single")))
    if kind == "near":
        return draw(_membership_forms(_SCAN_SCOPES))
    if kind == "single":
        return draw(_single_gamma_forms(_SCAN_SCOPES))[0]
    n = draw(_SCAN_SCOPES)

    def block():
        a, b, c = (draw(_small) for _ in range(3))
        return SymMat2(a * a + c * c, a * b, b * b + draw(st.sampled_from((0, c * c))))

    gamma = draw(st.fractions(min_value=0, max_value=4, max_denominator=6))
    g = expand_certificate(SosCertificate.from_blocks(block(), block(), gamma, n)).coeffs
    h = draw(st.tuples(*[_small] * 5))
    step = draw(st.sampled_from((1, -1))) * Fraction(1, 2 ** draw(st.integers(1, 40)))
    return SymFormP(4, tuple(x + step * (y - x) for x, y in zip(g, h)), n)


def _with_scan_examples(test):
    for n, coeffs in (*_RANK_ONE_SOS.values(), *_SINGLE_GAMMA_SOS.values(), *_SIGN_QUERY_SOS):
        test = example(SymFormP(4, tuple(Fraction(c) for c in coeffs), n))(test)
    for n, coeffs in _GAP_FORMS.values():
        for m in (n, 6, 10**40):
            test = example(SymFormP(4, tuple(Fraction(c) for c in coeffs), m))(test)
    return test


@_with_scan_examples
@given(_scan_forms())
@settings(max_examples=120, deadline=None)
def test_closed_form_scan_matches_cell_scan(f):
    """``sos_membership`` and ``sos_boundary`` give the statuses of the cell
    scan that the closed form replaced (``cell_scan_membership``,
    ``cell_scan_boundary``), every IN verdict re-expands to f, and its gamma
    is the reference's whenever that came from gamma = 0, an end or the
    gcd step; a gamma from the open range lies strictly inside it.  The
    examples are the forms feasible only inside the range, and the
    ``_GAP_FORMS`` at their n, at n = 6 and at n = 10^40."""
    status, gamma, stage = cell_scan_membership(f)
    got = sos_membership(f)
    assert got.status == status
    if status == "IN":
        assert expand_certificate(got.certificate) == f
        if stage == "cell":
            lo, hi = fraction_gamma_range(f)
            assert lo < got.certificate.gamma < hi
        else:
            assert got.certificate.gamma == gamma
    if not f.is_zero():
        assert sos_boundary(f)[0] == cell_scan_boundary(SymFormP(4, f.coeffs, f.scope))


@given(_scan_forms())
@settings(max_examples=60, deadline=None)
def test_interior_gamma_is_strictly_feasible(f):
    """The sign read of ``_has_interior_gamma`` holds exactly when the
    former strict scan (``former_strict_open_gamma``) finds a gamma, which
    lies in the open range and makes both blocks definite for some u, on
    all ten signs; the scan ``sos._open_gamma`` finds a feasible gamma
    there exactly when some gamma in the open range is feasible."""
    gamma_range = fraction_gamma_range(f)
    if gamma_range is None or gamma_range[0] == gamma_range[1]:
        return
    lo, hi = gamma_range
    blocks = _block_polys(f)
    gamma = former_strict_open_gamma(f)
    assert _has_interior_gamma(f) == (gamma is not None)
    if gamma is not None:
        assert lo < gamma < hi and former_strictly_feasible(_signs_at(blocks, gamma))
    if all(_certificate_on_blocks(f, blocks, g) is None for g in (lo, hi)):
        gamma = sos._open_gamma(f)
        assert (gamma is None) == (cell_scan_membership(f)[0] == "OUT")
        if gamma is not None:
            assert lo < gamma < hi and former_feasible(_signs_at(blocks, gamma))


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
        assert fraction_gamma_range(f)[0] == 0 and not former_feasible(former_gamma_zero_signs(f))
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


def face_case(cert):
    """The case of ``sos._supporting_functional`` that a boundary form's
    certificate takes at a numeric scope."""
    A, B = cert.A, cert.B
    if not (A.m11 or A.m12 or A.m22):
        return "A = 0"
    entries = (A.m11, A.m12, A.m22, B.m11, B.m12, B.m22)
    d = lcm(*(x.denominator for x in entries))
    a11, a12, a22, b11, b12, b22 = (int(x * d) for x in entries)
    j = sos._kernel_ints(b11, b12, b22, d)
    if j is not None and j[1][0] == 0:
        return "B e_2 = 0, gamma > 0" if cert.gamma else "B e_2 = 0, gamma = 0"
    _, (k1, k2) = sos._kernel_ints(a11, a12, a22, d)
    return "rank-1 B, beta > 0" if k1 * (k2 - k1) else "beta = 0"


def assert_supports(y, f):
    assert any(y.as_tuple()) and pair(y, f) == 0 and dual_membership(y, f.scope)


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


def former_kernel(m):
    """``sos._kernel`` as it was: a Fraction kernel vector of a singular
    PSD block (e_2 for the zero block), None when the block is definite."""
    if m.det():
        return None
    if m.m12:
        return -m.m12, m.m11
    return (Fraction(0), Fraction(1)) if m.m22 == 0 else (Fraction(1), Fraction(0))


def former_supporting_functional(cert):
    """``sos._supporting_functional`` as it was, in Fractions: the free
    branch reads x = -g31 beta / (2 g4) and z = x^2 / beta off
    ``gamma_gen_coeffs``, and the gamma > 0 step lowers y4 by
    y(gen) / g4."""
    zero, one = Fraction(0), Fraction(1)
    A, B, numeric = cert.A, cert.B, cert.scope is not LIMIT
    if numeric and not (A.m11 or A.m12 or A.m22):
        return DualFunctional.from_values(one, one, one, one, one)
    k, j = former_kernel(A), former_kernel(B)
    free = j is not None and j[0] == 0
    if free and not numeric:
        return DualFunctional.from_values(one, zero, zero, zero, zero)
    (k1, k2), lam, x, z = k, one, zero, zero
    beta = k1 * (k2 - k1)
    if free:
        g4, g31 = gamma_gen_coeffs(cert.scope)[:2]
        x = -g31 * beta / (2 * g4)
        z = x * x / beta if beta else zero
    elif j is not None and beta:
        j1, j2 = j
        lam, x, z = j1 * j1, beta * j1 * j2, beta * j2 * j2
    y = DualFunctional.from_values(z + lam * k2 * k2, x + lam * k1 * k2, lam * k2 * k2, lam * k1 * k2, lam * k1 * k1)
    if free and cert.gamma > 0:
        gen = gamma_gen_coeffs(cert.scope)
        y_gen = sum((g * v for g, v in zip(gen, y.as_tuple())), zero)
        y = DualFunctional.from_values(y.y4 - y_gen / gen[0], y.y31, y.y22, y.y211, y.y1111)
    return y


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

    @pytest.mark.parametrize("sample", ["numeric", "limit"])
    def test_equals_the_fraction_build(self, sample):
        """On the numeric block-expansion sample (all five face cases) and
        on the LIMIT boundary sample, y is the former Fraction build, value
        for value, and so is the functional ``sos_boundary`` returns."""
        forms = boundary_sample() if sample == "numeric" else limit_boundary_sample()
        seen = set()
        for f in forms:
            status, y = sos_boundary(f)
            if status != "BOUNDARY":
                continue
            if f.scope is LIMIT:
                cert = sos_membership_limit(f).certificate
            else:
                cert = sos_membership(f).certificate
                seen.add(face_case(cert))
            den, ys = sos._supporting_functional(cert)
            assert den > 0
            want = former_supporting_functional(cert)
            assert tuple(Fraction(v, den) for v in ys) == want.as_tuple() == y.as_tuple(), f
        if sample == "numeric":
            assert len(seen) == 5
        else:
            assert len(forms) > 200

    def test_gamma_step_at_many_n(self):
        """The free branch with gamma > 0 scales every value by n - 1; at
        n = 4..40 and n = 10^40 it is the former Fraction build."""
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
                    assert y == former_supporting_functional(held)
                    checked += held.gamma > 0 and face_case(held) == "B e_2 = 0, gamma > 0"
        assert checked > 20

    def test_no_fraction_checks(self, monkeypatch):
        """``sos_boundary`` keeps the integers of ``_supporting_functional``
        as the ``DualFunctional`` it returns, and its checks are the
        pairing numerator ``dualcone._pairing_ints``, which ``pair`` wraps,
        and ``dual_membership`` on those integers, once each per BOUNDARY
        form; ``sos`` makes no Fraction on the way
        (``test_witness_builders_make_no_fraction``)."""
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


def former_weighted_point_functional(weights, point):
    """The weighted point functional as it was first built: each y_lambda
    one Fraction over its own denominator."""
    (r, s), (t, u), (a, b), (c, d) = (
        (v.numerator, v.denominator) for v in map(Fraction, (*weights, *point))
    )
    ru, ts, su, ad, cb, bd = r * u, t * s, s * u, a * d, c * b, b * d
    p1, p2, p3, p4 = (ru * ad**i + ts * cb**i for i in (1, 2, 3, 4))
    q1, q2, q3, q4 = (su * bd**i for i in (1, 2, 3, 4))
    return DualFunctional.from_values(
        Fraction(p4, q4),
        Fraction(p3 * p1, q3 * q1),
        Fraction(p2 * p2, q2 * q2),
        Fraction(p2 * p1 * p1, q2 * q1 * q1),
        Fraction(p1**4, q1**4),
    )


def former_segment_end(f):
    """The first end of the segment (1 + v, 0, 1, 0, 0),
    0 <= v <= (n-2)^2/(n-1), that pairs negatively with f, by the Fraction
    test it had before the signs moved onto the gamma = 0 entries."""
    n, c = f.scope, f.coeffs
    for v in (Fraction(0), Fraction((n - 2) ** 2, n - 1)):
        if (1 + v) * c[0] + c[2] < 0:
            return DualFunctional.from_values(1 + v, Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    return None


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
                    expand_certificate(SosCertificate.from_blocks(rank1(), rank1(), Fraction(0), n)).coeffs
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
        ``weighted_point_functional`` of the kept witness, unless a segment
        end separates first; both match the Fraction constructions they
        replaced (``former_weighted_point_functional``,
        ``former_segment_end``).  Choi-Lam, box forms and rank-one block
        expansions lowered by 1/1024."""
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
            end = former_segment_end(f)
            if end is not None:
                ends += 1
                assert ell == end
            elif nonneg.status == "OUT":
                points += 1
                assert ell == weighted_point_functional(*nonneg.witness)
                assert ell == former_weighted_point_functional(*nonneg.witness)
                assert all(type(y) is Fraction for y in ell.as_tuple())
                assert pair(ell, f) < 0 and dual_membership(ell, n)
        assert points >= 3 and ends > 5

    def test_sos_forms_have_no_separator(self):
        for n in (4, 5, 8):
            gen = SymFormP(4, gamma_gen_coeffs(n), n)
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


def two_level_separator(f):
    """The s-chart search that the w-cell search replaced, kept as a reference:
    the pairing and tau as quadratics in z whose coefficients are Fraction
    polynomials in s, cells over s > 0 at the roots of their
    discriminants and resultant, then cells over z at each s-sample."""

    def chart_quadratic(v):
        v4, v31, v22, v211, v1111 = v
        sq, lin = v4 + v22, v31 + v211
        return UniPoly([v4]), UniPoly([0, v31]), UniPoly([sq + lin + v1111, 0, 2 * sq + lin, 0, sq])

    q, tau = (chart_quadratic(v) for v in (f.coeffs, gamma_gen_coeffs(f.scope)))
    (a1, b1, c1), (a2, b2, c2) = q, tau
    ac, ab, bc = a1 * c2 - a2 * c1, a1 * b2 - a2 * b1, b1 * c2 - b2 * c1
    s_polys = [
        p
        for p in (
            b1 * b1 - a1 * c1.scale(4) if a1 else b1 if b1 else c1,
            b2 * b2 - a2 * c2.scale(4),
            ac * ac - ab * bc,
        )
        if p.degree > 0
    ]

    def root_bound(polys):
        return max((_zroot_bound(_zpoly(p.coeffs)) for p in polys), default=Fraction(1))

    for s in cells(s_polys, Fraction(0), root_bound(s_polys)).samples:
        zq, ztau = (UniPoly([c0(s), b0(s), a0(s)]) for a0, b0, c0 in (q, tau))
        z_polys = [p for p in (zq, ztau) if p.degree > 0]
        bound = root_bound(z_polys)
        for z in cells(z_polys, -bound, bound).samples:
            if zq(z) < 0 and ztau(z) > 0:
                return _s_chart(s, z)
    return None


def cells_w_separator(f):
    """The w-cell search that the closed form of ``_w_separator`` replaced,
    kept as a reference: d l(s, 2s + s^2 w)(f) as a binary quartic h_w in
    (s, 1) with coefficients in Z[w], w on the cells cut at the roots of
    ``binary_quartic_critical_polys`` and (n-1) w^2 - (n-2)^2 over
    (0, n - 2), then s on the cells of h_w(s, 1) at each w-sample."""
    n = f.scope
    b22, b12, a22, s, c0 = _gamma_zero_entries(f)[1]
    family = (
        UniPoly([a22, 0, b22]),
        UniPoly([0, 4 * b22 + 2 * b12]),
        UniPoly([4 * (b22 + b12) + 2 * a22 + s]),
        UniPoly(),
        UniPoly([a22 + s + c0]),
    )
    edge = UniPoly([-((n - 2) ** 2), 0, n - 1])  # tau > 0 iff edge(w) < 0
    for w in cells(binary_quartic_critical_polys(family) + [edge], Fraction(0), Fraction(n - 2)).samples:
        if edge(w) > 0:
            break
        h = [u(w) for u in family]
        if binary_quartic_nonneg(h):
            continue
        q = UniPoly(h[::-1])
        bound = _zroot_bound(_zpoly(q.coeffs))
        for s in cells([q] if q.degree > 0 else [], -bound, bound).samples:
            if q(s) < 0:
                return _s_chart(s, 2 * s + s * s * w)
        raise AssertionError("h_w is not nonnegative but no s-sample is negative")
    return None


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
    assert ell is not None and pair(ell, f) < 0 and dual_membership(ell, f.scope)
    if _SEPARATOR_CASES[name][2] == "vertex":
        assert calls == {}
    else:
        assert calls == {"binary_quartic_negative_point": 1}


def _with_separator_case_examples(test):
    for name in _SEPARATOR_CASES:
        test = example(_case_form(name))(test)
    return test


@_with_separator_case_examples
@given(_membership_forms(st.sampled_from((4, 5, 6, 7, 8, 30, 100))))
@example(SymFormP(4, (0, 1, 0, 0, 0), 5))
@example(SymFormP(4, (0, 0, 0, -1, 1), 30))
@example(SymFormP(4, tuple(map(Fraction, ("9/16", "-21/8", "27/16", "7/16", "-1e-10"))), 100))
@settings(max_examples=80, deadline=None)
def test_w_search_matches_two_level_search(f):
    """``_w_separator`` finds an s-chart separator exactly when the w-cell
    search and the two-level search both do, and every separator of the
    three verifies.  The examples take every case of ``_w_separator``
    (``test_separator_cases``).  Of the other three, two have
    c4 = c22 = 0, where the s^4 coefficient of h_w vanishes identically,
    with b12 != 0 and b12 = 0, and one is the CI's near form at n = 100."""
    got, cells_ref, two_level = _w_separator(f), cells_w_separator(f), two_level_separator(f)
    assert (got is None) == (cells_ref is None) == (two_level is None)
    for ell in (got, cells_ref, two_level):
        if ell is not None:
            assert pair(ell, f) < 0 and dual_membership(ell, f.scope)


def former_w_separator(f):
    """``sos._w_separator`` as it was before it moved to integers: the same
    candidates u and w, each a Fraction, tested and turned into the
    functional in Fractions."""
    n = f.scope
    C0, K, B, b22, a22 = _chart_quartic(f)
    top, bottom = (n - 2) ** 2, n - 1

    def sqrt_ends(num, den, j):
        k = isqrt((num << 2 * j) // den)
        return Fraction(k, 1 << j), Fraction(k + 1, 1 << j)

    M = 4 * b22 * K - B * B
    if b22 > 0 and (
        a22 < 0
        or (C0 > 0 and M < 0 and M * M > 64 * b22 * b22 * C0 * a22 and -M * B * B * bottom < 32 * b22**3 * C0 * top)
    ):
        T = (0, 1) if a22 < 0 else (-M, 8 * b22 * C0)
        slope, sign = Fraction(abs(B), 2 * b22), -1 if B > 0 else 1

        def point(j, step):
            u = algebra.simplest_rational_between(*sqrt_ends(*T, j)) or step
            return sign * u, slope * u or step

    else:
        edge = algebra.binary_quartic_negative_point(
            [C0 * bottom**3, 0, K * bottom**2, B * (n - 2) * bottom, b22 * top + a22 * bottom]
        )
        if edge is None:
            return None
        rho, y = edge

        def point(j, step):
            if not y:
                return Fraction(j), Fraction(1)
            lo, hi = sqrt_ends(bottom, 1, j)
            w = sqrt_ends(top, bottom, j)[0]
            u = algebra.simplest_rational_between(*sorted((rho * lo, rho * hi))) or step
            return u, algebra.simplest_rational_between(w - 2 * step, w - step)

    j = 1
    while True:
        u, w = point(j, Fraction(1, 1 << j))
        if u and 0 < w and w * w * bottom < top and ((C0 * u * u + K) * u + B * w) * u + b22 * w * w + a22 < 0:
            s = 1 / u
            z, t = 2 * s + s * s * w, 1 + s * s
            return DualFunctional.from_values(z * z + t * t, s * z + t, t * t, t, 1)
        j *= 2


@_with_separator_case_examples
@given(_membership_forms(st.sampled_from((4, 5, 6, 7, 8, 30, 100, 10**40))))
@example(SymFormP(4, (0, 1, 0, 0, 0), 5))
@example(SymFormP(4, (0, 0, 0, -1, 1), 30))
@example(SymFormP(4, tuple(map(Fraction, ("9/16", "-21/8", "27/16", "7/16", "-1e-10"))), 100))
@example(SymFormP(4, tuple(map(Fraction, ("9/16", "-21/8", "27/16", "7/16", Fraction(-1, 10**300)))), 5))
@settings(max_examples=80, deadline=None)
def test_integer_w_separator_is_the_fraction_one(f):
    """``_w_separator`` tests its candidates and builds its functional in
    integers, and returns the separator of the Fraction version it
    replaced (``former_w_separator``), value for value, as Fractions."""
    got = _w_separator(f)
    assert got == former_w_separator(f)
    if got is not None:
        assert all(type(y) is Fraction for y in got.as_tuple())


def reference_entries(c, n, gamma):
    """b22, b12, a22, s = 2 a12 + u and a11 - u at gamma, from the slopes
    of the scalar-block generator, written out independently of
    ``_block_polys``."""
    c4, c31, c22, c211, c1111 = c
    w1 = Fraction(n - 1, 2 * n * n)
    w2 = Fraction(n - 1, n * n)
    w3 = Fraction((n - 2) * (n - 2), 2 * n * n)
    b12 = c31 / 2 - gamma * w2
    return c4 + gamma * w1, b12, c22 + c4 - gamma * w3, c211 + 2 * b12 + gamma, c1111 - gamma / 2


def reference_u_feasible(entries, sign):
    """The u-feasibility test as it stood before the sign predicate: lower
    bounds and the concave determinant quadratic evaluated in the field of
    the entries, with ``sign`` its exact sign.  Returns (feasible, u)."""
    b22, b12, a22, s, a11_u = entries
    s_b22 = sign(b22)
    if s_b22 < 0 or sign(a22) < 0:
        return False, None
    if s_b22 == 0 and sign(b12) != 0:
        return False, None
    lower = -a11_u
    if sign(lower) < 0:
        lower = Fraction(0)
    if s_b22 > 0:
        hook = b12 * b12 / b22
        if sign(hook - lower) > 0:
            lower = hook
    q1 = a22 + s / 2
    q0 = a11_u * a22 - s * s / 4
    if sign(-lower * lower / 4 + q1 * lower + q0) >= 0:
        return True, lower
    vertex = 2 * q1
    if sign(q1 * q1 + q0) >= 0 and sign(vertex - lower) > 0:
        return True, vertex
    return False, None


def _fraction_sign(x):
    return (x > 0) - (x < 0)


def _sympy_sign(x):
    return int(sympy.sign(sympy.expand(x)))


def _feasibility_forms():
    """Forms near the SOS boundary (rank-one certificate expansions, some
    lowered by 1/1024) and box forms, each with its scope."""
    rng = random.Random(97)

    def small():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))

    def rank1():
        a, b = small(), small()
        return SymMat2(a * a, a * b, b * b)

    out = []
    for i in range(30):
        n = rng.choice((4, 5, 6, 9))
        if i % 3:
            cert = SosCertificate.from_blocks(rank1(), rank1(), Fraction(rng.randint(0, 4), 3), n)
            coeffs = list(expand_certificate(cert).coeffs)
            if i % 3 == 2:
                coeffs[i % 5] -= Fraction(1, 1024)
            out.append(SymFormP(4, tuple(coeffs), n))
        else:
            out.append(random_form(rng, n))
    return out


class TestFeasibilityPredicate:
    def test_matches_reference_at_rational_gamma(self):
        rng = random.Random(101)
        feasible = infeasible = 0
        for f in _feasibility_forms():
            blocks = _block_polys(f)
            gammas = [Fraction(rng.randint(0, 60), rng.randint(1, 12)) for _ in range(12)]
            gammas += [Fraction(k, 3) for k in range(5)]  # the certificates' gammas
            for gamma in gammas:
                entries = reference_entries(f.coeffs, f.scope, gamma)
                assert entries_at(blocks, gamma) == entries
                signs = [_fraction_sign(x) for x in former_conditions(*entries)]
                ok, u = reference_u_feasible(entries, _fraction_sign)
                assert former_feasible(signs) == ok, (f.coeffs, f.scope, gamma)
                cert = _certificate_on_blocks(f, blocks, gamma)
                if ok:
                    feasible += 1
                    assert cert.B.m11 == u and cert.gamma == gamma
                else:
                    infeasible += 1
                    assert cert is None
        assert feasible > 20 and infeasible > 20

    def test_matches_reference_on_small_entries(self):
        """Every sign pattern of small integer block entries, including
        ties between the lower bounds and the vertex."""
        feasible = 0
        for entries in itertools.product(range(-2, 3), repeat=5):
            entries = tuple(Fraction(e) for e in entries)
            signs = [_fraction_sign(x) for x in former_conditions(*entries)]
            ok, _u = reference_u_feasible(entries, _fraction_sign)
            assert former_feasible(signs) == ok, entries
            assert (_smallest_u(*map(int, entries))[2] > 0) == ok, entries
            feasible += ok
        assert feasible > 100

    def test_polynomials_evaluate_to_the_scalar_conditions(self):
        for f in _feasibility_forms()[:6]:
            blocks = _block_polys(f)
            polys = condition_polys(blocks)
            scale = blocks[0]
            for gamma in (Fraction(0), Fraction(2, 7), Fraction(5)):
                assert [p(gamma) for p in polys] == list(
                    former_conditions(*(scale * e for e in entries_at(blocks, gamma)))
                )

    def test_matches_sympy_at_quadratic_irrational_gamma(self):
        """gamma = r + s sqrt(t): the sign queries at gamma, isolated on its
        minimal polynomial, agree with sympy's exact signs of the condition
        polynomials, and the predicate with the reference test run in
        sympy's exact arithmetic."""
        rng = random.Random(103)
        feasible = infeasible = 0
        g = sympy.Symbol("g")
        for f in _feasibility_forms():
            for _ in range(2):
                r = Fraction(rng.randint(0, 12), rng.randint(1, 8))
                sq = Fraction(rng.randint(1, 3), rng.randint(2, 24))
                t = rng.choice((2, 3, 5, 7))
                exact = sympy.Rational(r.numerator, r.denominator) + sympy.Rational(
                    sq.numerator, sq.denominator
                ) * sympy.sqrt(t)
                minpoly = UniPoly([r * r - sq * sq * t, -2 * r, 1])
                cs = cells([minpoly], Fraction(-1), Fraction(200))
                (a, b), = [ab for ab in cs.breakpoints if ab[0] <= exact <= ab[1]]
                root = AlgebraicField(minpoly, a, b)
                polys = condition_polys(_block_polys(f))
                signs = [root.sign_of_poly(p) for p in polys]
                want = [
                    _sympy_sign(sympy.Poly(
                        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
                        or [0], g,
                    ).as_expr().subs(g, exact))
                    for p in polys
                ]
                assert signs == want
                ok, _u = reference_u_feasible(
                    reference_entries(
                        tuple(sympy.Rational(c.numerator, c.denominator) for c in f.coeffs),
                        f.scope, exact,
                    ),
                    _sympy_sign,
                )
                assert former_feasible(signs) == ok
                feasible += ok
                infeasible += not ok
        assert feasible > 5 and infeasible > 5


# ---------------------------------------------------------------------------
# the integer gamma-blocks and alpha-coefficients against Fraction references
# ---------------------------------------------------------------------------


def fraction_gen(scope):
    """The scalar-block generator in Fractions, written out independently
    of ``dualcone._gamma_gen_ints``."""
    if scope is LIMIT:
        return (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1, 2))
    n = scope
    return (
        Fraction(1 - n, 2 * n * n),
        Fraction(2 * n - 2, n * n),
        Fraction(n * n - 3 * n + 3, 2 * n * n),
        Fraction(-1),
        Fraction(1, 2),
    )


def fraction_block_polys(f):
    """The block entries as Fraction polynomials in gamma: the construction
    that the integer linear forms of ``_block_polys`` replace."""
    c4, c31, c22, c211, c1111 = f.coeffs
    g4, g31, g22, g211, g1111 = fraction_gen(f.scope)
    return (
        UniPoly([c4, -g4]),
        UniPoly([c31 / 2, -g31 / 2]),
        UniPoly([c22 + c4, -g4 - g22]),
        UniPoly([c211 + c31, -g211 - g31]),
        UniPoly([c1111, -g1111]),
    )


def fraction_signs_at(polys, gamma):
    """The entries at gamma by Fraction Horner and the signs of
    ``former_conditions`` on them cleared by their lcm."""
    entries = [p(gamma) for p in polys]
    den = lcm(*(e.denominator for e in entries))
    scaled = [e.numerator * (den // e.denominator) for e in entries]
    return tuple(entries), tuple((x > 0) - (x < 0) for x in former_conditions(*scaled))


def fraction_certificate(f, entries, gamma):
    """The certificate at a feasible gamma from the Fraction block entries
    there, with the smallest feasible u, and the branch that chose u: the
    Fraction construction that the integer ``_certificate`` replaces,
    checked by ``expand_certificate``.  The branch is "zero", "a11" (the
    bound -(a11 - u)), "hook" (b12^2 / b22) or "vertex", with "b22=0:" in
    front when b22 = 0."""
    b22, b12, a22, s, a11_u = entries
    u = max(-a11_u, Fraction(0))
    branch = "a11" if u else "zero"
    if b22 > 0 and b12 * b12 / b22 > u:
        u, branch = b12 * b12 / b22, "hook"
    v = 2 * a22 + s
    if u * u > 2 * v * u + 4 * a22 * a11_u - s * s:
        u, branch = v, "vertex"
    cert = SosCertificate.from_blocks(
        SymMat2(a11_u + u, (s - u) / 2, a22),
        SymMat2(u, b12, b22),
        gamma,
        f.scope,
    )
    assert cert.is_valid() and expand_certificate(cert) == f
    return cert, ("b22=0:" if b22 == 0 else "") + branch


@lru_cache(maxsize=None)
def phi_tables():
    """For each partition lambda of 4, in canonical order, the binary
    quartic Phi_{p_lambda}(alpha, 1-alpha, x, y): five integer coefficient
    tuples in alpha (ascending, length 5), in descending x-order.  p_a
    contributes the binary form (1-alpha) y^a + alpha x^a, and p_lambda is
    the product over the parts of lambda: the reference that the closed
    form of ``symfunc._phi_alpha_ints`` replaced."""
    alpha = UniPoly([0, 1])
    one_minus = UniPoly([1, -1])
    tables = []
    for parts in ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)):
        prod = [UniPoly([1])]  # index = x-degree
        for a in parts:
            new = [UniPoly()] * (len(prod) + a)
            for i, u in enumerate(prod):
                new[i] = new[i] + u * one_minus
                new[i + a] = new[i + a] + u * alpha
            prod = new
        tables.append(tuple((prod[4 - i].coeffs + (0,) * 5)[:5] for i in range(5)))
    return tuple(tables)


def table_alpha_ints(f):
    """``symfunc._phi_alpha_ints`` as it was built before its closed form:
    the numerators of f over the lcm den of its denominators, summed over
    the integer tables of ``phi_tables``."""
    den = lcm(*(c.denominator for c in f.coeffs))
    nums = [c.numerator * (den // c.denominator) for c in f.coeffs]
    accs = []
    for i in range(5):
        acc = [0] * 5
        for num, table in zip(nums, phi_tables()):
            if num:
                for j, t in enumerate(table[i]):
                    acc[j] += num * t
        accs.append(UniPoly(acc))
    return den, tuple(accs)


_wide = st.integers(-(2**4096), 2**4096)


@given(
    st.one_of(
        st.tuples(*[_small] * 5),
        st.tuples(*[st.fractions(-(10**6), 10**6, max_denominator=10**6)] * 5),
        st.tuples(*[st.builds(Fraction, _wide, st.integers(1, 2**4096))] * 5),
    )
)
@example((Fraction(8), Fraction(-160, 3), Fraction(-8), Fraction(128), Fraction(-128, 3)))
@example((0, 1, -1, 0, 0))
@example((0, 0, 0, 0, 0))
@example((2**4096 - 1, 0, Fraction(-1, 2**4096 + 1), 0, 2**4095))
@settings(max_examples=200, deadline=None)
def test_closed_form_alpha_ints_match_the_tables(coeffs):
    """The closed form of ``_phi_alpha_ints`` is the table build, integer
    for integer, on random vectors and on ones with 4096-bit entries; both
    trim the same trailing zeros (x^4 of m (p_(3,1) - p_(2,2)) vanishes)."""
    f = SymFormP(4, coeffs, LIMIT)
    den, got = _phi_alpha_ints(f)
    want_den, want = table_alpha_ints(f)
    assert den == want_den
    assert [u.coeffs for u in got] == [u.coeffs for u in want]
    assert all(type(c) is int for u in got for c in u.coeffs)


def lcm_alpha_coeffs(f):
    """Phi^alpha by Fraction sums over the tables of ``phi_tables``, the
    lcm of its denominators, and Phi^alpha cleared by it: the round trip
    that the integers of ``symfunc._phi_alpha_ints`` replace."""
    tables = phi_tables()
    cs = [
        UniPoly(
            [sum((c * t[i][j] for c, t in zip(f.coeffs, tables)), Fraction(0)) for j in range(5)]
        )
        for i in range(5)
    ]
    den = lcm(*(c.denominator for u in cs for c in u.coeffs))
    return cs, den, [[c.numerator * (den // c.denominator) for c in u.coeffs] for u in cs]


@st.composite
def _scoped_forms(draw):
    """Box forms and rank-one block expansions (gamma = 0 at LIMIT), some
    lowered by 1/1024, at n in 4..8, 64, 10^30 or LIMIT."""
    scope = draw(st.sampled_from((4, 5, 6, 7, 8, 64, 10**30, LIMIT)))
    if draw(st.booleans()):
        return SymFormP(4, draw(st.tuples(*[_small] * 5)), scope)
    a, b, c, d = (draw(_small) for _ in range(4))
    gamma = Fraction(0) if scope is LIMIT else draw(st.fractions(0, 4, max_denominator=6))
    cert = SosCertificate.from_blocks(SymMat2(a * a, a * b, b * b), SymMat2(c * c, c * d, d * d), gamma, scope)
    coeffs = list(expand_certificate(cert).coeffs)
    coeffs[draw(st.integers(0, 4))] -= draw(st.sampled_from((0, Fraction(1, 1024))))
    return SymFormP(4, tuple(coeffs), scope)


@given(
    _scoped_forms(),
    st.lists(st.fractions(min_value=0, max_value=40, max_denominator=50), min_size=1, max_size=6),
)
@example(SymFormP(4, (Fraction(1), 0, 0, 0, 0), 10**30), [Fraction(0), Fraction(2, 3)])
@example(SymFormP(4, (0, 0, 1, -2, 1), LIMIT), [Fraction(0), Fraction(1)])
@settings(max_examples=150, deadline=None)
def test_integer_blocks_match_fraction_reference(f, gammas):
    """At every rational gamma >= 0 the integer signs of ``_signs_at`` are
    those the Fraction polynomials give, the linear forms of
    ``_block_polys`` give the Fraction entries (``entries_at``), and a
    certificate is the one the Fraction construction builds from them
    (``fraction_certificate``); ``_phi_alpha_ints`` is the lcm round trip,
    integer for integer, and its scale is that lcm."""
    blocks, polys = _block_polys(f), fraction_block_polys(f)
    assert blocks[0] > 0
    for gamma in [Fraction(0), *gammas]:
        entries, signs = fraction_signs_at(polys, gamma)
        assert _signs_at(blocks, gamma) == signs
        assert entries_at(blocks, gamma) == entries
        if f.scope is not LIMIT or gamma == 0:
            want = fraction_certificate(f, entries, gamma)[0] if former_feasible(signs) else None
            assert _certificate_on_blocks(f, blocks, gamma) == want
    cs, den, want = lcm_alpha_coeffs(f)
    scale, got = _phi_alpha_ints(f)
    assert scale == den
    assert [list(u.coeffs) for u in got] == want
    assert all(type(c) is int for u in got for c in u.coeffs)
    assert phi_alpha_coeffs(f) == tuple(cs)


def former_block_polys(f):
    """``_block_polys`` with each linear form spelled out over
    S = 2 m den, independently of ``sos._entry_map``, and the (m, m gen)
    of ``_gamma_gen_ints`` that it keeps for ``_certificate``."""
    coeffs = f.coeffs
    den = lcm(*(c.denominator for c in coeffs))
    n4, n31, n22, n211, n1111 = (c.numerator * (den // c.denominator) for c in coeffs)
    m, gen = _gamma_gen_ints(f.scope)
    g4, g31, g22, g211, g1111 = gen
    m2, den2 = 2 * m, 2 * den
    return m2 * den, (
        (m2 * n4, -den2 * g4),
        (m * n31, -den * g31),
        (m2 * (n22 + n4), -den2 * (g4 + g22)),
        (m2 * (n211 + n31), -den2 * (g211 + g31)),
        (m2 * n1111, -den2 * g1111),
    ), (m, gen)


@given(_scoped_forms(), st.sampled_from((4, 5, 6, 7, 8, 64, 10**30, 10**4000, LIMIT)))
@example(SymFormP(4, (2, 0, 9, -23, 12), LIMIT), 10**4000)
@example(SymFormP(4, (1, -2, 0, 0, 1), 4), LIMIT)
@settings(max_examples=150, deadline=None)
def test_entry_map_matches_the_former_constructions(form, scope):
    """The gamma = 0 entry map (``_gamma_zero_entries``) gives the linear
    forms of ``former_block_polys``, the gamma = 0 signs and class of
    C_i // m and the entries C_i / S as Fractions, at every n; the sum of
    its last three entries is d times the coefficient sum."""
    f = SymFormP(4, form.coeffs, scope)
    blocks = former_block_polys(f)
    assert _block_polys(f) == blocks
    m = _gamma_gen_ints(scope)[0]
    signs = tuple(_fraction_sign(x) for x in former_conditions(*(c // m for c, _ in blocks[1])))
    assert former_gamma_zero_signs(f) == signs
    assert sos._gamma_zero_class(f) == former_class(signs)
    d, e = _gamma_zero_entries(f)
    assert tuple(Fraction(x, d) for x in e) == entries_at(blocks, Fraction(0))
    assert sum(e[2:]) == d * sum(f.coeffs)


def former_gamma_range(f):
    """``_gamma_range`` as read off the linear forms of ``_block_polys``."""
    (c_b22, g_b22), _, (c_a22, g_a22), _, _ = _block_polys(f)[1]
    if c_a22 < 0:
        return None
    lo = Fraction(0) if c_b22 >= 0 else Fraction(-c_b22, g_b22)
    hi = Fraction(c_a22, -g_a22)
    return None if lo > hi else (lo, hi)


@given(_scoped_forms(), st.sampled_from((4, 5, 6, 7, 8, 64, 10**30, 10**4000)))
@example(SymFormP(4, (-1, 0, 3, 0, 0), LIMIT), 10**4000)
@example(SymFormP(4, (-1, 0, 0, 0, 0), LIMIT), 5)
@example(SymFormP(4, (1, 0, -1, 0, 0), LIMIT), 4)
@settings(max_examples=100, deadline=None)
def test_gamma_range_matches_the_former_construction(form, n):
    """The gamma range read off the form is the one the linear forms give,
    empty or not, with lo > 0 when c4 < 0; its ends are integer pairs
    over positive denominators."""
    f = SymFormP(4, form.coeffs, n)
    assert fraction_gamma_range(f) == former_gamma_range(f)
    ends = _gamma_range(f)
    assert ends is None or all(type(x) is int and q > 0 for x, q in ends for x in (x, q))


def _cert_fields(cert):
    return (cert.A.m11, cert.A.m12, cert.A.m22, cert.B.m11, cert.B.m12, cert.B.m22, cert.gamma)


@st.composite
def _certified_forms(draw):
    """(f, gamma): f = expand_certificate(A, B, gamma) at n in 4..8, 64,
    10^30 or LIMIT, so gamma is feasible for f by construction, with
    rank-one, definite, diagonal and partly zero blocks, so that every
    branch of the choice of u comes up."""
    scope = draw(st.sampled_from((4, 5, 6, 7, 8, 64, 10**30, LIMIT)))
    gamma = Fraction(0) if scope is LIMIT else draw(st.fractions(0, 4, max_denominator=12))
    a, b, c, d = (draw(_small) for _ in range(4))
    t, r = abs(draw(_small)), abs(draw(_small))
    A = draw(st.sampled_from((
        SymMat2(a * a, a * b, b * b),
        SymMat2(a * a + t, a * b, b * b + r),
        SymMat2(Fraction(0), Fraction(0), b * b),
    )))
    B = draw(st.sampled_from((
        SymMat2(c * c, c * d, d * d),
        SymMat2(c * c + t, c * d, d * d + r),
        SymMat2(c * c, Fraction(0), Fraction(0)),
        SymMat2(Fraction(0), Fraction(0), d * d),
    )))
    return expand_certificate(SosCertificate.from_blocks(A, B, gamma, scope)), gamma


@given(
    _certified_forms(),
    st.lists(st.fractions(min_value=0, max_value=8, max_denominator=12), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_integer_certificate_matches_fraction_reference(fg, gammas):
    """At every feasible rational gamma (gamma = 0 at LIMIT), the integer
    ``_certificate`` equals the Fraction construction field by field."""
    f, gamma = fg
    blocks, polys = _block_polys(f), fraction_block_polys(f)
    for g in [gamma] if f.scope is LIMIT else [gamma, *gammas]:
        entries, signs = fraction_signs_at(polys, g)
        if not former_feasible(signs):
            assert g != gamma
            continue
        got = _certificate_on_blocks(f, blocks, g)
        assert _cert_fields(got) == _cert_fields(fraction_certificate(f, entries, g)[0])
        assert got.scope is f.scope
        assert all(type(x) is Fraction for x in _cert_fields(got))


#: (branch of ``fraction_certificate``, n, A, B, gamma): one form
#: expand_certificate(A, B, gamma) for each way u is chosen.
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
    """Each way of choosing u, and b22 = 0, gives the certificate of the
    Fraction construction, which re-expands to f."""
    f = _branch_form(n, A, B, gamma)
    entries, signs = fraction_signs_at(fraction_block_polys(f), gamma)
    want, got_branch = fraction_certificate(f, entries, gamma)
    assert got_branch == branch
    cert = _certificate_on_blocks(f, _block_polys(f), gamma)
    assert _cert_fields(cert) == _cert_fields(want)
    assert cert.is_valid() and expand_certificate(cert) == f


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
    assert former_feasible(_signs_at(blocks, gamma))
    with pytest.raises(AssertionError):
        _certificate_on_blocks(f, blocks, gamma)
    out = SymFormP(4, (-1, 0, 0, 0, 0), n)
    assert not former_feasible(former_gamma_zero_signs(out))
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


def former_certificate(f, blocks, gamma):
    """``_certificate`` as it was built from the linear forms of
    ``_block_polys`` alone, a reference for the one built from the entries
    at its gamma: e = C q + G p and d = S q over their gcd, and the check
    with the (m, m gen) kept in ``blocks``."""
    p, q = gamma.numerator, gamma.denominator
    e = [c * q + g * p for c, g in blocks[1]]
    d = blocks[0] * q
    h = gcd(d, *e)
    b22, b12, a22, s, a11_u = (x // h for x in e)
    d //= h
    k = b22 if b22 > 0 else 1
    u = max(-a11_u * k, 0)
    if b22 > 0:
        u = max(u, b12 * b12)
    v = (2 * a22 + s) * k
    if u * u > 2 * v * u + (4 * a22 * a11_u - s * s) * k * k:
        u = v
    entries = (2 * (a11_u * k + u), s * k - u, 2 * a22 * k, 2 * u, 2 * b12 * k, 2 * b22 * k)
    cert = SosCertificate(2 * d * k, entries, gamma, f.scope)
    den, xs = sos._expansion(cert.den, cert.entries, cert.gamma, blocks[2])
    assert cert.gamma >= 0 and (cert.scope is not LIMIT or cert.gamma == 0)
    assert all(x * f.den == c * den for x, c in zip(xs, f.nums))
    return cert


def former_certificate_at(f, blocks, gamma):
    """The certificate at a rational gamma as it was built before the
    smallest-u rule decided it: the ten gamma = 0 signs at gamma = 0, else
    the ten signs on the linear forms, then ``former_certificate``."""
    p, q = gamma.numerator, gamma.denominator
    signs = former_gamma_zero_signs(f) if gamma == 0 else former_signs(former_conditions(*(c * q + g * p for c, g in blocks[1])))
    return former_certificate(f, blocks, gamma) if former_feasible(signs) else None


@st.composite
def _gamma_zero_route_forms(draw):
    """Box forms, certificate expansions (blocks with about 4000-bit entries
    half the time), boundary-family members and forms with about 4000-bit
    coefficients, at n in {4, 5, 8, 64, 10^40} or LIMIT."""
    scope = draw(st.sampled_from((4, 5, 8, 64, 10**40, LIMIT)))
    kind = draw(st.sampled_from(("box", "certificate", "boundary", "big")))
    if kind == "box":
        coeffs = draw(st.tuples(*[_small] * 5))
    elif kind == "certificate":
        xs = draw(_cert_blocks(psd=True))
        gamma = Fraction(0) if scope is LIMIT else draw(st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(2))))
        cert = SosCertificate.from_blocks(SymMat2(*xs[:3]), SymMat2(*xs[3:]), gamma, scope)
        coeffs = expand_certificate(cert).coeffs
    elif kind == "boundary":
        a = draw(_small.filter(bool))
        c, d = draw(st.tuples(_small, _small).filter(any))
        coeffs = boundary_family_form(BoundaryParams(a, draw(_small), c, d)).coeffs
    else:
        coeffs = draw(st.tuples(*[big_fractions] * 5))
    if draw(st.booleans()):
        coeffs = coeffs[:2] + (coeffs[2] - Fraction(1, 1024),) + coeffs[3:]
    return SymFormP(4, tuple(coeffs), scope)


class TestGammaZeroRoute:
    """Every gamma = 0 decision reads one class of the gamma = 0 blocks kept
    on the form object, and the gamma = 0 certificate is built from the
    entries of ``_gamma_zero_entries``; both give what the route through
    ``_block_polys`` gave."""

    @given(_gamma_zero_route_forms())
    @example(SymFormP(4, (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400)), 10**40))
    @example(SymFormP(4, (1, 0, -1, 0, 0), LIMIT))
    @example(SymFormP(4, (0, 0, 1, -2, 1), 4))
    @seed(1205)
    @settings(max_examples=250, deadline=None)
    def test_entries_certificate_is_the_former_one(self, f):
        """The gamma = 0 certificate of the entries is the one the linear
        forms of ``_block_polys`` give at gamma = 0, field for field, and
        the decisions return it; the class is that of the signs."""
        kind = sos._gamma_zero_class(f)
        assert kind == former_class(former_gamma_zero_signs(f))
        want = former_certificate_at(f, _block_polys(f), Fraction(0))
        assert (want is not None) == (kind > 0)
        if want is None:
            return
        got = _certificate(f, *_gamma_zero_entries(f), Fraction(0), _NO_GEN)
        assert got == want and (got.den, got.entries, got.gamma, got.scope) == (want.den, want.entries, want.gamma, want.scope)
        assert type(got.gamma) is Fraction
        fresh = SymFormP(4, f.coeffs, f.scope)
        verdict = sos_membership_limit(fresh) if f.scope is LIMIT else sos_membership(fresh)
        assert verdict.status == "IN" and verdict.certificate == want

    @given(_gamma_zero_route_forms().filter(lambda f: f.scope is not LIMIT), st.integers(1, 7))
    @example(SymFormP(4, (0, 3, Fraction(11, 3), -4, Fraction(3, 2)), 7), 2)
    @example(SymFormP(4, (Fraction(1, 6), Fraction(22, 9), Fraction(5, 2), -15, 17), 6), 3)
    @seed(1205)
    @settings(max_examples=200, deadline=None)
    def test_certificate_at_is_the_former_one(self, f, k):
        """``_certificate``, the decision at a fixed gamma, at both ends of
        the gamma range and at points inside it, and the certificate at the
        gamma of step 2, are those of the former construction, None
        included."""
        ends = fraction_gamma_range(f)
        if ends is None:
            return
        lo, hi = ends
        blocks = _block_polys(f)
        gammas = {lo, hi, lo + (hi - lo) / 2, lo + (hi - lo) / (k + 1), lo + (hi - lo) * k / (k + 1)}
        for gamma in gammas:
            assert _certificate_on_blocks(f, blocks, gamma) == former_certificate_at(f, blocks, gamma), gamma
        if lo < hi and all(former_certificate_at(f, blocks, g) is None for g in (lo, hi)):
            gamma = sos._open_gamma(f)
            fresh = SymFormP(4, f.coeffs, f.scope)
            verdict = sos_membership(fresh)
            if gamma is None:
                assert verdict.status == "OUT"
            else:
                assert verdict.certificate == former_certificate(f, blocks, gamma)

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
        """The verdicts that carry no witness are module constants: equal
        to freshly built ones, with the same hash, frozen, and returned by
        the decisions."""
        from dataclasses import FrozenInstanceError

        shared = [
            (sos._OUT, sos.SosVerdict("OUT")),
            (positivity._IN, positivity.NonnegVerdict("IN")),
            (positivity._NO_WITNESS["INTERIOR"], positivity.BoundaryVerdict("INTERIOR")),
            (positivity._NO_WITNESS["OUTSIDE"], positivity.BoundaryVerdict("OUTSIDE")),
        ]
        for constant, fresh in shared:
            assert constant == fresh and hash(constant) == hash(fresh) and constant is not fresh
            for name in ("status", "certificate" if isinstance(fresh, sos.SosVerdict) else "witness"):
                with pytest.raises(FrozenInstanceError):
                    setattr(constant, name, None)
            assert constant == fresh
        inside, edge, outside = ((1, 0, 1, 0, 0), (1, 0, -1, 0, 0), (-1, 0, 1, 0, 0))
        assert is_nonneg_limit(SymFormP(4, inside, LIMIT)) is positivity._IN
        assert is_nonneg(SymFormP(4, inside, 64)) is positivity._IN
        assert sos_membership_limit(SymFormP(4, outside, LIMIT)) is sos._OUT
        assert sos_membership(SymFormP(4, outside, 5)) is sos._OUT
        assert boundary_status_limit(SymFormP(4, inside, LIMIT)) is positivity._NO_WITNESS["INTERIOR"]
        assert boundary_status_limit(SymFormP(4, outside, LIMIT)) is positivity._NO_WITNESS["OUTSIDE"]
        boundary = boundary_status_limit(SymFormP(4, edge, LIMIT))
        assert boundary.status == "BOUNDARY" and boundary.witness is not None


# ---------------------------------------------------------------------------
# the smallest-u rule and the sign read against the former predicates
# ---------------------------------------------------------------------------

_INTERIOR_GAMMA = SymFormP(4, tuple(Fraction(c) for c in ("1/6", "22/9", "5/2", "-15", "17")), 6)


def _fraction_route(cert):
    """``expand_certificate`` as it was written before forms kept only
    their integers: the expansion's integers divided into Fractions."""
    den, xs = sos._expansion(cert.den, cert.entries, cert.gamma, _gamma_gen_ints(cert.scope))
    return SymFormP(4, tuple(Fraction(x, den) for x in xs), cert.scope)


def test_expanded_certificate_is_the_fraction_route():
    """``expand_certificate`` builds its form from the expansion's integers,
    equal, in value, hash, repr and (den, nums), to the form built from
    Fractions: on the pinned certificates (the CI forms of example 6.10,
    the single-gamma and interior-gamma forms, the rank-one forms) and on
    a seeded sample."""
    forms = [_EXAMPLE_6_10.with_scope(n) for n in (LIMIT, 5, 10**4000)] + [_INTERIOR_GAMMA]
    forms += [SymFormP(4, coeffs, n) for n, coeffs in (*_RANK_ONE_SOS.values(), *_SINGLE_GAMMA_SOS.values())]
    rng = random.Random(83)
    forms += [random_form(rng, rng.choice([4, 5, 6, 10**40, LIMIT])) for _ in range(60)]
    certs = 0
    for f in forms:
        verdict = sos_membership_limit(f) if f.scope is LIMIT else sos_membership(f)
        if verdict.certificate is None:
            continue
        certs += 1
        got, want = expand_certificate(verdict.certificate), _fraction_route(verdict.certificate)
        assert (got, hash(got), repr(got)) == (want, hash(want), repr(want)) == (f, hash(f), repr(f))
        assert (got.den, got.nums) == (want.den, want.nums) and got == fraction_expand_certificate(verdict.certificate)
    assert certs > 20


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
    a22 > 0 makes hi > 0.  The former route, the strict scan over
    (lo, hi), says INTERIOR too."""
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
        (lo, hi) = _gamma_range(f)
        assert lo[0] * hi[1] < hi[0] * lo[1] and former_strict_open_gamma(f) is not None
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
def test_smallest_u_class_is_the_former_one(entries, scope):
    """The class of ``_smallest_u`` is the one the ten signs gave
    (``former_class``), and, on the form whose gamma = 0 entries these
    are, ``_gamma_zero_class`` is that class and ``_certificate`` gives
    None exactly when the signs were infeasible, else a valid
    certificate of the form."""
    signs = former_signs(former_conditions(*entries))
    assert _smallest_u(*entries)[2] == former_class(signs)
    b22, b12, a22, s, a11_u = entries
    f = SymFormP(4, (b22, 2 * b12, a22 - b22, s - 2 * b12, a11_u), scope)
    assert tuple(Fraction(e, _gamma_zero_entries(f)[0]) for e in _gamma_zero_entries(f)[1]) == entries
    assert sos._gamma_zero_class(f) == former_class(signs)
    cert = _certificate(f, *_gamma_zero_entries(f), Fraction(0), _NO_GEN)
    assert (cert is None) == (not former_feasible(signs))
    if cert is not None:
        assert cert.is_valid() and expand_certificate(cert) == f


@st.composite
def _interior_forms(draw):
    """Box forms, expansions of rank-one or definite blocks at a gamma > 0
    (some lowered by 1/1024) and boundary-family members, at
    n in {4, 5, 6, 8, 30, 10^40}."""
    n = draw(_SCAN_SCOPES)
    kind = draw(st.sampled_from(("box", "certificate", "boundary")))
    if kind == "box":
        return SymFormP(4, draw(st.tuples(*[_small] * 5)), n)
    if kind == "boundary":
        a = draw(_small.filter(bool))
        c, d = draw(st.tuples(_small, _small).filter(any))
        return boundary_family_form(BoundaryParams(a, draw(_small), c, d)).with_scope(n)

    def block():
        a, b, c = (draw(_small) for _ in range(3))
        return SymMat2(a * a + c * c, a * b, b * b + draw(st.sampled_from((0, c * c))))

    gamma = draw(st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6))
    coeffs = list(expand_certificate(SosCertificate.from_blocks(block(), block(), gamma, n)).coeffs)
    coeffs[draw(st.integers(0, 4))] -= draw(st.sampled_from((0, Fraction(1, 1024))))
    return SymFormP(4, tuple(coeffs), n)


@_with_scan_examples
@given(_interior_forms())
@example(_INTERIOR_GAMMA)
@seed(3506)
@settings(max_examples=200, deadline=None)
def test_interior_sign_read_is_the_former_scan(f):
    """On a nonempty open gamma range, the sign read of
    ``_has_interior_gamma`` holds exactly when the former strict scan
    finds a gamma, and ``sos_boundary`` gives the status of the former
    route: OUTSIDE for an SOS OUT, else INTERIOR when the strict scan
    finds a gamma, else BOUNDARY."""
    ends = _gamma_range(f)
    open_range = ends is not None and ends[0][0] * ends[1][1] < ends[1][0] * ends[0][1]
    interior = open_range and former_strict_open_gamma(f) is not None
    if open_range:
        assert _has_interior_gamma(f) == interior
    if f.is_zero():
        return
    fresh = SymFormP(4, f.coeffs, f.scope)
    want = "OUTSIDE" if sos_membership(fresh).status == "OUT" else "INTERIOR" if interior else "BOUNDARY"
    assert sos_boundary(SymFormP(4, f.coeffs, f.scope))[0] == want
