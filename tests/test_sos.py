import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sympy

import symquartic.sos as sos
from symquartic.algebra import (
    AlgebraicField,
    SymMat2,
    UniPoly,
    _zpoly,
    _zroot_bound,
    cells,
    psd2,
    rational_roots,
)
from symquartic.dualcone import (
    DualFunctional,
    _gamma_gen_ints,
    boundary_family_functional,
    dual_blocks,
    dual_membership,
    gamma_gen_coeffs,
    pair,
    weighted_point_functional,
)
from symquartic.identities import BoundaryParams, boundary_family_form
from symquartic.positivity import boundary_status_limit, is_nonneg, is_nonneg_limit
from symquartic.sos import (
    SosCertificate,
    _block_polys,
    _certificate,
    _certificate_at,
    _conditions,
    _feasible,
    _gamma_range,
    _gamma_zero_entries,
    _gamma_zero_signs,
    _signs_at,
    _w_family,
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
    _phi_tables,
    evaluate,
    form_from_dict,
    phi_alpha_coeffs,
)

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


class TestLimitOncePerForm:
    def test_certificate_built_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _certificate(*args)

        monkeypatch.setattr(sos, "_certificate", counted)
        f = form_from_dict(4, {(4,): 1, (2, 2): -1}, LIMIT)
        assert is_nonneg_limit(f).status == "IN"
        verdict = sos_membership_limit(f)
        assert verdict.status == "IN" and expand_certificate(verdict.certificate) == f
        assert len(calls) == 1
        # the supporting functional of a BOUNDARY form reads that certificate
        boundary = boundary_status_limit(f)
        assert boundary.status == "BOUNDARY" and pair(boundary.witness, f) == 0
        assert len(calls) == 1
        g = SymFormP(4, f.coeffs, LIMIT)
        assert f == g and hash(f) == hash(g)
        assert sos_membership_limit(g) == verdict
        assert len(calls) == 2

    def test_gamma_zero_signs_read_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _conditions(*args)

        monkeypatch.setattr(sos, "_conditions", counted)
        f = form_from_dict(4, {(4,): 1, (2, 2): 1}, LIMIT)
        assert is_nonneg_limit(f).status == "IN"
        assert sos_membership_limit(f).status == "IN"
        assert boundary_status_limit(f).status == "INTERIOR"
        assert len(calls) == 1


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
def gamma_cell_builds(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return cells(*args)

    monkeypatch.setattr(sos, "cells", counted)
    return calls


class TestNumericMembership:
    @pytest.mark.parametrize(
        "n, coeffs",
        [(n, (1, 0, 0, 0, 0)) for n in (4, 5, 9)]
        + list(_RANK_ONE_SOS.values())
        + list(_SINGLE_GAMMA_SOS.values()),
        ids=["p4-n4", "p4-n5", "p4-n9"] + list(_RANK_ONE_SOS) + list(_SINGLE_GAMMA_SOS),
    )
    def test_in_with_certificate(self, gamma_cell_builds, n, coeffs):
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        verdict = sos_membership(f)
        assert verdict.status == "IN"
        assert verdict.certificate is not None
        assert verdict.note is None
        assert expand_certificate(verdict.certificate) == f
        # p4 is feasible at gamma = lo = 0 and builds no gamma-cells; the
        # other forms are feasible only inside the range and take the scan
        if coeffs == (1, 0, 0, 0, 0):
            assert verdict.certificate.gamma == 0 and gamma_cell_builds == []
        else:
            assert len(gamma_cell_builds) >= 1

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


def condition_polys(blocks):
    """``_conditions`` on the integer linear forms in gamma of
    ``_block_polys``: the integer polynomials whose roots cut the
    gamma-cells."""
    return _conditions(*(UniPoly(form) for form in blocks[1]))


def entries_at(blocks, gamma):
    """The block entries at a rational gamma = p/q read off the integer
    linear forms of ``_block_polys``, (C_i q + G_i p) / (S q)."""
    p, q = gamma.numerator, gamma.denominator
    return tuple(Fraction(c * q + g * p, blocks[0] * q) for c, g in blocks[1])


#: What ``reference_membership`` returns where the only feasible gamma is
#: irrational, which the rationality proof of the ``sos`` docstring rules out.
IRRATIONAL_IN = sos.SosVerdict("IN")


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
        cert = _certificate_at(f, blocks, gamma)
        if cert is not None:
            return sos.SosVerdict("IN", certificate=cert), lo, "scan"
    for a, b in gamma_cells.breakpoints:
        if a == b:
            continue
        root = AlgebraicField(gamma_cells.product, a, b)
        signs = [root.sign_of_poly(p) for p in conditions]
        if not _feasible(signs):
            continue
        vanishing = next(p for p, sg in zip(conditions, signs) if sg == 0 and p.degree > 0)
        for gamma in rational_roots(vanishing, a, b):
            cert = _certificate_at(f, blocks, gamma)
            return sos.SosVerdict("IN", certificate=cert), lo, "sign queries"
        return IRRATIONAL_IN, lo, "sign queries"
    return sos.SosVerdict("OUT"), lo, None


class TestEndsFirst:
    """``sos_membership`` tests both ends of the admissible gamma range
    before it builds the gamma-cells; a feasible end decides IN (p4, feasible
    at lo, is in ``TestNumericMembership``)."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_feasible_only_at_hi_builds_no_cells(self, gamma_cell_builds, n):
        # core group 9 of the finite_scan workload: infeasible at lo = 0
        f = SymFormP(4, tuple(Fraction(c) for c in ("0", "3", "11/3", "-4", "3/2")), n)
        hi = (f.coeffs[2] + f.coeffs[0]) * Fraction(2 * n * n, (n - 2) ** 2)
        assert _certificate_at(f, _block_polys(f), Fraction(0)) is None
        verdict = sos_membership(f)
        assert verdict.status == "IN" and verdict.certificate.gamma == hi
        assert expand_certificate(verdict.certificate) == f
        assert gamma_cell_builds == []
        if n == 4:
            assert hi == Fraction(88, 3)
            # the full scan returned the smallest feasible sample
            assert reference_membership(f)[0].certificate.gamma == Fraction(121, 64)


def scan_candidates(f):
    """The block polynomials and the sorted gamma candidates of the scan in
    ``sos_membership``, or None when an end of the admissible range is
    feasible or the range is empty (no scan runs)."""
    n = f.scope
    c4, _c31, c22, _c211, _c1111 = f.coeffs
    lo = Fraction(0) if c4 >= 0 else -c4 * Fraction(2 * n * n, n - 1)
    hi = (c22 + c4) * Fraction(2 * n * n, (n - 2) ** 2)
    blocks = _block_polys(f)
    if c22 + c4 < 0 or lo > hi or any(_certificate_at(f, blocks, g) for g in (lo, hi)):
        return None
    conditions = condition_polys(blocks)
    gamma_cells = cells([p for p in conditions if p.degree > 0], lo, hi)
    point_breaks = {a for a, b in gamma_cells.breakpoints if a == b}
    return blocks, sorted((point_breaks | set(gamma_cells.samples)) - {lo, hi})


class TestScanOrder:
    """The full sorted scan (``scan_candidates``) starts at the sample of
    the cell between the lower end lo and the first condition root.  The
    feasible gammas form a closed interval; with lo infeasible its left end
    is a condition root, so that first cell is never feasible, and
    ``sos_membership`` skips it.  The second candidate is the first that
    can be feasible, and the forms below are feasible there alone."""

    @pytest.mark.parametrize(
        "n, coeffs, gamma",
        [
            (6, ("1/6", "22/9", "5/2", "-15", "17"), Fraction(63, 8)),
            (4, ("1/16", "-9/4", "43/144", "8", "1"), Fraction(91, 36)),
        ],
    )
    def test_only_feasible_candidate_is_second(self, gamma_cell_builds, n, coeffs, gamma):
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        blocks, candidates = scan_candidates(f)
        feasible = [g for g in candidates if _certificate_at(f, blocks, g) is not None]
        assert feasible == [gamma] and candidates.index(gamma) == 1
        gamma_cell_builds.clear()
        verdict = sos_membership(f)
        assert verdict.status == "IN" and verdict.certificate.gamma == gamma
        assert expand_certificate(verdict.certificate) == f
        assert len(gamma_cell_builds) == 1


class TestCloseGammaRoots:
    def test_cells_of_close_roots_bounded_time(self):
        """The gamma-cells of (1, 0, -1 + 10^-400, 0, 1) at n = 6, which
        ``sos_membership`` no longer builds (the form is feasible at
        gamma = 0): two condition roots about 10^-1200 apart lie about
        10^-800 below the upper end hi = 4.5 * 10^-400, so Descartes
        bisection has to separate them about 2600 levels deep.  It took
        about 0.8 s in-process on a 2-vCPU VM."""
        k, n = 400, 6
        coeffs = (1, 0, Fraction(1 - 10**k, 10**k), 0, 1)
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        hi = (f.coeffs[2] + f.coeffs[0]) * Fraction(2 * n * n, (n - 2) ** 2)
        conditions = condition_polys(_block_polys(f))
        start = time.monotonic()
        gamma_cells = cells([p for p in conditions if p.degree > 0], Fraction(0), hi)
        elapsed = time.monotonic() - start
        assert elapsed < 5, elapsed
        (a1, b1), (a2, b2) = gamma_cells.breakpoints
        assert 0 < a1 <= b1 < a2 <= b2 < hi
        # both roots lie in [a1, b2]: within 10^-(3k-2) of each other and
        # within 10^-(2k-2) below hi
        assert b2 - a1 < Fraction(1, 10 ** (3 * k - 2))
        assert hi - a1 < Fraction(1, 10 ** (2 * k - 2))
        for a, b in gamma_cells.breakpoints:
            assert gamma_cells.product(a) * gamma_cells.product(b) < 0


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
    cert = SosCertificate(SymMat2(a * a, a * b, b * b), SymMat2(c * c, c * d, d * d), gamma, n)
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
    interval, is found as a rational root of the conditions: no sign query
    at an isolated root is made."""

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
    """Forms that reach the scan, from the examples of the cell path and the
    membership strategy (``TestScanOrder``)."""
    scan = scan_candidates(f)
    if scan is not None and scan[1]:
        blocks, candidates = scan
        assert _certificate_at(f, blocks, candidates[0]) is None


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
        f = expand_certificate(SosCertificate(A, B, Fraction(gamma), n))
        if not f.is_zero():
            out.append(f)
    return out


def face_case(cert):
    """The case of ``sos._supporting_functional`` that a boundary form's
    certificate takes at a numeric scope."""
    A, B = cert.A, cert.B
    if not (A.m11 or A.m12 or A.m22):
        return "A = 0"
    j = sos._kernel(B)
    if j is not None and j[0] == 0:
        return "B e_2 = 0, gamma > 0" if cert.gamma else "B e_2 = 0, gamma = 0"
    k1, k2 = sos._kernel(A)
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
        assert y == DualFunctional(
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
    def test_single_feasible_gamma_is_boundary(self, gamma_cell_builds, name):
        # one feasible gamma leaves no strictly feasible neighbour; both
        # ends are infeasible, and the membership scan and the interior
        # test read one build of the gamma-cells
        n, coeffs = _SINGLE_GAMMA_SOS[name]
        f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
        status, y = sos_boundary(f)
        assert status == "BOUNDARY"
        assert_supports(y, f)
        assert len(gamma_cell_builds) == 1

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
        """The w-family is d times the pairing on the s-chart at
        z = 2s + s^2 w, and tau is s^4 ((n-2)^2 - (n-1) w^2) / 2 there."""
        rng = random.Random(5)
        for _ in range(10):
            f = random_form(rng, 6)
            d = _gamma_zero_entries(f)[0]
            family = _w_family(f)
            assert all(type(c) is int for u in family for c in u.coeffs)
            for w in self.GRID[::4]:
                h = [u(w) for u in family]
                for s in self.GRID[::3]:
                    ell = _s_chart(s, 2 * s + s * s * w)
                    assert sum(c * s ** (4 - i) for i, c in enumerate(h)) == d * pair(ell, f)
                    assert dual_blocks(ell, 6)[2] == s**4 * (16 - 5 * w * w) / 2


def two_level_separator(f):
    """The s-chart search that the w-search replaced, kept as a reference:
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

    for s in sos._simple_samples(Fraction(0), root_bound(s_polys), s_polys):
        zq, ztau = (UniPoly([c0(s), b0(s), a0(s)]) for a0, b0, c0 in (q, tau))
        z_polys = [p for p in (zq, ztau) if p.degree > 0]
        bound = root_bound(z_polys)
        for z in sos._simple_samples(-bound, bound, z_polys):
            if zq(z) < 0 and ztau(z) > 0:
                return _s_chart(s, z)
    return None


@given(_membership_forms(st.sampled_from((4, 5, 6, 7, 8, 30, 100))))
@example(SymFormP(4, (0, 1, 0, 0, 0), 5))
@example(SymFormP(4, (0, 0, 0, -1, 1), 30))
@example(SymFormP(4, tuple(map(Fraction, ("9/16", "-21/8", "27/16", "7/16", "-1e-10"))), 100))
@settings(max_examples=80, deadline=None)
def test_w_search_matches_two_level_search(f):
    """The w-search finds an s-chart separator exactly when the two-level
    search does, and every separator of either verifies.  The first two
    examples have c4 = c22 = 0, where the leading coefficient of the
    w-family vanishes identically, with b12 != 0 and b12 = 0."""
    got, want = _w_separator(f), two_level_separator(f)
    assert (got is None) == (want is None)
    for ell in (got, want):
        if ell is not None:
            assert pair(ell, f) < 0 and dual_membership(ell, f.scope)


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
            cert = SosCertificate(rank1(), rank1(), Fraction(rng.randint(0, 4), 3), n)
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
                signs = [_fraction_sign(x) for x in _conditions(*entries)]
                ok, u = reference_u_feasible(entries, _fraction_sign)
                assert _feasible(signs) == ok, (f.coeffs, f.scope, gamma)
                cert = _certificate_at(f, blocks, gamma)
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
            signs = [_fraction_sign(x) for x in _conditions(*entries)]
            ok, _u = reference_u_feasible(entries, _fraction_sign)
            assert _feasible(signs) == ok, entries
            feasible += ok
        assert feasible > 100

    def test_polynomials_evaluate_to_the_scalar_conditions(self):
        for f in _feasibility_forms()[:6]:
            blocks = _block_polys(f)
            polys = condition_polys(blocks)
            scale = blocks[0]
            for gamma in (Fraction(0), Fraction(2, 7), Fraction(5)):
                assert [p(gamma) for p in polys] == list(
                    _conditions(*(scale * e for e in entries_at(blocks, gamma)))
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
                assert _feasible(signs) == ok
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
    ``_conditions`` on them cleared by their lcm."""
    entries = [p(gamma) for p in polys]
    den = lcm(*(e.denominator for e in entries))
    scaled = [e.numerator * (den // e.denominator) for e in entries]
    return tuple(entries), tuple((x > 0) - (x < 0) for x in _conditions(*scaled))


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
    cert = SosCertificate(
        SymMat2(a11_u + u, (s - u) / 2, a22),
        SymMat2(u, b12, b22),
        gamma,
        f.scope,
    )
    assert cert.is_valid() and expand_certificate(cert) == f
    return cert, ("b22=0:" if b22 == 0 else "") + branch


def lcm_alpha_coeffs(f):
    """Phi^alpha by Fraction sums over the tables of ``symfunc._phi_tables``,
    the lcm of its denominators, and Phi^alpha cleared by it: the round
    trip that the integers of ``symfunc._phi_alpha_ints`` replace."""
    tables = _phi_tables()
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
    cert = SosCertificate(SymMat2(a * a, a * b, b * b), SymMat2(c * c, c * d, d * d), gamma, scope)
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
            want = fraction_certificate(f, entries, gamma)[0] if _feasible(signs) else None
            assert _certificate_at(f, blocks, gamma) == want
    cs, den, want = lcm_alpha_coeffs(f)
    scale, got = _phi_alpha_ints(f)
    assert scale == den
    assert [list(u.coeffs) for u in got] == want
    assert all(type(c) is int for u in got for c in u.coeffs)
    assert phi_alpha_coeffs(f) == tuple(cs)


def former_block_polys(f):
    """``_block_polys`` with each linear form spelled out over
    S = 2 m den, independently of ``sos._entry_map``."""
    coeffs = f.coeffs
    den = lcm(*(c.denominator for c in coeffs))
    n4, n31, n22, n211, n1111 = (c.numerator * (den // c.denominator) for c in coeffs)
    m, (g4, g31, g22, g211, g1111) = _gamma_gen_ints(f.scope)
    m2, den2 = 2 * m, 2 * den
    return m2 * den, (
        (m2 * n4, -den2 * g4),
        (m * n31, -den * g31),
        (m2 * (n22 + n4), -den2 * (g4 + g22)),
        (m2 * (n211 + n31), -den2 * (g211 + g31)),
        (m2 * n1111, -den2 * g1111),
    )


@given(_scoped_forms(), st.sampled_from((4, 5, 6, 7, 8, 64, 10**30, 10**4000, LIMIT)))
@example(SymFormP(4, (2, 0, 9, -23, 12), LIMIT), 10**4000)
@example(SymFormP(4, (1, -2, 0, 0, 1), 4), LIMIT)
@settings(max_examples=150, deadline=None)
def test_entry_map_matches_the_former_constructions(form, scope):
    """The gamma = 0 entry map (``_gamma_zero_entries``) gives the linear
    forms of ``former_block_polys``, the gamma = 0 signs of C_i // m and
    the entries C_i / S as Fractions, at every n; the sum of its last three
    entries is d times the coefficient sum."""
    f = SymFormP(4, form.coeffs, scope)
    blocks = former_block_polys(f)
    assert _block_polys(f) == blocks
    m = _gamma_gen_ints(scope)[0]
    assert _gamma_zero_signs(f) == tuple(
        _fraction_sign(x) for x in _conditions(*(c // m for c, _ in blocks[1]))
    )
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
    empty or not, with lo > 0 when c4 < 0."""
    f = SymFormP(4, form.coeffs, n)
    assert _gamma_range(f) == former_gamma_range(f)


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
    return expand_certificate(SosCertificate(A, B, gamma, scope)), gamma


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
        if not _feasible(signs):
            assert g != gamma
            continue
        got = _certificate(f, blocks, g)
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
    return expand_certificate(SosCertificate(A, B, gamma, n))


@pytest.mark.parametrize("branch, n, A, B, gamma", _U_BRANCHES)
def test_integer_certificate_on_every_u_branch(branch, n, A, B, gamma):
    """Each way of choosing u, and b22 = 0, gives the certificate of the
    Fraction construction, which re-expands to f."""
    f = _branch_form(n, A, B, gamma)
    entries, signs = fraction_signs_at(fraction_block_polys(f), gamma)
    want, got_branch = fraction_certificate(f, entries, gamma)
    assert got_branch == branch
    cert = _certificate(f, _block_polys(f), gamma)
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
            _certificate(g, blocks, gamma)


@pytest.mark.parametrize("n, gamma", [(6, Fraction(-1, 8)), (LIMIT, Fraction(1, 2))])
def test_certificate_rejects_gamma_outside_the_cone(n, gamma):
    """PSD blocks at gamma < 0, or at gamma != 0 at LIMIT, raise
    AssertionError, and so do blocks that are not PSD."""
    f = _branch_form(n, (4, 0, 4), (4, 0, 4), Fraction(0))
    blocks = _block_polys(f)
    assert _feasible(_signs_at(blocks, gamma))
    with pytest.raises(AssertionError):
        _certificate(f, blocks, gamma)
    out = SymFormP(4, (-1, 0, 0, 0, 0), n)
    with pytest.raises(AssertionError):
        _certificate(out, _block_polys(out), Fraction(0))


def test_gamma_zero_signs_independent_of_n(monkeypatch):
    """The gamma = 0 signs are read on integers that do not grow with n:
    at n = 4 and n = 10^4000 ``_conditions`` gets integers of the same bit
    length and gives the same signs."""
    seen = []

    def recorded(*entries):
        seen.append(entries)
        return _conditions(*entries)

    monkeypatch.setattr(sos, "_conditions", recorded)
    coeffs = (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400))
    signs = [sos._gamma_zero_signs(SymFormP(4, coeffs, n)) for n in (4, 10**4000)]
    assert len(seen) == 2
    assert [x.bit_length() for x in seen[0]] == [x.bit_length() for x in seen[1]]
    assert signs[0] == signs[1] and _feasible(signs[0])
