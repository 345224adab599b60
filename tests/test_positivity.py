import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symquartic.algebra as algebra
import symquartic.positivity as positivity
from symquartic.algebra import (
    SymMat2,
    _quartic_invariants,
    binary_quartic_critical_polys,
    binary_quartic_negative_point,
    binary_quartic_nonneg,
    binary_quartic_strictly_positive,
    disc_binary_quartic,
)
from symquartic.dualcone import DualFunctional, dual_membership, pair
from symquartic.identities import second_case_form
from symquartic.positivity import (
    _negative_variance,
    _tested_ks,
    boundary_status_limit,
    is_nonneg,
    is_nonneg_limit,
    is_strictly_positive,
)
from symquartic.sampling import equivalence_sample
from symquartic.sos import (
    _NO_GEN,
    SosCertificate,
    _certificate,
    _gamma_zero_entries,
    expand_certificate,
    sos_membership_limit,
)
from symquartic.symfunc import (
    LIMIT,
    SymFormP,
    _phi_alpha_ints,
    _phi_ints,
    form_from_dict,
    phi_alpha_coeffs,
    restrict_alpha,
)

from conftest import random_form
from test_oracles import check_certificate, feasible_at_gamma


def witness_value(f, verdict):
    """Exact value of the binary quartic at the witness point."""
    (w, point) = verdict.witness
    h = restrict_alpha(f.with_scope(LIMIT) if f.scope is LIMIT else f, w[0])
    x, y = point
    return sum(c * x ** (4 - i) * y**i for i, c in enumerate(h))


class TestFiniteN:
    def test_negative_p4_out(self):
        f = form_from_dict(4, {(4,): -1}, 4)
        verdict = is_nonneg(f)
        assert verdict.status == "OUT"
        assert witness_value(f, verdict) < 0

    def test_power_mean_examples(self):
        # p_2^2 >= p_1^4 and p_4 >= p_2^2 on every point set
        for n in (4, 6):
            assert is_nonneg(form_from_dict(4, {(2, 2): 1, (1, 1, 1, 1): -1}, n)).status == "IN"
            assert is_nonneg(form_from_dict(4, {(4,): 1, (2, 2): -1}, n)).status == "IN"
            assert is_nonneg(form_from_dict(4, {(2, 2): 1, (4,): -1}, n)).status == "OUT"

    def test_downward_closure(self):
        rng = random.Random(41)
        seen = 0
        for _ in range(30):
            f = random_form(rng, 8)
            if is_nonneg(f).status == "IN":
                seen += 1
                assert is_nonneg(f.with_scope(4)).status == "IN"
        assert seen > 0

    def test_limit_scope_rejected(self):
        with pytest.raises(ValueError):
            is_nonneg(form_from_dict(4, {(4,): 1}, LIMIT))

    @pytest.mark.parametrize(
        "n, witness",
        [
            (5, ((Fraction(2, 5), Fraction(3, 5)), (Fraction(-493, 76), Fraction(1)))),
            (6, ((Fraction(1, 3), Fraction(2, 3)), (Fraction(-187, 8), Fraction(1)))),
            (7, ((Fraction(2, 7), Fraction(5, 7)), (Fraction(1), Fraction(0)))),
            (8, ((Fraction(3, 8), Fraction(5, 8)), (Fraction(-133, 12), Fraction(1)))),
        ],
    )
    def test_choi_lam_witnesses_pinned(self, n, witness):
        """Choi-Lam, (8, -160/3, -8, 128, -128/3), fails first at these
        grid weights; at n = 5, 6 and 8 the point is the first negative end
        of an isolating interval (``binary_quartic_negative_point``), at
        n = 7 the binary quartic has a negative x^4 coefficient."""
        f = SymFormP(4, (8, Fraction(-160, 3), -8, 128, Fraction(-128, 3)), n)
        verdict = is_nonneg(f)
        assert verdict.status == "OUT" and verdict.witness == witness
        assert witness_value(f, verdict) < 0



def grid_quartics(f):
    """Phi^(k/n) for k = 0..n, the binary quartics of the whole grid W_n."""
    n = f.scope
    cs = phi_alpha_coeffs(f)
    return [tuple(c(Fraction(k, n)) for c in cs) for k in range(n + 1)]


def grid_nonneg(hs):
    """Reference: the first k with Phi^(k/n) not nonnegative, or None."""
    return next((k for k, h in enumerate(hs) if not binary_quartic_nonneg(h)), None)


def grid_strictly_positive(hs):
    """Reference: strict positivity at every interior grid weight and of the
    scalar form at the endpoints."""
    return hs[0][4] > 0 and all(binary_quartic_strictly_positive(h) for h in hs[1:-1])


def boundary_coeffs(a, b, c, d):
    """Member (a, b, c, d) of the boundary family of the limit cone."""
    return (a * a, 2 * a * b, c * c - a * a, 2 * c * d + b * b - 2 * a * b, d * d - b * b)


#: The boundary-family member of the paper's example 6.10; its zeros sit at
#: the irrational weights 1/2 +- (7/298) sqrt(149).
EXAMPLE_6_10 = boundary_coeffs(1, Fraction(-13, 10), 1, Fraction(-5, 4))

#: p_4 - p_(2,2) + p_(1^4) and p_4 - (80/81) p_(2,2) - (2/9) p_(2,1,1) + p_(1^4)
#: are the means over i of (x_i^2 - p_2 + p_1^2)^2 and (x_i^2 - (10/9) p_2
#: + p_1^2)^2; in (0, 1) they vanish only at the weights 1/2, resp. 1/3, 2/3.
RATIONAL_TOUCH = ((1, 0, -1, 0, 1), (1, 0, Fraction(-80, 81), Fraction(-2, 9), 1))


def oracle_sample():
    """Seeded forms for the grid-oracle comparison: the zero form, forms
    touching zero at rational weights and, lowered by eps p_(2,2), negative
    only on a window around them, boundary-family members and random forms."""
    rng = random.Random(61)
    forms = [(0,) * 5, EXAMPLE_6_10]
    for coeffs in RATIONAL_TOUCH:
        forms.append(coeffs)
        for eps in (Fraction(1, 10**4), Fraction(1, 10**6)):
            forms.append(coeffs[:2] + (coeffs[2] - eps,) + coeffs[3:])
    for _ in range(4):
        a, b, c, d = (Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(4))
        forms.append(boundary_coeffs(a or 1, b, c, d))
    for _ in range(4):
        forms.append(random_form(rng, 4).coeffs)
    return forms


#: Example 6.10 lowered by 10^-6 p_(2,2): outside the limit cone, so gamma = 0
#: decides neither question, yet nonnegative and strictly positive at
#: n = 32..100 (its negative window is missed by their grids) and OUT at
#: n = 1000 and beyond.
NEAR_6_10 = EXAMPLE_6_10[:2] + (EXAMPLE_6_10[2] - Fraction(1, 10**6),) + EXAMPLE_6_10[3:]


def _gamma_zero_off(monkeypatch):
    """Make the gamma = 0 step of ``is_nonneg`` and ``is_strictly_positive``
    decide nothing, so that every form reaches the grid: the class of the
    gamma = 0 blocks that both read (``sos._gamma_zero_class``) says
    infeasible."""
    monkeypatch.setattr(positivity, "_gamma_zero_class", lambda f: 0)


#: Forms whose critical polynomials (``binary_quartic_critical_polys``)
#: have roots where ``_tested_ks`` reads its interval ends and clips:
#: - at_16/64, right_of_16/64: the leading coefficient of Phi^alpha(x, 1)
#:   has a simple root at 1/4, a point interval and a grid weight at
#:   n = 56, 64, 128 and 200; the first failing k at n = 64 is 16, resp.
#:   17, the first weight right of it;
#: - touch_19/57: p_4 - (80/81) p_(2,2) - (2/9) p_(2,1,1) + p_(1^4)
#:   (``RATIONAL_TOUCH``), whose discriminant vanishes at 1/3 and 2/3,
#:   where Phi^alpha has a double root, so at n = 57 only the weights
#:   19/57 and 38/57 are not strictly positive;
#: - shared_1/2: the discriminant and the leading coefficient share the
#:   root 1/2, where the x^4 and x^3 y coefficients of Phi^alpha both
#:   vanish; at n = 64 the first failing k is 18;
#: - near_0_and_1: -p_4 + 1000 p_(2,2), with critical roots within 1/1000
#:   of 0 and of 1, closer than 1/n at every tested n.
EDGE_ROOTS = {
    "at_16/64": (1, -4, Fraction(-25, 16), 5, 5),
    "right_of_16/64": (Fraction(1, 2), -2, Fraction(-5, 8), 1, 6),
    "touch_19/57": RATIONAL_TOUCH[1],
    "shared_1/2": (1, -3, 0, 1, 2),
    "near_0_and_1": (-1, 0, 1000, 0, 0),
}


class TestFiniteNOracle:
    """``is_nonneg`` and ``is_strictly_positive`` decide the forms of the
    limit cone (its interior) at gamma = 0, and test only grid weights
    chosen from the alpha-cells (from a threshold n on) for the others; all
    three paths must agree with the walk over all n + 1 weights."""

    def test_agrees_with_full_grid(self, monkeypatch):
        sizes = (4, 5, 12, 31, 33, 60)
        outs = strict_differs = 0
        decided = dict.fromkeys(("nonneg", "strict", "in_by_grid"), 0)
        for i, coeffs in enumerate(oracle_sample()):
            for n in sizes if i < 6 else sizes[i % 2 :: 2]:
                f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
                hs = grid_quartics(f)
                first_bad, strict = grid_nonneg(hs), grid_strictly_positive(hs)
                outs += first_bad is not None
                strict_differs += first_bad is None and not strict
                # the gamma = 0 step: sound wherever it decides; its
                # blocks are feasible iff f is in the limit SOS cone, and
                # strictly feasible iff f is inside it
                limit = f.with_scope(LIMIT)
                if sos_membership_limit(limit).status == "IN":
                    decided["nonneg"] += 1
                    assert first_bad is None, (coeffs, n)
                elif first_bad is None:
                    decided["in_by_grid"] += 1
                if not f.is_zero() and boundary_status_limit(limit).status == "INTERIOR":
                    decided["strict"] += 1
                    assert strict, (coeffs, n)
                # the decisions as shipped, then the cell path and the
                # direct walk with the gamma = 0 step off, at every n; a
                # fresh form object each time, as verdicts are kept on it
                for cells_from_n in (None, n, n + 1):
                    if cells_from_n is not None:
                        _gamma_zero_off(monkeypatch)
                        monkeypatch.setattr(positivity, "_CELL_MIN_N", cells_from_n)
                    f = SymFormP(4, f.coeffs, n)
                    ks = _tested_ks(_phi_alpha_ints(f)[1], n)
                    assert set(ks) <= set(range(1, n // 2 + 1)) and n // 2 in ks
                    verdict = is_nonneg(f)
                    assert verdict.status == ("IN" if first_bad is None else "OUT"), (coeffs, n)
                    if first_bad is not None:
                        w, _point = verdict.witness
                        assert w == (Fraction(first_bad, n), Fraction(n - first_bad, n))
                        assert witness_value(f, verdict) < 0
                    assert is_strictly_positive(f) == strict, (coeffs, n)
                monkeypatch.undo()
        assert outs > 0 and strict_differs > 0
        # gamma = 0 decides some questions, and leaves others to the grid
        assert 0 < decided["strict"] < decided["nonneg"], decided
        assert decided["in_by_grid"] > 0, decided

    def test_cost_independent_of_n(self, monkeypatch):
        calls = []

        def counted(test):
            def wrapper(h):
                calls.append(h)
                return test(h)

            return wrapper

        monkeypatch.setattr(positivity, "binary_quartic_nonneg", counted(binary_quartic_nonneg))
        monkeypatch.setattr(
            positivity,
            "binary_quartic_strictly_positive",
            counted(binary_quartic_strictly_positive),
        )

        def count(query, coeffs, n):
            calls.clear()
            return query(SymFormP(4, coeffs, n)), len(calls)

        # example 6.10 is on the boundary of the limit cone: strictly
        # positive at every n, with zeros at irrational weights, so gamma = 0
        # leaves the question to the cells; the lowered form is outside the
        # cone and OUT at both sizes
        sizes = (10**3, 10**6)
        strict = [count(is_strictly_positive, EXAMPLE_6_10, n) for n in sizes]
        assert strict[0] == strict[1] and strict[0][0] and 0 < strict[0][1] <= 10
        for n in sizes:
            verdict, tests = count(is_nonneg, NEAR_6_10, n)
            assert verdict.status == "OUT" and 0 < tests <= 10


#: Two members of the second boundary family, whose Phi^(1/2) has a double
#: zero at (1, -1) (``identities.verify_second_case_double_root``): the
#: grid holds the weight 1/2 only at even n.
HALF_TOUCH = (second_case_form(1, (1, 0, 1)).coeffs, second_case_form(2, (2, 1, 2)).coeffs)


class TestHalfWeight:
    """Both grid paths test k = n // 2: a form that fails strict positivity
    at alpha = 1/2 alone, a root that the cells' open interval (0, 1/2)
    leaves out, is not strictly positive at even n and is at odd n, on the
    walk (n = 8, 9) and on the cells (n >= 56)."""

    @pytest.mark.parametrize("n", [8, 9, 56, 57, 100, 101, 10**6, 10**6 + 1, 10**40, 10**40 + 1])
    @pytest.mark.parametrize("coeffs", HALF_TOUCH)
    def test_double_zero_at_one_half(self, coeffs, n):
        f = SymFormP(4, coeffs, n)
        assert is_nonneg(f).status == "IN"
        assert is_strictly_positive(f) == (n % 2 == 1)


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestCoefficientSumStep:
    """On the walk, ``is_nonneg`` reads the first grid weight, k = 0, where
    Phi is the coefficient sum times y^4, on integers before it builds the
    alpha-coefficients; its witness is the one the walk finds there, and
    the cell path's first weight gives the same."""

    @given(st.tuples(*[_small] * 5), st.sampled_from((4, 5, 8, 60, 10**30)))
    @settings(max_examples=120, deadline=None)
    @example((Fraction(-1, 6), 0, 0, 0, 0), 4)
    @example((1, -2, 0, 0, 1), 5)
    @example((Fraction(1, 3), 0, Fraction(-1, 2), Fraction(1, 6), 0), 4)
    @example((1, -2, 0, 0, 1), 60)
    def test_witness_is_the_walks_at_weight_zero(self, coeffs, n):
        f = SymFormP(4, coeffs, n)
        verdict = is_nonneg(f)
        h0 = _phi_ints(f.nums, 0, 1, 1)
        if sum(f.coeffs) < 0:
            assert not binary_quartic_nonneg(h0)
            assert verdict.witness == ((0, 1), binary_quartic_negative_point(h0))
        else:
            assert binary_quartic_nonneg(h0)
            assert verdict.status == "IN" or verdict.witness[0][0] > 0

    def test_negative_sum_builds_no_alpha_coefficients(self, monkeypatch):
        def unexpected(f):
            raise AssertionError("alpha-coefficients built")

        monkeypatch.setattr(positivity, "_phi_alpha_ints", unexpected)
        for n in (4, positivity._CELL_MIN_N - 1):
            assert is_nonneg(SymFormP(4, (1, -2, 0, 0, Fraction(1, 2)), n)).status == "OUT"
            # the walk reads every weight on the form's integers, so an OUT
            # form with a nonnegative sum needs no alpha-coefficients either
            assert is_nonneg(SymFormP(4, (1, -2, 0, 0, 1), n)).status == "OUT"
        # the cells cut at the roots of polynomials in alpha, and build them
        with pytest.raises(AssertionError, match="alpha-coefficients built"):
            is_nonneg(SymFormP(4, (1, -2, 0, 0, 1), positivity._CELL_MIN_N))


#: The p-coefficients of the Choi-Lam form.
class TestStrictPositivity:
    def test_sum_of_fourth_powers(self):
        assert is_strictly_positive(form_from_dict(4, {(4,): 1}, 4))

    def test_nonneg_with_zero_not_strict(self):
        # p_4 - p_(2,2) vanishes at the all-ones point
        f = form_from_dict(4, {(4,): 1, (2, 2): -1}, 4)
        assert is_nonneg(f).status == "IN"
        assert not is_strictly_positive(f)

    def test_negative_not_strict(self):
        assert not is_strictly_positive(form_from_dict(4, {(4,): -1}, 4))


class TestOneCellBuildPerForm:
    """``is_nonneg`` and ``is_strictly_positive`` share the alpha-cells of
    one form object; an equal or rescaled object builds its own.  Forms
    that gamma = 0 decides build none.  A build is counted as one call to
    ``binary_quartic_critical_polys``, which ``_tested_ks`` makes once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return binary_quartic_critical_polys(*args)

        monkeypatch.setattr(positivity, "binary_quartic_critical_polys", counted)
        return calls

    @pytest.mark.parametrize("first_nonneg", [True, False])
    def test_pair_builds_cells_once(self, builds, first_nonneg):
        f = SymFormP(4, NEAR_6_10, 64)
        if first_nonneg:
            nonneg, strict = is_nonneg(f), is_strictly_positive(f)
        else:
            strict, nonneg = is_strictly_positive(f), is_nonneg(f)
        assert len(builds) == 1
        assert nonneg.status == "IN" and strict

    def test_equal_and_scaled_forms_build_again(self, builds):
        f = SymFormP(4, NEAR_6_10, 64)
        is_nonneg(f)
        g = SymFormP(4, f.coeffs, 64)
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
        assert is_nonneg(g) == is_nonneg(f)
        assert len(builds) == 2
        is_strictly_positive(f.scale(2))
        assert len(builds) == 3
        is_strictly_positive(f)
        is_strictly_positive(g)
        assert len(builds) == 3

    def test_gamma_zero_builds_no_cells(self, builds):
        # p_4 + p_(2,2) is in the interior of the limit cone, example 6.10 on
        # its boundary: gamma = 0 answers both questions, resp. is_nonneg
        interior = form_from_dict(4, {(4,): 1, (2, 2): 1}, 64)
        assert is_nonneg(interior).status == "IN" and is_strictly_positive(interior)
        assert builds == []
        boundary = SymFormP(4, EXAMPLE_6_10, 64)
        assert is_nonneg(boundary).status == "IN"
        assert builds == []
        assert is_strictly_positive(boundary)
        assert len(builds) == 1


@given(
    st.one_of(
        st.tuples(*[_small] * 5),
        st.builds(boundary_coeffs, _small.filter(bool), _small, _small, _small),
    ),
    st.sampled_from((32, 64, 1000, LIMIT)),
    st.booleans(),
)
@example((1, -2, 0, 0, 1), 32, False)
@example((0, 0, 1, -3, 2), LIMIT, True)
@settings(max_examples=40, deadline=None)
def test_shared_object_verdicts_equal_fresh(coeffs, scope, reverse):
    """The verdicts of one form object asked every question of its scope,
    in either order and twice, equal those of a fresh object per question."""
    if scope is LIMIT:
        queries = [is_nonneg_limit, sos_membership_limit]
        if any(coeffs):
            queries.append(boundary_status_limit)
    else:
        queries = [is_nonneg, is_strictly_positive]
    if reverse:
        queries.reverse()
    f = SymFormP(4, coeffs, scope)
    shared = [q(f) for q in queries]
    assert shared == [q(SymFormP(4, coeffs, scope)) for q in queries]
    assert shared == [q(f) for q in queries]


_psd2 = st.builds(lambda a, b, t: SymMat2(a * a + t, a * b, b * b + t), _small, _small, _small.map(abs))

#: Box forms, boundary-family members and expansions of gamma = 0 blocks:
#: infeasible, feasible and strictly feasible at gamma = 0.
_gamma_zero_forms = st.one_of(
    st.tuples(*[_small] * 5),
    st.builds(boundary_coeffs, _small.filter(bool), _small, _small, _small),
    st.builds(
        lambda A, B: expand_certificate(SosCertificate.from_blocks(A, B, Fraction(0), LIMIT)).coeffs,
        _psd2,
        _psd2,
    ),
)


@given(_gamma_zero_forms)
@example(EXAMPLE_6_10)
@example((1, 0, 1, 0, 0))
@settings(max_examples=60, deadline=None)
def test_gamma_zero_certificate_at_every_n(coeffs):
    """Feasible gamma = 0 blocks (``test_oracles.feasible_at_gamma``) are
    one certificate for every n: it passes the oracles' check at each n,
    and ``is_nonneg`` is IN there.  The entries at gamma = 0 do not depend
    on n."""
    forms = [SymFormP(4, coeffs, n) for n in (4, 7, 64, 10**6)]
    entries = _gamma_zero_entries(forms[0])
    assert all(_gamma_zero_entries(f) == entries for f in forms)
    if not feasible_at_gamma(forms[0], 0):
        return
    for f in forms:
        cert = _certificate(f, *_gamma_zero_entries(f), Fraction(0), _NO_GEN)
        assert cert.is_valid() and cert.gamma == 0
        check_certificate(cert, f)
        assert is_nonneg(f).status == "IN"


@given(_gamma_zero_forms)
@example((1, 0, 1, 0, 0))
@settings(max_examples=60, deadline=None)
def test_strictly_feasible_gamma_zero_is_strictly_positive(coeffs):
    """Strictly feasible gamma = 0 blocks, those of a form inside the
    limit cone, give strict positivity on the whole grid W_n, and
    ``is_strictly_positive`` says so."""
    limit = SymFormP(4, coeffs, LIMIT)
    if limit.is_zero() or boundary_status_limit(limit).status != "INTERIOR":
        return
    for n in (4, 5, 33):
        f = SymFormP(4, coeffs, n)
        assert grid_strictly_positive(grid_quartics(f))
        assert is_strictly_positive(f)


class TestLimitCone:
    def test_p22_in(self):
        assert is_nonneg_limit(form_from_dict(4, {(2, 2): 1}, LIMIT)).status == "IN"

    def test_p4_minus_p22_in(self):
        f = form_from_dict(4, {(4,): 1, (2, 2): -1}, LIMIT)
        assert is_nonneg_limit(f).status == "IN"

    def test_p22_minus_p4_out_with_witness(self):
        f = form_from_dict(4, {(2, 2): 1, (4,): -1}, LIMIT)
        verdict = is_nonneg_limit(f)
        assert verdict.status == "OUT"
        assert witness_value(f, verdict) < 0

    def test_zero_form_in(self):
        assert is_nonneg_limit(SymFormP(4, (0,) * 5, LIMIT)).status == "IN"

    def test_negative_total_out(self):
        f = form_from_dict(4, {(1, 1, 1, 1): -1}, LIMIT)
        assert is_nonneg_limit(f).status == "OUT"

    def test_regression_cell_inside_isolating_interval(self):
        # Phi^alpha of this form is negative only for alpha in (0, r) and
        # (1 - r, 1), with r ~ 0.0604 a critical root inside its isolating
        # interval (1/32, 1/16); a sampler visiting only gaps between
        # intervals misses that thin window.  The limit witness is read off
        # the gamma = 0 entries and samples no alpha, so the window guards
        # the finite-n decisions: OUT at every n >= 17, with the first
        # failing grid weight 1/n, on the walk (n = 20) and on the cell path
        # (n >= _CELL_MIN_N)
        f = SymFormP(4, (0, 1, 1, -2, Fraction(3, 2)), LIMIT)
        verdict = is_nonneg_limit(f)
        assert verdict.status == "OUT"
        assert witness_value(f, verdict) < 0
        assert is_nonneg(f.with_scope(16)).status == "IN"
        for n in (20, 56, 64, 1000):
            assert (n < positivity._CELL_MIN_N) == (n == 20)
            g = f.with_scope(n)
            verdict = is_nonneg(g)
            assert verdict.status == "OUT"
            assert verdict.witness[0] == (Fraction(1, n), Fraction(n - 1, n))
            assert witness_value(g, verdict) < 0

    def test_limit_implies_every_finite_n(self):
        rng = random.Random(53)
        hits = 0
        for _ in range(25):
            f = random_form(rng, LIMIT)
            if is_nonneg_limit(f).status == "IN":
                hits += 1
                for n in (4, 7, 11):
                    assert is_nonneg(f.with_scope(n)).status == "IN"
        assert hits > 0


class TestBoundaryStatus:
    def test_p22_boundary(self):
        # p_(2,2) - eps p_4 is negative at (1, 0, ..., 0) once n > 1/eps, so
        # p_(2,2) lies on the boundary of the limit cone; adding p_4 moves it
        # inside
        f = form_from_dict(4, {(2, 2): 1}, LIMIT)
        verdict = boundary_status_limit(f)
        assert (verdict.status, verdict.witness) == ("BOUNDARY", DualFunctional.from_values(1, 0, 0, 0, 0))
        g = form_from_dict(4, {(2, 2): 1, (4,): 1}, LIMIT)
        assert boundary_status_limit(g).status == "INTERIOR"

    def test_p1111_boundary(self):
        f = form_from_dict(4, {(1, 1, 1, 1): 1}, LIMIT)
        assert boundary_status_limit(f).status == "BOUNDARY"

    def test_outside(self):
        f = form_from_dict(4, {(4,): -1}, LIMIT)
        assert boundary_status_limit(f).status == "OUTSIDE"

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            boundary_status_limit(SymFormP(4, (0,) * 5, LIMIT))

    def test_example_boundary_witness(self):
        # example 6.10: the supporting functional is the paper's, up to a
        # positive factor
        f = SymFormP(
            4,
            (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400)),
            LIMIT,
        )
        verdict = boundary_status_limit(f)
        assert verdict.status == "BOUNDARY"
        paper = (Fraction(397, 200), Fraction(63, 40), Fraction(25, 16), Fraction(5, 4), 1)
        ratios = {y / p for y, p in zip(verdict.witness.as_tuple(), paper)}
        assert len(ratios) == 1 and ratios.pop() > 0
        assert verdict.alpha_witness is None

    def test_zero_x4_coefficient_is_boundary(self):
        # c4 = 0 puts a zero of Phi^alpha at alpha -> 0, (x, y) = (1, 0):
        # the functional f -> c4 supports the cone there
        f = SymFormP(4, (0, 0, Fraction(89, 16), Fraction(7, 8), Fraction(-39, 16)), LIMIT)
        verdict = boundary_status_limit(f)
        assert verdict.status == "BOUNDARY"
        assert verdict.witness == DualFunctional.from_values(1, 0, 0, 0, 0)
        assert is_nonneg_limit(f - form_from_dict(4, {(4,): Fraction(1, 10**6)}, LIMIT)).status == "OUT"

    def test_numeric_scope_rejected(self):
        f = SymFormP(4, (1, 0, -1, 0, 1), 6)
        with pytest.raises(ValueError):
            is_nonneg_limit(f)
        with pytest.raises(ValueError):
            boundary_status_limit(f)

    def test_strict_positivity_rejects_other_degrees(self):
        with pytest.raises(ValueError):
            is_strictly_positive(SymFormP(2, (1, -1), 6))


def test_equivalence_sample_pinned():
    """The 500 coefficient vectors of ``equivalence_sample()``, which feeds
    ``repro limit-equality``, acceptance test A6 and the gate below, hash
    to a pinned digest: a moved random draw changes it."""
    sample = equivalence_sample()
    text = "\n".join(" ".join(map(str, f.coeffs)) for f in sample)
    assert len(sample) == 500
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "87f075ea5a7467c6cc0aa6f49f6ef49f334808e73f6bd5559fbacea14209a28a"
    )


#: The five basis products p_lambda, canonical order, at LIMIT scope.
BASIS = [SymFormP(4, tuple(int(i == j) for j in range(5)), LIMIT) for i in range(5)]


def test_perturbation_gate():
    """Every boundary verdict on the equivalence sample, checked by
    perturbing the form: an INTERIOR form minus 10^-6 p_lambda stays
    nonnegative for each lambda, and a BOUNDARY form minus 10^-6 p_4 is
    OUT with a negative witness.  The second holds because every nonzero
    y of the limit dual cone has y4 > 0 (y4 - y22 >= 0, y22 >= 0, and
    y22 = 0 forces y211 = 0, then y31 = y211 and y1111 = 0), so the
    supporting functional pairs negatively with the perturbed form."""
    eps = Fraction(1, 10**6)
    seen = dict.fromkeys(("INTERIOR", "BOUNDARY", "OUTSIDE"), 0)
    for f in equivalence_sample():
        verdict = boundary_status_limit(f)
        if verdict.status == "INTERIOR":
            for p in BASIS:
                assert is_nonneg_limit(f - p.scale(eps)).status == "IN", f.coeffs
        elif verdict.status == "BOUNDARY":
            y = verdict.witness
            assert pair(y, f) == 0 and dual_membership(y, LIMIT) and y.y4 > 0
            g = f - BASIS[0].scale(eps)
            out = is_nonneg_limit(g)
            assert out.status == "OUT", f.coeffs
            assert witness_value(g, out) < 0
        seen[verdict.status] += 1
    assert seen == {"INTERIOR": 326, "BOUNDARY": 17, "OUTSIDE": 157}


# ---------------------------------------------------------------------------
# the projection over Z[alpha]
# ---------------------------------------------------------------------------

F = Fraction

#: Families whose alpha-discriminant or x^4 coefficient vanishes
#: identically, with their verdicts and witnesses: (is_nonneg_limit,
#: boundary_status_limit, sos_membership_limit, then (n, is_nonneg,
#: is_strictly_positive) for n = 4, 16, 64, 1000).  The finite-n columns
#: are those that the Yun decomposition over Q(alpha) gave before this
#: projection.  The limit witnesses are the closed-form ones that
#: ``_limit_negative_point`` reads off the gamma = 0 entries: the
#: coefficient sum, the mean-0 point MEAN_ZERO when a22 = c22 + c4 < 0,
#: the point (1, 0) when c4 < 0, else a two-point measure of variance v;
#: each is re-verified below.  The boundary column holds the supporting
#: functionals of the gamma = 0 blocks, re-verified below (pairing 0,
#: limit dual cone).
ONE_ZERO, HALF = (F(1), F(0)), (F(1, 2), F(1, 2))
#: Weights 1/2, 1/2 at the points 1, -1: p_1 = p_3 = 0 and p_2 = p_4 = 1.
MEAN_ZERO = (HALF, (F(1), F(-1)))
#: The functional f -> c4, which supports the limit cone at every form
#: with c4 = 0.
C4 = DualFunctional.from_values(1, 0, 0, 0, 0)


def _finite(status, witnesses, strict):
    return [
        (n, status, w, strict)
        for n, w in zip((4, 16, 64, 1000), witnesses or (None,) * 4)
    ]


def _grid(point):
    """The OUT witnesses of the first grid weight 1/n with this point."""
    return [((F(1, n), F(n - 1, n)), point) for n in (4, 16, 64, 1000)]


DEGENERATE = {
    # (a p_2 + b p_1^2)^2: Phi^alpha is the square of a quadratic
    "square_p2_p1sq_1": ((0, 0, 1, -2, 1), ("IN", None), ("BOUNDARY", C4),
                         "IN", _finite("IN", None, False)),
    "square_p2_p1sq_2": ((0, 0, 4, -12, 9), ("IN", None), ("BOUNDARY", C4),
                         "IN", _finite("IN", None, False)),
    # moved: INTERIOR under the alpha-cell scan, which missed the zero at
    # alpha -> 0 that c4 = 0 puts there (f - 10^-6 p_4 is OUT)
    "square_p2_p1sq_3": ((0, 0, 1, 1, F(1, 4)), ("IN", None), ("BOUNDARY", C4),
                         "IN", _finite("IN", None, True)),
    # p_4 - p_(2,2) = mean of (x_i^2 - p_2)^2, plus (p_2 - p_1^2)^2
    "p4_minus_p22": ((1, 0, -1, 0, 0), ("IN", None), ("BOUNDARY", DualFunctional.from_values(1, 0, 1, 0, 0)),
                     "IN", _finite("IN", None, False)),
    "p4_minus_p22_plus_square": ((1, 0, 0, -2, 1), ("IN", None),
                                 ("BOUNDARY", DualFunctional.from_values(1, 1, 1, 1, 1)),
                                 "IN", _finite("IN", None, False)),
    "p22_minus_p4": ((-1, 0, 1, 0, 0), ("OUT", (HALF, ONE_ZERO)), ("OUTSIDE", None),
                     "OUT", _finite("OUT", _grid(ONE_ZERO), False)),
    "negated_square_1": ((0, 0, -1, 2, -1), ("OUT", MEAN_ZERO), ("OUTSIDE", None),
                         "OUT", _finite("OUT", _grid(ONE_ZERO), False)),
    "negated_square_2": ((0, 0, -4, 12, -9), ("OUT", ((F(0), F(1)), (F(0), F(1)))),
                         ("OUTSIDE", None), "OUT",
                         _finite("OUT", [((F(0), F(1)), (F(1), F(1)))] * 4, False)),
    # the x^4 coefficient of Phi^alpha vanishes identically
    "lc_zero_1": ((0, 1, -1, 0, 0), ("OUT", MEAN_ZERO), ("OUTSIDE", None),
                  "OUT", _finite("OUT", _grid((F(-3), F(1))), False)),
    # c4 = 0 != c31: variance v = 1, F linear in x + y = 2 + 1/t - t,
    # negative from t = 1/2 on
    "lc_zero_2": ((0, -1, 1, 0, 0), ("OUT", ((F(1, 5), F(4, 5)), (F(3), F(1, 2)))),
                  ("OUTSIDE", None),
                  "OUT", _finite("OUT", _grid((F(3), F(1))), False)),
    "lc_zero_3": ((0, F(3, 2), F(-3, 2), 0, 0), ("OUT", MEAN_ZERO), ("OUTSIDE", None),
                  "OUT", _finite("OUT", _grid((F(-3), F(1))), False)),
    # s (p_4 - p_(2,2)) + (p_2 - p_1^2)(a p_2 + b p_1^2): Phi^alpha is
    # alpha (1 - alpha)(x - y)^2 times a binary quadratic that is
    # indefinite only near alpha = 0 and 1, where no root of the leading
    # coefficient falls.  The discriminant vanishes identically, and the
    # roots of D and R (Rees' invariants) in (1/64, 1/32) and (31/32, 63/64)
    # cut the finite-n cells there.  The limit witness sits at the vertex
    # w = 1 + v of a22 w^2 + s w + c0, just above w = 1
    "window_1": ((2, 0, 9, -23, 12),
                 ("OUT", ((F(88, 89), F(1, 89)), (F(45, 44), F(-1)))),
                 ("OUTSIDE", None), "OUT",
                 [(4, "IN", None, False), (16, "IN", None, False),
                  (64, "OUT", ((F(1, 64), F(63, 64)), (F(-6207, 8884), F(1))), False),
                  (1000, "OUT", ((F(1, 1000), F(999, 1000)), (F(-1734765, 2010988), F(1))),
                   False)]),
    "window_2": ((5, 0, 5, -21, 11),
                 ("OUT", ((F(80, 81), F(1, 81)), (F(41, 40), F(-1)))),
                 ("OUTSIDE", None), "OUT",
                 [(4, "IN", None, False), (16, "IN", None, False),
                  (64, "OUT", ((F(1, 64), F(63, 64)), (F(-5637, 7676), F(1))), False),
                  (1000, "OUT", ((F(1, 1000), F(999, 1000)), (F(-15944055, 20039956), F(1))),
                   False)]),
    # the degenerate forms of the benchmark's pinned (core) passes
    "bench_limit_sweep": ((F(-7, 8), F(-17, 8), F(-1, 8), F(5, 4), F(15, 8)),
                          ("OUT", MEAN_ZERO), ("OUTSIDE", None),
                          "OUT", _finite("OUT", _grid(ONE_ZERO), False)),
    "bench_large_n": ((F(9, 4), F(-15, 2), F(-2), F(53, 4), F(-6)), ("IN", None),
                      ("BOUNDARY", DualFunctional.from_values(*[F(1, 16)] * 5)), "IN",
                      _finite("IN", None, False)),
}


def _generic_forms():
    rng = random.Random(83)
    return [tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(5)) for _ in range(12)]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def real_roots_from_signs(h) -> tuple[bool, bool]:
    """(a real root of odd multiplicity, a real root) of h(x, 1) != 0 for the
    integer quartic h = (a4, ..., a0), from the signs that
    ``binary_quartic_critical_polys`` projects.  With a4 != 0, Rees' table
    on (Delta, P, D, R): Delta < 0 gives two simple real roots; Delta > 0
    four simple real ones if P < 0 and D < 0, else none; Delta = 0 a
    double root and two simple ones or a triple and a simple one if P < 0
    and D < 0, else only roots of even multiplicity, all non-real exactly
    when D = R = 0 < P.  With a4 = 0, the degree of h(x, 1) and, for a
    quadratic, a1^2 - 4 a2 a0; those are not projected, as a4 vanishes
    identically only on multiples of p_(3,1) - p_(2,2), where they keep
    their signs on (0, 1)."""
    a4, _, a2, a1, a0 = h
    if a4:
        delta, p, d, r = (_sign(v) for v in _quartic_invariants(*h))
        odd = p < 0 and d < 0
        if delta:
            return delta < 0 or odd, delta < 0 or odd
        return odd, not (d == 0 and r == 0 and p > 0)
    degree = max(i for i, c in enumerate(h[::-1]) if c)
    if degree == 2:
        return a1 * a1 > 4 * a2 * a0, a1 * a1 >= 4 * a2 * a0
    return degree % 2 == 1, degree % 2 == 1


def real_roots_exact(h) -> tuple[bool, bool]:
    """The same two facts from sympy: the squarefree decomposition of
    h(x, 1) (``sqf_list``) and a count of the real roots of each factor
    (``count_roots``)."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in h], x)
    factors = [(q.count_roots(), m) for q, m in poly.sqf_list()[1]]
    return any(c and m % 2 for c, m in factors), any(c for c, _ in factors)


class TestProjection:
    @pytest.mark.parametrize("coeffs", [c for c, *_ in DEGENERATE.values()] + _generic_forms())
    def test_root_count_from_coefficient_signs(self, coeffs):
        """At random rational alpha, whether P = Phi^alpha(x, 1) has a real
        root, and one of odd multiplicity, which is all that the two
        binary-quartic tests read, follows from the signs of the
        invariants (``real_roots_from_signs``)."""
        nums = SymFormP(4, tuple(F(c) for c in coeffs), LIMIT).nums
        rng = random.Random(str(coeffs))
        tested = 0
        for _ in range(40):
            alpha = F(rng.randint(-30, 30), rng.randint(1, 12))
            p, q = alpha.numerator, alpha.denominator
            h = _phi_ints(nums, p, q - p, q)
            if any(h):
                assert real_roots_from_signs(h) == real_roots_exact(h), h
                tested += 1
        assert tested >= 30

    def test_root_count_on_sparse_polynomials(self):
        """Constant-coefficient P of degree 1 to 4 with coefficients in
        {-1, 0, 1, 2}: sparse polynomials such as x^4, x^4 + 2x^2 + 1 and
        x^4 - x^3 reach the rows of Rees' table with Delta = 0."""
        for d in range(1, 5):
            for low in itertools.product((-1, 0, 1, 2), repeat=d):
                for lead in (1, -2):
                    h = (0,) * (4 - d) + (lead,) + low[::-1]
                    assert real_roots_from_signs(h) == real_roots_exact(h), h

    def test_generic_critical_polys_are_disc_and_lead(self):
        for coeffs in _generic_forms():
            cs = _phi_alpha_ints(SymFormP(4, coeffs, LIMIT))[1]
            polys = binary_quartic_critical_polys(cs)
            delta = disc_binary_quartic(cs)
            ratio = polys[0].lead / delta.lead
            assert ratio > 0 and polys[0] == delta.scale(ratio)
            assert polys[-1] == cs[0]

    def test_cells_agree_with_the_walk_on_degenerate_families(self):
        """Forms whose Phi^alpha has an identically zero discriminant (the
        forms that vanish on the diagonal, and +-(u p_2 + v p_1^2)^2 moved
        along one of them) or leading coefficient (multiples of
        p_(3,1) - p_(2,2)), and forms whose critical roots lie on the
        grid, are shared or lie within 1/n of an end (``EDGE_ROOTS``):
        over ``_tested_ks`` the first failing k and strict positivity are
        those of the walk over the n - 1 interior weights (the coefficient
        sum decides the two end weights), every tested k is in 1..n//2, and
        n//2 is tested.

        The diagonal forms are drawn with s (p_4 - p_(2,2)) and
        c (p_(2,1^2) - p_(1^4)) positive and d (p_(2,2) - p_(2,1^2))
        negative, which mostly makes Phi^alpha fail on a window inside
        (0, 1): there only the cells find the first failing k."""
        rng = random.Random(61)
        diagonal = [(1, 0, -1, 0, 0), (0, 1, 0, -1, 0), (0, 0, 0, 1, -1), (0, 0, 1, -1, 0)]

        def small():
            return F(rng.randint(-6, 6), rng.randint(1, 3))

        def positive():
            return F(rng.randint(1, 6), rng.randint(1, 3))

        forms = []
        for _ in range(16):
            weights = (positive(), small(), positive(), -positive())
            forms.append([sum(w * g[i] for w, g in zip(weights, diagonal)) for i in range(5)])
            u, v, t, sign = small(), small(), rng.choice((0, small())), rng.choice((1, -1))
            g = rng.choice(diagonal)
            square = (0, 0, u * u, 2 * u * v, v * v)
            forms.append([sign * q + t * gi for q, gi in zip(square, g)])
            m = small()
            forms.append([m * c for c in (0, 1, -1, 0, 0)])
        forms += EDGE_ROOTS.values()
        kinds, outcomes, inside, first = set(), set(), 0, {}
        for coeffs in forms:
            f = SymFormP(4, tuple(coeffs), LIMIT)
            cs = _phi_alpha_ints(f)[1]
            if not any(cs):
                continue
            kinds.add("lc" if cs[0].is_zero() else "disc" if disc_binary_quartic(cs).is_zero() else "generic")
            if cs[0].is_zero():
                # m (p_(3,1) - p_(2,2)): no cut inside (0, 1)
                assert binary_quartic_critical_polys(cs) == []
            for n in (56, 57, 64, 97, 128, 200):
                hs = [_phi_ints(f.nums, k, n - k, n) for k in range(n + 1)]
                ks = _tested_ks(cs, n)

                def first_failing(over):
                    return next((k for k in over if not binary_quartic_nonneg(hs[k])), None)

                def strict(over):
                    return all(binary_quartic_strictly_positive(hs[k]) for k in over)

                assert all(0 < k <= n // 2 for k in ks) and n // 2 in ks
                want = first_failing(range(1, n))
                assert first_failing(ks) == want, (coeffs, n)
                assert strict(ks) == strict(range(1, n)), (coeffs, n)
                outcomes.add((want is None, strict(ks)))
                inside += want is not None and want > 1
                first[tuple(coeffs), n] = want, strict(ks)
        assert {"lc", "disc"} <= kinds
        assert outcomes == {(True, True), (True, False), (False, False)}
        assert inside >= 24
        # the edge forms test what they are named for
        assert first[EDGE_ROOTS["at_16/64"], 64][0] == 16
        assert first[EDGE_ROOTS["right_of_16/64"], 64][0] == 17
        touch = [n for n in (56, 57, 64, 97, 128, 200) if not first[EDGE_ROOTS["touch_19/57"], n][1]]
        assert touch == [57]
        assert first[EDGE_ROOTS["shared_1/2"], 64][0] == 18

    @pytest.mark.parametrize("name", list(DEGENERATE))
    def test_degenerate_families_pinned(self, name):
        coeffs, nonneg, boundary, sos, finite = DEGENERATE[name]
        f = SymFormP(4, tuple(F(c) for c in coeffs), LIMIT)
        cs = _phi_alpha_ints(f)[1]
        assert cs[0].is_zero() or disc_binary_quartic(cs).is_zero()
        verdict = is_nonneg_limit(f)
        assert (verdict.status, verdict.witness) == nonneg
        if verdict.status == "OUT":
            assert witness_value(f, verdict) < 0
        status = boundary_status_limit(f)
        assert (status.status, status.witness) == boundary
        if status.status == "BOUNDARY":
            y = status.witness
            assert any(y.as_tuple()) and pair(y, f) == 0 and dual_membership(y, LIMIT)
        assert sos_membership_limit(f).status == sos
        for n, want, witness, strict in finite:
            g = f.with_scope(n)
            verdict = is_nonneg(g)
            assert (verdict.status, verdict.witness) == (want, witness), n
            assert is_strictly_positive(g) == strict, n


# ---------------------------------------------------------------------------
# the limit witness from the gamma = 0 entries
# ---------------------------------------------------------------------------


def _from_gamma_zero(b22, b12, a22, s, c0):
    """The form whose gamma = 0 entries (``sos._gamma_zero_entries``) are these:
    (b22, b12, a22, s, c0) = (c4, c31/2, c22 + c4, c211 + c31, c1111)."""
    return tuple(F(c) for c in (b22, 2 * b12, a22 - b22, s - 2 * b12, c0))


def _witness_branch(coeffs):
    """The branch of ``_limit_negative_point`` that a form outside the
    limit cone takes, from its coefficients: the gamma = 0 entries are
    b22 = c4, b12 = c31/2 and a22 = c22 + c4."""
    c4, c31, c22, _, _ = coeffs
    if sum(coeffs) < 0:
        return "sum"
    if c22 + c4 < 0:
        return "mean_zero"
    if c4 < 0:
        return "point_1_0"
    if c4 == 0:
        return "linear" if c31 else "flat"
    return "vertex" if c22 + c4 > 0 else "slope"


#: One form per branch of the limit witness, with its witness where the
#: branch fixes it: Choi-Lam takes the a22 = 0 slope at v = 13/4, where
#: t = 4/3 is the simplest rational between two dyadic ends around the
#: root t0 of ``positivity._variance_t``, and -p_4 + 10 p_(2,2) needs
#: alpha = 1/11 at (1, 0), where alpha = 1/2 fails.
LIMIT_WITNESS_FORMS = {
    "sum": ((0, 0, 0, 0, -1), ((F(0), F(1)), (F(0), F(1)))),
    "mean_zero": ((0, 0, -1, 2, -1), MEAN_ZERO),
    "point_1_0": ((-1, 0, 10, 0, 0), ((F(1, 11), F(10, 11)), ONE_ZERO)),
    "linear": ((0, -1, 1, 0, 0), ((F(1, 5), F(4, 5)), (F(3), F(1, 2)))),
    "vertex": ((2, 0, 9, -23, 12), ((F(88, 89), F(1, 89)), (F(45, 44), F(-1)))),
    "slope": ((8, F(-160, 3), -8, 128, F(-128, 3)),
              ((F(64, 181), F(117, 181)), (F(55, 16), F(-1, 3)))),
    "flat": ((0, 0, 1, -3, F(21, 10)), None),
}


def _limit_witness_sample():
    """Seeded forms whose gamma = 0 entries are drawn from small sets with
    zeros in them, so that every branch of the limit witness is taken."""
    rng = random.Random(97)
    entry = [0, 0, 1, -1, 2, F(1, 2), F(-1, 3), 3, -4]
    return [
        _from_gamma_zero(*(rng.choice(entry) for _ in range(3)),
                         F(rng.randint(-12, 12), rng.randint(1, 3)),
                         F(rng.randint(-12, 12), rng.randint(1, 3)))
        for _ in range(600)
    ]


#: The alpha-polynomial machinery and the binary-quartic point search, as
#: named in ``positivity``.
_ALPHA_WORK = (
    "_phi_alpha_ints",
    "binary_quartic_critical_polys",
    "isolate_real_roots",
    "binary_quartic_negative_point",
)


@st.composite
def _variance_branch_forms(draw):
    """Forms outside the limit cone built from gamma = 0 entries
    (``_from_gamma_zero``) that take the variance branch of the limit
    witness, with coefficient sum sigma >= 0: b22 = 0 != b12 (linear), or
    b22 > 0 with k = b12^2 / b22 and G(w) = a22 w^2 + (s - k) w + c0 + k
    negative somewhere on w > 1, at its vertex 1 + m (a22 > 0, vertex) or
    along a negative slope (a22 = 0, slope)."""
    rational = st.builds(F, st.integers(-24, 24), st.integers(1, 9))
    positive = st.builds(F, st.integers(1, 24), st.integers(1, 9))
    kind = draw(st.sampled_from(("linear", "vertex", "slope")))
    b12 = draw(rational.filter(bool) if kind == "linear" else rational)
    sigma = draw(st.builds(F, st.integers(0, 24), st.integers(1, 9)))
    if kind == "linear":
        b22, a22, s = F(0), draw(st.one_of(st.just(F(0)), positive)), draw(rational)
    else:
        b22 = draw(positive)
        k = b12 * b12 / b22
        if kind == "vertex":
            a22, m = draw(positive), draw(positive)
            sigma = a22 * m * m * sigma / (sigma + 1)  # in [0, a22 m^2)
            s = k - 2 * a22 * (1 + m)
        else:
            a22, s = F(0), k - draw(positive)
    return _from_gamma_zero(b22, b12, a22, s, sigma - a22 - s)


#: Forms 10^-4000 outside the limit cone, with the branch each takes.
_HOSTILE_LIMIT_FORMS = [
    ((EXAMPLE_6_10[0] - F(1, 10**4000),) + EXAMPLE_6_10[1:], "vertex"),
    ((0, F(1, 10**4000), 1, 0, 0), "linear"),
    ((0, F(-1, 10**4000), 1, 0, 0), "linear"),
]


class TestLimitWitness:
    """The OUT witness of ``is_nonneg_limit``, read off the gamma = 0
    entries (``_limit_negative_point``)."""

    @pytest.mark.parametrize("branch", list(LIMIT_WITNESS_FORMS))
    def test_each_branch(self, branch):
        coeffs, pinned = LIMIT_WITNESS_FORMS[branch]
        f = SymFormP(4, tuple(F(c) for c in coeffs), LIMIT)
        assert _witness_branch(f.coeffs) == branch
        verdict = is_nonneg_limit(f)
        assert verdict.status == "OUT"
        assert witness_value(f, verdict) < 0
        if pinned is not None:
            assert verdict.witness == pinned

    def test_seeded_sample_reaches_every_branch(self):
        reached = set()
        for coeffs in _limit_witness_sample():
            f = SymFormP(4, coeffs, LIMIT)
            verdict = is_nonneg_limit(f)
            if verdict.status == "IN":
                continue
            reached.add(_witness_branch(coeffs))
            (alpha, beta), _ = verdict.witness
            assert 0 <= alpha <= 1 and alpha + beta == 1
            assert witness_value(f, verdict) < 0, coeffs
        assert reached == set(LIMIT_WITNESS_FORMS)

    def test_no_witness_inside_the_cone(self, monkeypatch):
        """Inside the limit cone no branch applies: ``_negative_variance``
        finds no variance, and an OUT verdict forced on such a form raises
        instead of returning a point."""
        inside = [
            SymFormP(4, c, LIMIT)
            for c in _limit_witness_sample()
            if is_nonneg_limit(SymFormP(4, c, LIMIT)).status == "IN"
        ]
        assert len(inside) > 50
        for f in inside:
            assert _negative_variance(*_gamma_zero_entries(f)[1]) is None, f.coeffs
        monkeypatch.setattr(positivity, "_gamma_zero_class", lambda f: 0)
        with pytest.raises(AssertionError, match="degree-4 limit theorem"):
            is_nonneg_limit(SymFormP(4, EXAMPLE_6_10, LIMIT))

    @pytest.fixture
    def alpha_work(self, monkeypatch):
        """Calls to the alpha-polynomial machinery and the binary-quartic
        point search from ``positivity``, and to root isolation anywhere:
        ``isolate_real_roots`` and the walk under it, which the point
        search reads directly."""
        calls = []
        targets = [(positivity, name) for name in _ALPHA_WORK] + [
            (algebra, "isolate_real_roots"),
            (algebra, "_root_intervals"),
        ]
        for module, name in targets:
            real = getattr(module, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_no_alpha_cells_at_limit(self, alpha_work):
        forms = [c for c, _ in LIMIT_WITNESS_FORMS.values()] + _limit_witness_sample()[:200]
        outs = 0
        for coeffs in forms:
            outs += is_nonneg_limit(SymFormP(4, tuple(F(c) for c in coeffs), LIMIT)).status == "OUT"
        assert outs > 100
        assert alpha_work == []
        # the finite-n cell path and its point search still count: Choi-Lam
        # at n = 64
        assert is_nonneg(SymFormP(4, LIMIT_WITNESS_FORMS["slope"][0], 64)).status == "OUT"
        assert set(alpha_work) == set(_ALPHA_WORK) | {"isolate_real_roots", "_root_intervals"}

    @settings(max_examples=150, deadline=None)
    @given(_variance_branch_forms())
    def test_variance_branch_witness(self, coeffs):
        """In the b22 > 0 and the b22 = 0 != b12 branches the witness is the
        two-point measure at t > 0 (``positivity._variance_t``): x = 1 + v/t
        > 1 > y = 1 - t, 0 < alpha < 1, and Phi_f < 0 there exactly."""
        f = SymFormP(4, coeffs, LIMIT)
        assert _witness_branch(coeffs) in ("linear", "vertex", "slope")
        verdict = is_nonneg_limit(f)
        assert verdict.status == "OUT"
        (alpha, beta), (x, y) = verdict.witness
        assert 0 < alpha < 1 and alpha + beta == 1
        assert y < 1 < x
        assert witness_value(f, verdict) < 0

    @pytest.mark.parametrize(
        "coeffs, branch", _HOSTILE_LIMIT_FORMS, ids=["example-6.10-lowered", "linear-up", "linear-down"]
    )
    def test_hostile_witness_bounded_time(self, coeffs, branch):
        """Forms 10^-4000 outside the limit cone.  Example 6.10 with p_4
        lowered by 10^-4000 needs t to about 13 000 bits, which the integer
        square root gives with no root isolation (about 1.9 s with the
        binary-quartic search it replaced); with c4 = 0 and c31 = +-10^-4000
        the least power 2^+-j that passes has j of about 13 000."""
        f = SymFormP(4, tuple(F(c) for c in coeffs), LIMIT)
        start = time.perf_counter()
        verdict = is_nonneg_limit(f)
        elapsed = time.perf_counter() - start
        assert verdict.status == "OUT"
        assert _witness_branch(f.coeffs) == branch
        assert witness_value(f, verdict) < 0
        assert elapsed < 0.5, elapsed


