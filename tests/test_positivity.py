import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

import symquartic.positivity as positivity
from symquartic.algebra import (
    UniPoly,
    _zsign,
    binary_quartic_nonneg,
    binary_quartic_strictly_positive,
    count_real_roots,
)
from symquartic.dualcone import DualFunctional, dual_membership, pair
from symquartic.positivity import (
    _alpha_coeffs,
    _critical_polys,
    _signed_subresultants,
    _x_poly,
    boundary_status_limit,
    is_nonneg,
    is_nonneg_limit,
    is_strictly_positive,
)
from symquartic.sampling import equivalence_sample
from symquartic.sos import sos_membership_limit
from symquartic.symfunc import (
    LIMIT,
    SymFormP,
    evaluate,
    form_from_dict,
    phi_alpha_coeffs,
    restrict_alpha,
)

from conftest import random_form


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

    def test_witness_soundness_random(self):
        rng = random.Random(23)
        outs = 0
        for _ in range(60):
            f = random_form(rng, 4)
            verdict = is_nonneg(f)
            if verdict.status == "OUT":
                outs += 1
                assert witness_value(f, verdict) < 0
        assert outs > 0

    def test_agrees_with_grid_sampling(self):
        rng = random.Random(31)
        grid = [Fraction(k, 2) for k in range(-4, 5)]
        for _ in range(25):
            f = random_form(rng, 4, bound=2, den=2)
            verdict = is_nonneg(f)
            if verdict.status == "IN":
                for pt in _sample_points(rng, grid, 40):
                    assert evaluate(f, pt) >= 0
            else:
                assert witness_value(f, verdict) < 0

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


def _sample_points(rng, grid, count):
    for _ in range(count):
        yield tuple(rng.choice(grid) for _ in range(4))


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


class TestFiniteNOracle:
    """``is_nonneg`` and ``is_strictly_positive`` test only grid weights
    chosen from the alpha-cells (from a threshold n on); they must agree
    with the walk over all n + 1 weights."""

    def test_agrees_with_full_grid(self, monkeypatch):
        sizes = (4, 5, 12, 31, 33, 60)
        outs = strict_differs = 0
        for i, coeffs in enumerate(oracle_sample()):
            for n in sizes if i < 6 else sizes[i % 2 :: 2]:
                f = SymFormP(4, tuple(Fraction(c) for c in coeffs), n)
                hs = grid_quartics(f)
                first_bad, strict = grid_nonneg(hs), grid_strictly_positive(hs)
                outs += first_bad is not None
                strict_differs += first_bad is None and not strict
                # the cell path, then the direct walk, at every n
                for cells_from_n in (n, n + 1):
                    monkeypatch.setattr(positivity, "_CELL_MIN_N", cells_from_n)
                    verdict = is_nonneg(f)
                    assert verdict.status == ("IN" if first_bad is None else "OUT"), (coeffs, n)
                    if first_bad is not None:
                        w, _point = verdict.witness
                        assert w == (Fraction(first_bad, n), Fraction(n - first_bad, n))
                        assert witness_value(f, verdict) < 0
                    assert is_strictly_positive(f) == strict, (coeffs, n)
        assert outs > 0 and strict_differs > 0

    def test_cost_independent_of_n(self, monkeypatch):
        calls = []

        def counted(h):
            calls.append(h)
            return binary_quartic_nonneg(h)

        monkeypatch.setattr(positivity, "binary_quartic_nonneg", counted)
        counts = []
        for n in (10**3, 10**6):
            calls.clear()
            assert is_nonneg(SymFormP(4, EXAMPLE_6_10, n)).status == "IN"
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 10


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
        # this form is negative only on a thin alpha-window near 0.03 that
        # sits inside an isolating interval of the critical polynomial; a
        # sampler visiting only gaps between intervals misses it
        f = SymFormP(4, (0, 1, 1, -2, Fraction(3, 2)), LIMIT)
        verdict = is_nonneg_limit(f)
        assert verdict.status == "OUT"
        assert witness_value(f, verdict) < 0
        assert is_nonneg(f.with_scope(20)).status == "OUT"

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

    def test_limit_agrees_with_dense_alpha_sampling(self):
        rng = random.Random(59)
        alphas = [Fraction(k, 97) for k in range(98)]
        xs = [Fraction(k, 3) for k in range(-9, 10)]
        for _ in range(20):
            f = random_form(rng, LIMIT)
            verdict = is_nonneg_limit(f)
            sampled_negative = False
            for alpha in alphas:
                h = restrict_alpha(f, alpha)
                for x in xs:
                    if sum(c * x ** (4 - i) for i, c in enumerate(h)) < 0 or h[4] < 0:
                        sampled_negative = True
                        break
                if sampled_negative:
                    break
            if verdict.status == "IN":
                assert not sampled_negative
            else:
                assert witness_value(f, verdict) < 0


class TestBoundaryStatus:
    def test_p22_boundary(self):
        # p_(2,2) - eps p_4 is negative at (1, 0, ..., 0) once n > 1/eps, so
        # p_(2,2) lies on the boundary of the limit cone; adding p_4 moves it
        # inside
        f = form_from_dict(4, {(2, 2): 1}, LIMIT)
        verdict = boundary_status_limit(f)
        assert (verdict.status, verdict.witness) == ("BOUNDARY", DualFunctional(1, 0, 0, 0, 0))
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
        assert verdict.witness == DualFunctional(1, 0, 0, 0, 0)
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
#: identically, with the verdicts and witnesses that the Yun decomposition
#: over Q(alpha) gave before this projection: (is_nonneg_limit,
#: boundary_status_limit, sos_membership_limit, then (n, is_nonneg,
#: is_strictly_positive) for n = 4, 16, 64, 1000).  The limit witness of
#: one form moved, because the raw coefficient polynomials of the Yun
#: projection no longer cut the alpha-cells; it is marked and re-verified
#: below.  The boundary column holds the supporting functionals of the
#: gamma = 0 blocks, re-verified below (pairing 0, limit dual cone).
ONE_ZERO, HALF = (F(1), F(0)), (F(1, 2), F(1, 2))
#: The functional f -> c4, which supports the limit cone at every form
#: with c4 = 0.
C4 = DualFunctional(1, 0, 0, 0, 0)


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
    "p4_minus_p22": ((1, 0, -1, 0, 0), ("IN", None), ("BOUNDARY", DualFunctional(1, 0, 1, 0, 0)),
                     "IN", _finite("IN", None, False)),
    "p4_minus_p22_plus_square": ((1, 0, 0, -2, 1), ("IN", None),
                                 ("BOUNDARY", DualFunctional(1, 1, 1, 1, 1)),
                                 "IN", _finite("IN", None, False)),
    "p22_minus_p4": ((-1, 0, 1, 0, 0), ("OUT", (HALF, ONE_ZERO)), ("OUTSIDE", None),
                     "OUT", _finite("OUT", _grid(ONE_ZERO), False)),
    "negated_square_1": ((0, 0, -1, 2, -1), ("OUT", (HALF, ONE_ZERO)), ("OUTSIDE", None),
                         "OUT", _finite("OUT", _grid(ONE_ZERO), False)),
    "negated_square_2": ((0, 0, -4, 12, -9), ("OUT", ((F(0), F(1)), (F(0), F(1)))),
                         ("OUTSIDE", None), "OUT",
                         _finite("OUT", [((F(0), F(1)), (F(1), F(1)))] * 4, False)),
    # the x^4 coefficient of Phi^alpha vanishes identically
    "lc_zero_1": ((0, 1, -1, 0, 0), ("OUT", (HALF, (F(-3), F(1)))), ("OUTSIDE", None),
                  "OUT", _finite("OUT", _grid((F(-3), F(1))), False)),
    "lc_zero_2": ((0, -1, 1, 0, 0), ("OUT", (HALF, (F(3), F(1)))), ("OUTSIDE", None),
                  "OUT", _finite("OUT", _grid((F(3), F(1))), False)),
    "lc_zero_3": ((0, F(3, 2), F(-3, 2), 0, 0), ("OUT", (HALF, (F(-3), F(1)))), ("OUTSIDE", None),
                  "OUT", _finite("OUT", _grid((F(-3), F(1))), False)),
    # s (p_4 - p_(2,2)) + (p_2 - p_1^2)(a p_2 + b p_1^2): Phi^alpha is
    # alpha (1 - alpha)(x - y)^2 times a binary quadratic that is
    # indefinite only near alpha = 0 and 1, where no root of the leading
    # coefficient falls: only the subresultant coefficient cuts there
    "window_1": ((2, 0, 9, -23, 12), ("OUT", ((F(1, 64), F(63, 64)), (F(-17817, 17768), F(1)))),
                 ("OUTSIDE", None), "OUT",
                 [(4, "IN", None, False), (16, "IN", None, False),
                  (64, "OUT", ((F(1, 64), F(63, 64)), (F(-17817, 17768), F(1))), False),
                  (1000, "OUT", ((F(1, 1000), F(999, 1000)), (F(-1496753, 1005494), F(1))),
                   False)]),
    "window_2": ((5, 0, 5, -21, 11), ("OUT", ((F(1, 64), F(63, 64)), (F(-182049, 168872), F(1)))),
                 ("OUTSIDE", None), "OUT",
                 [(4, "IN", None, False), (16, "IN", None, False),
                  (64, "OUT", ((F(1, 64), F(63, 64)), (F(-182049, 168872), F(1))), False),
                  (1000, "OUT", ((F(1, 1000), F(999, 1000)), (F(-44964033, 40079912), F(1))),
                   False)]),
    # the degenerate forms of the benchmark's pinned (core) passes;
    # moved: limit witness weight 1/4 under the Yun projection, 1/2 now
    "bench_limit_sweep": ((F(-7, 8), F(-17, 8), F(-1, 8), F(5, 4), F(15, 8)),
                          ("OUT", (HALF, ONE_ZERO)), ("OUTSIDE", None),
                          "OUT", _finite("OUT", _grid(ONE_ZERO), False)),
    "bench_large_n": ((F(9, 4), F(-15, 2), F(-2), F(53, 4), F(-6)), ("IN", None),
                      ("BOUNDARY", DualFunctional(*[F(1, 16)] * 5)), "IN",
                      _finite("IN", None, False)),
}


def _generic_forms():
    rng = random.Random(83)
    return [tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(5)) for _ in range(12)]


def sturm_habicht_count(signs: list[int]) -> int:
    """Distinct real roots of a polynomial from the signs of its principal
    signed subresultant coefficients sRes_d, ..., sRes_0 (the first one
    nonzero): permanences minus variations, where consecutive nonzero
    entries k apart count (-1)^(k(k-1)/2) times their sign product if k
    is odd, and nothing if k is even (Basu, Pollack & Roy, ch. 4)."""
    total, prev, gap = 0, signs[0], 0
    for s in signs[1:]:
        gap += 1
        if s:
            if gap % 2:
                total += (-1) ** (gap * (gap - 1) // 2) * prev * s
            prev, gap = s, 0
    return total


class TestProjection:
    @pytest.mark.parametrize("coeffs", [c for c, *_ in DEGENERATE.values()] + _generic_forms()[:4])
    def test_subresultants_are_sylvester_determinants(self, coeffs):
        """sRes_j of P and P' is (-1)^((d-j)(d-j-1)/2) times the standard
        principal subresultant coefficient: the determinant of the rows
        x^(d-2-j) P, ..., P, x^(d-1-j) P', ..., P' on the columns
        x^(2d-2-j), ..., x^j (sympy, over Z[alpha])."""
        P = _x_poly(_alpha_coeffs(SymFormP(4, tuple(F(c) for c in coeffs), LIMIT)))
        d = len(P) - 1
        a, x = sympy.symbols("a x")
        P_expr = sum(sympy.Poly(c[::-1] or [0], a).as_expr() * x**i for i, c in enumerate(P))
        Q_expr = sympy.diff(P_expr, x)

        def row(expr, shift, cols):
            poly = sympy.Poly(sympy.expand(expr * x**shift), x)
            return [poly.coeff_monomial(x**e) for e in cols]

        sres = _signed_subresultants(P)
        assert len(sres) == d + 1
        assert sres[0] == P[-1]
        for j in range(d - 2, -1, -1):
            cols = range(2 * d - 2 - j, j - 1, -1)
            rows = [row(P_expr, s, cols) for s in range(d - 2 - j, -1, -1)]
            rows += [row(Q_expr, s, cols) for s in range(d - 1 - j, -1, -1)]
            ring = sympy.ZZ[a]
            psc = ring.to_sympy(
                DomainMatrix.from_list_sympy(len(rows), len(rows), rows).convert_to(ring).det()
            )
            ours = sympy.Poly(sres[d - j][::-1] or [0], a).as_expr()
            assert sympy.expand(ours - (-1) ** ((d - j) * (d - j - 1) // 2) * psc) == 0
        if d == 4 and sres[4]:
            # sRes_0 = Res(P, P') = lc(P) disc(P), as d = 4
            disc = sympy.discriminant(P_expr, x)
            lead = sympy.Poly(P[-1][::-1], a).as_expr()
            assert sympy.expand(sympy.Poly(sres[4][::-1], a).as_expr() - lead * disc) == 0

    @pytest.mark.parametrize("coeffs", [c for c, *_ in DEGENERATE.values()] + _generic_forms())
    def test_root_count_from_coefficient_signs(self, coeffs):
        """At random rational alpha with lc(P) != 0, the signs of the sRes
        count the real roots of P(alpha, .) by the Sturm-Habicht rule
        (``sturm_habicht_count``), which holds only with the signs of
        signed subresultants."""
        P = _x_poly(_alpha_coeffs(SymFormP(4, tuple(F(c) for c in coeffs), LIMIT)))
        sres = _signed_subresultants(P)
        rng = random.Random(str(coeffs))
        tested = 0
        for _ in range(40):
            alpha = F(rng.randint(-30, 30), rng.randint(1, 12))
            if _zsign(P[-1], alpha) == 0:
                continue
            spec = UniPoly([sum(c * alpha**k for k, c in enumerate(coef)) for coef in P])
            assert sturm_habicht_count([_zsign(c, alpha) for c in sres]) == count_real_roots(spec)
            tested += 1
        assert tested >= 30

    def test_root_count_on_sparse_polynomials(self):
        """Constant-coefficient P with coefficients in {-1, 0, 1, 2}: sparse
        polynomials such as x^4 + 1 and x^4 + x make principal
        coefficients vanish, so that nonzero entries lie two and three
        apart."""
        for d in range(1, 5):
            for low in itertools.product((-1, 0, 1, 2), repeat=d):
                for lead in (1, -2):
                    P = [[c] if c else [] for c in low] + [[lead]]
                    signs = [_zsign(c, F(0)) for c in _signed_subresultants(P)]
                    want = count_real_roots(UniPoly(list(low) + [lead]))
                    assert sturm_habicht_count(signs) == want, (low, lead)

    def test_generic_critical_polys_are_disc_and_lead(self):
        for coeffs in _generic_forms():
            cs = _alpha_coeffs(SymFormP(4, coeffs, LIMIT))
            polys = _critical_polys(cs)
            assert polys[0] == positivity.disc_binary_quartic(cs)
            assert polys[-1] == cs[0]

    @pytest.mark.parametrize("name", list(DEGENERATE))
    def test_degenerate_families_pinned(self, name):
        coeffs, nonneg, boundary, sos, finite = DEGENERATE[name]
        f = SymFormP(4, tuple(F(c) for c in coeffs), LIMIT)
        cs = _alpha_coeffs(f)
        assert cs[0].is_zero() or positivity.disc_binary_quartic(cs).is_zero()
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
