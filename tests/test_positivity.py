import random
from fractions import Fraction

import pytest

import symquartic.positivity as positivity
from symquartic.algebra import binary_quartic_nonneg, binary_quartic_strictly_positive
from symquartic.positivity import (
    boundary_status_limit,
    is_nonneg,
    is_nonneg_limit,
    is_strictly_positive,
)
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
    def test_p22_interior(self):
        f = form_from_dict(4, {(2, 2): 1}, LIMIT)
        assert boundary_status_limit(f).status == "INTERIOR"

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
        # the known double roots sit at 1/2 +- (7/298) sqrt(149)
        f = SymFormP(
            4,
            (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400)),
            LIMIT,
        )
        verdict = boundary_status_limit(f)
        assert verdict.status == "BOUNDARY"
        lo, hi = verdict.alpha_witness
        root_sq = Fraction(149) * Fraction(7, 298) ** 2
        matched = False
        for sign in (-1, 1):
            # check (candidate - 1/2)^2 == root_sq for some value in [lo, hi]
            a, b = sorted(((lo - Fraction(1, 2)) * sign, (hi - Fraction(1, 2)) * sign))
            if a * abs(a) <= root_sq <= b * abs(b):
                matched = True
        assert matched
