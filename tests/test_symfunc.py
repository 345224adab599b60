import copy
import gc
import itertools
import math
import pickle
import random
import sys
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import symquartic.positivity as positivity
import symquartic.sos as sos

from symquartic.algebra import MultiPoly, RatFunc
from symquartic.partitions import partitions_of
from symquartic.specht import brute_symmetrize
from symquartic.symfunc import (
    LIMIT,
    SymFormP,
    SymFuncM,
    _phi_alpha_ints,
    _phi_ints,
    evaluate,
    form_from_dict,
    m_to_p,
    p_to_m,
    per_form,
    phi_alpha_coeffs,
    restrict_alpha,
)

from conftest import big_fractions, coeff, kept_by, random_form
from test_oracles import phi


def random_point(rng, n):
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))


class TestSymFormP:
    def test_per_form_memo_is_per_object(self):
        calls = []

        @per_form
        def probe(f):
            calls.append(f)
            if len(calls) == 1:
                raise ValueError("first call fails")
            return len(calls)

        f = SymFormP(4, (1, 0, 0, 0, 0), 4)
        with pytest.raises(ValueError):
            probe(f)
        assert probe(f) == probe(f) == 2  # an exception is not kept, a result is
        g = SymFormP(4, f.coeffs, 4)
        assert (g, hash(g), repr(g)) == (f, hash(f), repr(f))
        assert probe(g) == 3
        assert probe(f.scale(1)) == 4
        assert probe(copy.copy(f)) == 5
        assert probe(pickle.loads(pickle.dumps(f))) == 6

    def test_coefficients_become_fractions(self):
        third = Fraction(1, 3)
        coeffs = (2, "-5/4", 0.5, third, True)
        f = SymFormP(4, coeffs, 5)
        assert f.coeffs == (2, Fraction(-5, 4), Fraction(1, 2), third, 1)
        assert all(type(c) is Fraction for c in f.coeffs)
        # kept only as integers over one scale in lowest terms: the form
        # keeps neither the input container nor its values
        assert (f.den, f.nums) == (12, (24, -15, 6, 4, 12)) and math.gcd(f.den, *f.nums) == 1
        assert not any(r is x for r in kept_by(f) for x in (coeffs, *coeffs))

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            SymFormP(4, (1, 2, 3), 4)

    def test_scope_validation(self):
        with pytest.raises(ValueError):
            SymFormP(4, (1, 0, 0, 0, 0), 3)
        SymFormP(4, (1, 0, 0, 0, 0), LIMIT)  # ok

    def test_form_from_dict(self):
        f = form_from_dict(4, {(2, 2): 1, (4,): Fraction(-1, 2)}, 5)
        assert coeff(f, (2, 2)) == 1
        assert coeff(f, (4,)) == Fraction(-1, 2)
        assert coeff(f, (3, 1)) == 0
        with pytest.raises(ValueError):
            form_from_dict(4, {(3, 2): 1}, 5)

    @pytest.mark.parametrize("degree", [70, 10**6])
    def test_degree_above_bound_refused_fast(self, degree):
        # the partitions of the degree are never listed: p(70) = 4 087 968
        for build in (
            lambda: form_from_dict(degree, {(degree,): 1}, LIMIT),
            lambda: SymFormP(degree, (), LIMIT),
        ):
            t0 = time.monotonic()
            with pytest.raises(ValueError, match="degree above 8"):
                build()
            assert time.monotonic() - t0 < 1


_CHOI_LAM = (8, Fraction(-160, 3), -8, 128, Fraction(-128, 3))
_EXAMPLE_6_10 = (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400))


def _decide_large_n(f):
    positivity.is_nonneg(f)
    positivity.is_strictly_positive(f)


def _decide_limit(f):
    positivity.is_nonneg_limit(f)
    sos.sos_membership_limit(f)
    positivity.boundary_status_limit(f)


def _decide_finite(f):
    positivity.is_nonneg(f)
    if sos.sos_membership(f).status == "OUT":
        assert sos.find_separating_functional(f) is not None


#: one coefficient value of each input type the constructor takes
_VALUE = st.one_of(
    st.integers(-(10**9), 10**9),
    st.fractions(max_denominator=10**9),
    st.fractions(max_denominator=10**9).map(str),
    st.floats(allow_nan=False, allow_infinity=False),
    big_fractions,
)
_COEFFS = st.one_of(st.tuples(*[_VALUE] * 5), st.just((0, "0", 0.0, Fraction(0), "-0/3")))
_SCOPES = st.sampled_from((4, 5, 10**40, LIMIT))


@per_form
def _kept_probe(f):
    return f.den


class TestIntegerStorage:
    """A form keeps its coefficients only as the integers ``nums`` over
    ``den``, and ``coeffs`` is built when read."""

    @pytest.mark.parametrize(
        "decide, scope",
        [(_decide_large_n, 64), (_decide_limit, LIMIT), (_decide_finite, 6)],
        ids=["large_n", "limit_sweep", "finite_scan"],
    )
    def test_decided_form_keeps_no_fraction(self, decide, scope):
        """Forms decided through each benchmark workload's query set refer
        to no Fraction and no tuple of Fractions, and leave the refcount of
        their input tuple where it was before they were built."""
        rng = random.Random(3)
        vectors = [_CHOI_LAM] if scope == 6 else [_CHOI_LAM, _EXAMPLE_6_10] + [
            random_form(rng, scope).coeffs for _ in range(6)
        ]
        for vector in vectors:
            coeffs = tuple(Fraction(c) for c in vector)
            before = sys.getrefcount(coeffs)
            f = SymFormP(4, coeffs, scope)
            decide(f)
            assert f._memo and sys.getrefcount(coeffs) == before
            for r in gc.get_referents(f):
                assert type(r) is not Fraction
                assert not (type(r) is tuple and any(type(x) is Fraction for x in r))

    @seed(20121205)
    @settings(max_examples=150, deadline=None)
    @given(coeffs=_COEFFS, scope=_SCOPES)
    def test_value_semantics(self, coeffs, scope):
        f = SymFormP(4, coeffs, scope)
        assert f.coeffs == tuple(Fraction(c) for c in coeffs)
        assert f.den > 0 and math.gcd(f.den, *f.nums) == 1
        g = SymFormP(4, f.coeffs, scope)
        assert (g, hash(g), repr(g)) == (f, hash(f), repr(f))
        assert _kept_probe(f) == f.den and f._memo
        for h in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert h is not f and (h, hash(h), repr(h)) == (f, hash(f), repr(f))
            assert h._memo == {}
        for name in ("degree", "den", "nums", "scope", "_memo", "coeffs"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(f, name)
        assert (g, hash(g), repr(g)) == (f, hash(f), repr(f))

    @seed(20121206)
    @settings(max_examples=150, deadline=None)
    @given(a=_COEFFS, b=_COEFFS, s=_VALUE, scope=_SCOPES, to=_SCOPES)
    def test_integer_constructor_is_the_fraction_route(self, a, b, s, scope, to):
        """``scale``, ``with_scope``, ``+`` and ``-`` build their forms
        from integers, equal to the forms built from Fractions."""
        f, g = SymFormP(4, a, scope), SymFormP(4, b, scope)
        s = Fraction(s)
        for got, want in (
            (f.scale(s), SymFormP(4, tuple(c * s for c in f.coeffs), scope)),
            (f + g, SymFormP(4, tuple(x + y for x, y in zip(f.coeffs, g.coeffs)), scope)),
            (f - g, SymFormP(4, tuple(x - y for x, y in zip(f.coeffs, g.coeffs)), scope)),
            (f.with_scope(to), SymFormP(4, f.coeffs, to)),
        ):
            assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))
            assert (got.den, got.nums) == (want.den, want.nums)
        assert f.with_scope(to).nums is f.nums
        for bad in (3, 0, "5"):
            with pytest.raises(ValueError):
                f.with_scope(bad)


class TestEvaluate:
    def test_all_ones_gives_coefficient_sum(self):
        rng = random.Random(1)
        for _ in range(10):
            coeffs = tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(5))
            f = SymFormP(4, coeffs, 6)
            assert evaluate(f, (1,) * 6) == sum(coeffs)

    def test_p4_at_unit_vector(self):
        f = form_from_dict(4, {(4,): 1}, 4)
        assert evaluate(f, (1, 0, 0, 0)) == Fraction(1, 4)

    def test_limit_scope_rejected(self):
        f = form_from_dict(4, {(4,): 1}, LIMIT)
        with pytest.raises(ValueError):
            evaluate(f, (1, 0, 0, 0))


class TestRoundTrips:
    def test_p_m_round_trip_degree_four(self):
        rng = random.Random(5)
        for n in range(4, 11):
            for _ in range(5):
                coeffs = tuple(
                    Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(5)
                )
                f = SymFormP(4, coeffs, n)
                assert m_to_p(p_to_m(f), n) == f

    def test_m_p_round_trip_low_degrees(self):
        for k in (1, 2, 3, 4):
            for mu in partitions_of(k):
                for n in (4, 6, 9):
                    g = SymFuncM({mu: RatFunc(1)})
                    f = m_to_p(g, n)
                    back = p_to_m(f).specialize(n)
                    assert back == g.specialize(n)

    def test_specialization_consistency(self):
        rng = random.Random(9)
        for n in (4, 5, 6):
            coeffs = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(5))
            f = SymFormP(4, coeffs, n)
            point = random_point(rng, n)
            assert p_to_m(f).evaluate(point, n) == evaluate(f, point)

    def test_m_evaluation_requires_n_coordinates(self):
        g = p_to_m(form_from_dict(4, {(2, 2): 1}, 4))
        assert g.evaluate((1, 2, 3, 4), 4) == Fraction(225, 4)
        for point in ((1, 2, 3), (1, 2, 3, 4, 5)):
            with pytest.raises(ValueError):
                g.evaluate(point, 4)

    def test_p_to_m_matches_brute_symmetrization(self):
        # the product of the power sums (1/n) sum_j x_j^a, symmetrized
        # monomial by monomial, for every lambda |- 5, 6 at n = 7
        n = 7
        for k in (5, 6):
            for lam in partitions_of(k):
                prod = MultiPoly.const(1, n)
                for a in lam:
                    psum = sum((MultiPoly.var(j, n, a) for j in range(n)), MultiPoly(n))
                    prod = prod * psum * Fraction(1, n)
                expected = brute_symmetrize(prod, n).specialize(n)
                assert p_to_m(form_from_dict(k, {lam: 1}, n)).specialize(n) == expected

    def test_limit_conversion_of_m_is_unit_p(self):
        for k in (2, 3, 4):
            for mu in partitions_of(k):
                f = m_to_p(SymFuncM({mu: RatFunc(1)}), LIMIT)
                for nu in partitions_of(k):
                    assert coeff(f, nu) == (1 if nu == mu else 0)


class TestSubstitutionIdentity:
    def test_phi_lambda_matches_two_value_evaluation(self):
        # restricting the weight to theta_1/n and evaluating at (x, y) equals
        # evaluating p_lambda at the point with theta_1 coordinates x and
        # theta_2 = n - theta_1 coordinates y
        # unit forms, then rational combinations (Phi^alpha is summed over
        # the common denominator of the coefficients)
        rng = random.Random(17)
        combos = [
            {lam: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for lam in partitions_of(4)}
            for _ in range(3)
        ]
        for n in range(4, 9):
            for coeffs in [{lam: 1} for lam in partitions_of(4)] + combos:
                f = form_from_dict(4, coeffs, n)
                for theta1 in range(n + 1):
                    h = restrict_alpha(f, Fraction(theta1, n))
                    x, y = random_point(rng, 2)
                    lhs = sum(c * x ** (4 - i) * y**i for i, c in enumerate(h))
                    point = (x,) * theta1 + (y,) * (n - theta1)
                    assert lhs == evaluate(f, point)

    def test_phi_alpha_coeffs_of_p22(self):
        # Phi^alpha of p_(2,2) is (alpha x^2 + (1-alpha) y^2)^2
        f = form_from_dict(4, {(2, 2): 1}, LIMIT)
        cs = phi_alpha_coeffs(f)
        alpha = Fraction(1, 3)
        values = tuple(c(alpha) for c in cs)
        expected = (
            alpha * alpha,
            Fraction(0),
            2 * alpha * (1 - alpha),
            Fraction(0),
            (1 - alpha) ** 2,
        )
        assert values == expected


@seed(3901)
@given(
    st.one_of(
        st.tuples(*[st.fractions(-6, 6, max_denominator=6)] * 5),
        st.tuples(*[big_fractions] * 5),
    ),
    st.integers(1, 10**6),
    st.integers(0, 10**6),
    st.fractions(0, 1, max_denominator=10**30),
)
@example((8, Fraction(-160, 3), -8, 128, Fraction(-128, 3)), 64, 32, Fraction(1, 3))
@example((0, 1, -1, 0, 0), 9, 4, Fraction(1, 3))
@settings(max_examples=120, deadline=None)
def test_one_phi_at_every_weight(coeffs, n, k, beta):
    """``_phi_ints`` at the integers (k, n - k, n) is n^4 times the
    alpha-polynomials of ``_phi_alpha_ints`` at k/n and n^4 den times
    Phi^(k/n) of ``test_oracles.phi``, and g^4 times itself
    at the reduced weight, g = gcd(k, n); it reverses under k <-> n - k;
    and ``restrict_alpha`` is the Fraction route through
    ``phi_alpha_coeffs``, at alpha in {0, 1}, at k/n and at a random alpha.
    The coefficients are small, or have about 4000 bits, and the
    alpha-polynomials stay all-int, over the scale den."""
    f = SymFormP(4, coeffs, LIMIT)
    scale, cs = _phi_alpha_ints(f)
    assert scale == f.den and all(type(c) is int for u in cs for c in u.coeffs)
    k %= n + 1
    alpha = Fraction(k, n)
    p, q = alpha.numerator, alpha.denominator
    h = _phi_ints(f.nums, k, n - k, n)
    assert all(type(c) is int for c in h)
    assert h == tuple(n**4 * u(alpha) for u in cs) == tuple(n**4 * f.den * c for c in phi(f, alpha))
    assert h == tuple((n // q) ** 4 * c for c in _phi_ints(f.nums, p, q - p, q))
    assert _phi_ints(f.nums, n - k, k, n) == h[::-1]
    for a in (Fraction(0), Fraction(1), alpha, beta):
        assert restrict_alpha(f, a) == tuple(u(a) for u in phi_alpha_coeffs(f))


def brick_permutation_count(mu, nu):
    """Number of permutations of the labeled bricks mu whose cycles have
    size-sums equal to the partition nu."""
    r = len(mu)
    count = 0
    for perm in itertools.permutations(range(r)):
        seen = [False] * r
        sizes = []
        for start in range(r):
            if seen[start]:
                continue
            total = 0
            i = start
            while not seen[i]:
                seen[i] = True
                total += mu[i]
                i = perm[i]
            sizes.append(total)
        if tuple(sorted(sizes, reverse=True)) == tuple(nu):
            count += 1
    return count


class TestBrickFormula:
    def test_transition_matches_brick_permutations(self):
        # m_mu = sum_nu (-1)^(r-l) ((n-r)!/n!) |BL(mu)^nu| n^l p_nu,
        # cross-checked against the set-partition transition
        for k in range(1, 7):
            for mu in partitions_of(k):
                r = len(mu)
                counts = {nu: brick_permutation_count(mu, nu) for nu in partitions_of(k)}
                for n in range(max(k, 4), 9):
                    f = m_to_p(SymFuncM({mu: RatFunc(1)}), n)
                    for nu, count in counts.items():
                        l = len(nu)
                        expected = (
                            Fraction((-1) ** (r - l))
                            * Fraction(math.factorial(n - r), math.factorial(n))
                            * count
                            * n**l
                        )
                        assert coeff(f, nu) == expected
