"""The self-checks of every certificate and functional that ``sos`` returns,
the constructors that build them once the check has passed, and the half
walk of the finite-n grid.

Each self-check condition is broken on its own, with every other one kept,
by rebinding a helper of ``sos`` or passing it wrong integers, and the
check must still raise AssertionError; the unbroken input must pass."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import symquartic.positivity as positivity
import symquartic.sos as sos
from symquartic.dualcone import DualFunctional, _gamma_gen_ints, _psd_ints, dual_membership
from symquartic.identities import BoundaryParams, boundary_family_form
from symquartic.sos import _NO_GEN, SosCertificate, _expansion, expand_certificate
from symquartic.symfunc import LIMIT, SymFormP, _phi_ints

from conftest import big_fractions

_EXAMPLE_6_10 = (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400))
_IDENTITY_BLOCKS = (1, 0, 1, 1, 0, 1)  # A = B = I over 1


def _form_of(entries, gamma, scope) -> SymFormP:
    """The form that the block map sends the entries over 1 to, at gamma."""
    gen_ints = _NO_GEN if gamma == 0 else _gamma_gen_ints(scope)
    return SymFormP._from_ints(4, *_expansion(1, entries, Fraction(gamma), gen_ints), scope)


def _checked_on(f, entries, gamma, gen_ints):
    """``sos._checked`` with ``_blocks_at_u`` rebound to return twice the
    entries, over 2 d k = 2 (d = k = 1), so the certificate's blocks are
    the entries over 1."""
    with mock.patch.object(sos, "_blocks_at_u", lambda e, k, u: tuple(2 * x for x in entries)):
        return sos._checked(f, 1, None, (1, 0, 1), Fraction(gamma), gen_ints)


def _u_shift(entries, t):
    """The blocks moved by t along the u-direction of the block map,
    (a11 + 2t, a12 - t, a22, b11 + 2t, b12, b22): the same form."""
    a11, a12, a22, b11, b12, b22 = entries
    return (a11 + 2 * t, a12 - t, a22, b11 + 2 * t, b12, b22)


# ---------------------------------------------------------------------------
# the certificate self-check, one condition at a time
# ---------------------------------------------------------------------------


class TestCertificateCheck:
    def test_unbroken_inputs_pass(self):
        """The inputs of the mutations below, unbroken, give the
        certificate the public constructor gives."""
        for gamma, scope in ((0, LIMIT), (0, 5), (Fraction(1, 3), 5), (2, 10**40)):
            f = _form_of(_IDENTITY_BLOCKS, gamma, scope)
            gen_ints = _NO_GEN if gamma == 0 else _gamma_gen_ints(scope)
            cert = _checked_on(f, _IDENTITY_BLOCKS, gamma, gen_ints)
            assert cert == SosCertificate(1, _IDENTITY_BLOCKS, Fraction(gamma), scope)
        f = SymFormP(4, _EXAMPLE_6_10, LIMIT)
        cert = sos._checked(f, *sos._gamma_zero_entries(f), sos._gamma_zero_step(f), Fraction(0), _NO_GEN)
        assert cert is not None and cert.is_valid() and expand_certificate(cert) == f

    @pytest.mark.parametrize("t, broken", [(1, "A"), (-1, "B")])
    def test_block_not_psd(self, t, broken):
        """Example 6.10 at LIMIT, its blocks moved by t along the
        u-direction, which keeps the block map: A is not PSD at t = 1, B at
        t = -1, and the other block stays PSD.  The step is read before
        ``_blocks_at_u`` is rebound, as ``_smallest_u`` reads it too."""
        f = SymFormP(4, _EXAMPLE_6_10, LIMIT)
        d, e = sos._gamma_zero_entries(f)
        step = sos._gamma_zero_step(f)
        blocks = sos._blocks_at_u(e, *step[:2])
        moved = _u_shift(blocks, t)
        den = 2 * d * step[0]
        assert _expansion(den, moved, Fraction(0), _NO_GEN) == _expansion(den, blocks, Fraction(0), _NO_GEN)
        assert _psd_ints(*moved[:3]) == (broken != "A") and _psd_ints(*moved[3:]) == (broken != "B")
        with mock.patch.object(sos, "_blocks_at_u", lambda e, k, u: moved):
            with pytest.raises(AssertionError):
                sos._checked(f, d, e, step, Fraction(0), _NO_GEN)

    def test_negative_gamma(self):
        """PSD blocks and the form they give at gamma = -1/3, n = 5."""
        gamma = Fraction(-1, 3)
        f = _form_of(_IDENTITY_BLOCKS, gamma, 5)
        with pytest.raises(AssertionError):
            _checked_on(f, _IDENTITY_BLOCKS, gamma, _gamma_gen_ints(5))

    def test_positive_gamma_at_limit(self):
        """PSD blocks and the form they give at gamma = 1/3 with the limit
        generator, at LIMIT, where gamma = 0 is forced."""
        gamma = Fraction(1, 3)
        f = _form_of(_IDENTITY_BLOCKS, gamma, LIMIT)
        with pytest.raises(AssertionError):
            _checked_on(f, _IDENTITY_BLOCKS, gamma, _gamma_gen_ints(LIMIT))

    @pytest.mark.parametrize("i", range(5))
    def test_wrong_generator_coefficient(self, i):
        """At gamma = 1/3, n = 5, a generator with coefficient i raised by
        1 moves coefficient i of the expansion alone."""
        gamma = Fraction(1, 3)
        f = _form_of(_IDENTITY_BLOCKS, gamma, 5)
        m, gen = _gamma_gen_ints(5)
        wrong = (m, tuple(g + (j == i) for j, g in enumerate(gen)))
        right = _expansion(1, _IDENTITY_BLOCKS, gamma, (m, gen))[1]
        moved = _expansion(1, _IDENTITY_BLOCKS, gamma, wrong)[1]
        assert [j for j in range(5) if right[j] != moved[j]] == [i]
        with pytest.raises(AssertionError):
            _checked_on(f, _IDENTITY_BLOCKS, gamma, wrong)

    @pytest.mark.parametrize("i", range(5))
    def test_wrong_form_coefficient(self, i):
        """The gamma = 0 certificate of example 6.10 at LIMIT, checked
        against the form with coefficient i raised by 1."""
        f = SymFormP(4, _EXAMPLE_6_10, LIMIT)
        other = SymFormP(4, tuple(c + (j == i) for j, c in enumerate(_EXAMPLE_6_10)), LIMIT)
        with pytest.raises(AssertionError):
            sos._checked(other, *sos._gamma_zero_entries(f), sos._gamma_zero_step(f), Fraction(0), _NO_GEN)

    @pytest.mark.parametrize("scope", [LIMIT, 5, 10**40])
    def test_decision_runs_the_check(self, scope):
        """A block entry shifted in ``_blocks_at_u`` (a22 + 1, so both
        blocks stay PSD and the class is unchanged) makes the decision on
        example 6.10 raise, through the certificate of its kept step."""
        original = sos._blocks_at_u

        def shifted(e, k, u):
            b = original(e, k, u)
            return b[:2] + (b[2] + 1,) + b[3:]

        f = SymFormP(4, _EXAMPLE_6_10, scope)
        decide = sos.sos_membership_limit if scope is LIMIT else sos.sos_membership
        with mock.patch.object(sos, "_blocks_at_u", shifted), pytest.raises(AssertionError):
            decide(f)
        assert decide(SymFormP(4, _EXAMPLE_6_10, scope)).status == "IN"


# ---------------------------------------------------------------------------
# the functional self-checks: separators and supporting functionals
# ---------------------------------------------------------------------------


class TestFunctionalCheck:
    def test_separator_passes(self):
        """The segment end (1, 0, 1, 0, 0) separates -p_(2^2), whose a22 is
        < 0."""
        f = SymFormP(4, (0, 0, -1, 0, 0), 5)
        ell = sos._separator(1, (1, 0, 1, 0, 0), f)
        assert ell == DualFunctional(1, (1, 0, 1, 0, 0))

    def test_separator_pairing_not_negative(self):
        """(1, 1, 1, 1, 1), the all-ones evaluation, is in the dual cone,
        but pairs to the coefficient sum 1 > 0 with p_(2^2)."""
        f = SymFormP(4, (0, 0, 1, 0, 0), 5)
        assert dual_membership(DualFunctional(1, (1, 1, 1, 1, 1)), 5)
        with pytest.raises(AssertionError):
            sos._separator(1, (1, 1, 1, 1, 1), f)

    def test_separator_not_in_dual_cone(self):
        """(0, 0, 1, 0, 0) pairs to -1 with -p_(2^2), but its hook block
        has y4 - y22 = -1 < 0."""
        f = SymFormP(4, (0, 0, -1, 0, 0), 5)
        assert not dual_membership(DualFunctional(1, (0, 0, 1, 0, 0)), 5)
        with pytest.raises(AssertionError):
            sos._separator(1, (0, 0, 1, 0, 0), f)

    def test_supporting_functional_passes(self):
        status, y = sos.sos_boundary(SymFormP(4, _EXAMPLE_6_10, LIMIT))
        assert status == "BOUNDARY" and y is not None and any(y.ys)

    @pytest.mark.parametrize(
        "ys, kept",
        [
            # zero; pairs to 0 and lies in the dual cone
            ((0, 0, 0, 0, 0), (False, True, True)),
            # the all-ones evaluation: in the dual cone, pairs to the
            # coefficient sum 1/16
            ((1, 1, 1, 1, 1), (True, False, True)),
            # pairs to c22 = 0, but its hook block has y4 - y22 = -1 < 0
            ((0, 0, 1, 0, 0), (True, True, False)),
        ],
    )
    def test_supporting_functional_broken(self, ys, kept):
        """Example 6.10 at LIMIT is a boundary form; with
        ``_supporting_functional`` rebound to return ys, which breaks one
        of y != 0, y(f) = 0 and dual membership (``kept`` says which
        hold), ``sos_boundary`` raises."""
        f = SymFormP(4, _EXAMPLE_6_10, LIMIT)
        y = DualFunctional(1, ys)
        assert (any(ys), sos._pairing_ints(y, f) == 0, dual_membership(y, LIMIT)) == kept
        with mock.patch.object(sos, "_supporting_functional", lambda cert: (1, ys)):
            with pytest.raises(AssertionError):
                sos.sos_boundary(f)


# ---------------------------------------------------------------------------
# the constructors: one reduction to lowest terms
# ---------------------------------------------------------------------------

_BIG = st.integers(-(2**2000), 2**2000)
_SMALL = st.integers(-9, 9)
_FACTOR = st.builds(lambda a, e: a * 3**e, st.integers(1, 2**64), st.integers(0, 300))


def _same(got, want) -> None:
    assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))
    assert vars(got) == vars(want) and type(got.den) is int


@st.composite
def _certificates(draw):
    """(den, entries, gamma, scope, g): PSD blocks (a^2 + t, a b, b^2 + t)
    and (c^2 + r, c d, d^2 + r) of small or about 4000-bit entries over
    den, gamma >= 0 (0 at LIMIT), and a common factor g."""
    ints = draw(st.sampled_from((_SMALL, _BIG)))
    a, b, c, d = draw(st.tuples(*[ints] * 4))
    t, r = draw(st.tuples(*[st.integers(0, 3)] * 2))
    scope = draw(st.sampled_from((4, 5, 10**40, LIMIT)))
    gamma = Fraction(0) if scope is LIMIT else draw(st.sampled_from((Fraction(0), Fraction(1, 3), draw(big_fractions) ** 2)))
    entries = (a * a + t, a * b, b * b + t, c * c + r, c * d, d * d + r)
    return draw(st.integers(1, 10**6)), entries, gamma, scope, draw(_FACTOR)


@given(_certificates())
@example((400, (625, -500, 400, 676, -520, 400), Fraction(0), LIMIT, 2**64 * 3**300))
@example((1, (0, 0, 0, 0, 0, 0), Fraction(1, 3), 5, 3**300))
@seed(3801)
@settings(max_examples=200, deadline=None)
def test_checked_certificate_is_the_constructors(data):
    """The constructor on the integers times a common factor g, given as a
    tuple or a list, and ``_checked`` on the blocks times g (with
    ``_blocks_at_u`` rebound), give the certificate of the unscaled
    integers: equal, with the same hash, repr and integer fields, in
    lowest terms."""
    den, entries, gamma, scope, g = data
    want = SosCertificate(den, entries, gamma, scope)
    assert want.den > 0 and gcd(want.den, *want.entries) == 1 and type(want.entries) is tuple
    _same(SosCertificate(g * den, tuple(g * x for x in entries), gamma, scope), want)
    _same(SosCertificate(g * den, [g * x for x in entries], gamma, scope), want)
    f = expand_certificate(want)
    gen_ints = _NO_GEN if gamma == 0 else _gamma_gen_ints(scope)
    blocks = tuple(2 * g * x for x in entries)
    with mock.patch.object(sos, "_blocks_at_u", lambda e, k, u: blocks):
        got = sos._checked(f, g * den, None, (1, 0, 1), gamma, gen_ints)  # blocks over 2 g den
    _same(got, want)
    assert type(got.entries) is tuple and got.is_valid() and expand_certificate(got) == f


@given(st.integers(1, 10**6), st.tuples(*[st.sampled_from((_SMALL, _BIG)).flatmap(lambda s: s)] * 5), _FACTOR)
@example(4096, (407613051, 124225401, 136866601, 38010051, 10556001), 2**64 * 3**300)
@example(1, (0, 0, 0, 0, 0), 3**300)
@seed(3802)
@settings(max_examples=200, deadline=None)
def test_functional_constructor_takes_lowest_terms(den, ys, g):
    """The constructor on integers with a common factor g, given as a
    tuple or a list, gives the functional of the rational values ys / den
    (``from_values``), in lowest terms."""
    want = DualFunctional.from_values(*(Fraction(y, den) for y in ys))
    assert want.den > 0 and gcd(want.den, *want.ys) == 1 and type(want.ys) is tuple
    scaled = tuple(g * y for y in ys)
    _same(DualFunctional(g * den, scaled), want)
    _same(DualFunctional(g * den, list(scaled)), want)


@pytest.mark.parametrize(
    "make, size",
    [(lambda den, xs: SosCertificate(den, xs, Fraction(0), 4), 6), (DualFunctional, 5)],
)
@pytest.mark.parametrize("den, extra", [(0, 0), (-1, 0), (-6, 0), (2, -1), (2, 1)])
def test_constructors_refuse_bad_integers(make, size, den, extra):
    """The constructors refuse den <= 0 and a wrong count with ValueError,
    and take the right ones."""
    with pytest.raises(ValueError):
        make(den, (2,) * (size + extra))
    assert make(2, (2,) * size).den == 1


# ---------------------------------------------------------------------------
# the half walk of the finite-n grid
# ---------------------------------------------------------------------------


def _walk_forms(rng: random.Random, n: int) -> list[SymFormP]:
    """Boundary-family members at n, most with p_4 lowered by 1/8, 1/64 or
    1/1024 (outside the limit cone), some unlowered (boundary, so
    ``is_strictly_positive`` walks them), and small random forms."""
    forms = []
    while len(forms) < 12:
        a, b, c, d = (Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(4))
        if not a or not (c or d):
            continue
        coeffs = list(boundary_family_form(BoundaryParams(a, b, c, d)).coeffs)
        coeffs[0] -= rng.choice((0, Fraction(1, 8), Fraction(1, 64), Fraction(1, 1024)))
        forms.append(SymFormP(4, tuple(coeffs), n))
    forms += [SymFormP(4, tuple(Fraction(rng.randint(-24, 24), 6) for _ in range(5)), n) for _ in range(4)]
    return forms


def test_half_walk_is_the_full_walk():
    """For every n in 4..55, odd and even, below ``_CELL_MIN_N``:
    ``is_nonneg`` (verdict and witness) and ``is_strictly_positive`` on
    the grid k <= n/2 equal their values on every interior k, with
    ``_grid`` rebound to the full walk, on fresh form objects.  The
    binary quartic at n - k is the one at k reversed, on these forms."""
    assert positivity._CELL_MIN_N > 55
    rng = random.Random(3803)
    walked = failed_late = 0
    for n in range(4, 56):
        for f in _walk_forms(rng, n):
            for k in range(1, n):
                assert _phi_ints(f.nums, n - k, k, n) == _phi_ints(f.nums, k, n - k, n)[::-1]
            half = positivity.is_nonneg(SymFormP(4, f.coeffs, n)), positivity.is_strictly_positive(SymFormP(4, f.coeffs, n))
            with mock.patch.object(positivity, "_grid", lambda g: range(1, g.scope)):
                full = positivity.is_nonneg(SymFormP(4, f.coeffs, n)), positivity.is_strictly_positive(SymFormP(4, f.coeffs, n))
            assert half == full
            if not sos._gamma_zero_class(f) and sum(sos._gamma_zero_entries(f)[1][2:]) >= 0:
                walked += 1
                failed_late += half[0].status == "OUT" and half[0].witness[0][0] * n > 1
    assert walked > 100 and failed_late > 50
