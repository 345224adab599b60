"""The fixed cost of a verdict: the gamma = 0 step kept once per form
object and read by its certificate, the shared integer helpers, and the
import of ``positivity`` that ``sos`` binds once."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import symquartic.positivity as positivity
import symquartic.sos as sos
from symquartic.algebra import SymMat2, _lowest_terms, _over_lcm
from symquartic.identities import BoundaryParams, boundary_family_form
from symquartic.sos import (
    _NO_GEN,
    SosCertificate,
    _certificate,
    _gamma_zero_entries,
    expand_certificate,
    find_separating_functional,
    sos_boundary,
    sos_membership,
    sos_membership_limit,
)
from symquartic.symfunc import LIMIT, SymFormP

from conftest import big_fractions, kept_by

_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_EXAMPLE_6_10 = (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400))
_CHOI_LAM = (8, Fraction(-160, 3), -8, 128, Fraction(-128, 3))


@st.composite
def _step_forms(draw):
    """Box forms, certificate expansions, boundary-family members, integer
    forms whose gamma = 0 entries share a large factor, and forms with
    about 4000-bit coefficients, at n in {4, 5, 8, 10^40} or LIMIT."""
    scope = draw(st.sampled_from((4, 5, 8, 10**40, LIMIT)))
    kind = draw(st.sampled_from(("box", "certificate", "boundary", "common", "big")))
    if kind == "box":
        coeffs = draw(st.tuples(*[_SMALL] * 5))
    elif kind == "certificate":
        a, b, c, d = draw(st.tuples(*[_SMALL] * 4))
        t, r = draw(st.tuples(*[st.sampled_from((0, 0, Fraction(1, 3), 2))] * 2))
        gamma = 0 if scope is LIMIT else draw(st.sampled_from((0, Fraction(1, 3), 2)))
        A, B = SymMat2(a * a + t, a * b, b * b + t), SymMat2(c * c + r, c * d, d * d + r)
        coeffs = expand_certificate(SosCertificate.from_blocks(A, B, gamma, scope)).coeffs
    elif kind == "boundary":
        a = draw(_SMALL.filter(bool))
        c, d = draw(st.tuples(_SMALL, _SMALL).filter(any))
        coeffs = boundary_family_form(BoundaryParams(a, draw(_SMALL), c, d)).coeffs
    elif kind == "common":
        g = draw(st.integers(1, 2**64)) * 3 ** draw(st.integers(0, 300))
        coeffs = tuple(g * x for x in draw(st.tuples(*[st.integers(-9, 9)] * 5)))
    else:
        coeffs = draw(st.tuples(*[big_fractions] * 5))
    return SymFormP(4, tuple(Fraction(c) for c in coeffs), scope)


@given(_step_forms())
@example(SymFormP(4, _EXAMPLE_6_10, 10**40))
@example(SymFormP(4, _EXAMPLE_6_10, LIMIT))
@example(SymFormP(4, (3**200, 0, 3**200, 0, 0), 5))
@example(SymFormP(4, (0, 0, 1, -2, 1), 4))
@example(SymFormP(4, _CHOI_LAM, 8))
@seed(3612)
@settings(max_examples=300, deadline=None)
def test_kept_step_certificate_is_the_gcd_route_one(f):
    """The gamma = 0 certificate built from the step kept on the form, its
    blocks over 2 d k with no gcd taken, is the one ``_certificate`` builds
    on the same entries after their gcd: the same ``den``, ``entries`` and
    ``gamma``; both are None exactly when the class of gamma = 0 is 0, and
    the decision on a fresh form object returns that certificate."""
    kind = sos._gamma_zero_class(f)
    got = sos._gamma_zero_certificate(f)
    want = _certificate(f, *_gamma_zero_entries(f), Fraction(0), _NO_GEN)
    assert (got is None) == (want is None) == (kind == 0)
    if got is None:
        return
    assert (got.den, got.entries, got.gamma) == (want.den, want.entries, want.gamma)
    assert type(got.gamma) is Fraction and type(got.entries) is tuple
    assert got.is_valid() and expand_certificate(got) == f
    fresh = SymFormP(4, f.coeffs, f.scope)
    verdict = sos_membership_limit(fresh) if f.scope is LIMIT else sos_membership(fresh)
    assert verdict.status == "IN" and verdict.certificate == want


# ---------------------------------------------------------------------------
# the shared helpers
# ---------------------------------------------------------------------------


class TestLowestTerms:
    def test_coprime_path_returns_a_tuple(self):
        nums = [3, -4, 0, 5, 7, 1]
        den, got = _lowest_terms(10, nums, 6)
        assert (den, got) == (10, (3, -4, 0, 5, 7, 1)) and type(got) is tuple

    def test_common_factor_divided(self):
        g = 6**40
        den, got = _lowest_terms(10 * g, [3 * g, -4 * g, 0, 5 * g, 7 * g, g], 6)
        assert (den, got) == (10, (3, -4, 0, 5, 7, 1)) and type(got) is tuple

    @pytest.mark.parametrize("den, nums", [(0, (1, 0, 0)), (-1, (1, 2, 3)), (-2, (2, 4, 6)), (1, (1, 2)), (3, (1, 2, 3, 4))])
    def test_refuses_bad_input(self, den, nums):
        """den <= 0 or a wrong count raises ValueError, on the coprime path
        (gcd 1) and on the dividing one alike."""
        with pytest.raises(ValueError):
            _lowest_terms(den, nums, 3)

    def test_over_lcm_reads_ints_and_fractions(self):
        assert _over_lcm([1, Fraction(-1, 2), Fraction(2, 3), 0]) == (6, (6, -3, 4, 0))
        assert _over_lcm(iter([Fraction(5), -7])) == (1, (5, -7))


_ZERO_INPUTS = [(0, 0, 0, 0, 0), ("0", "0/3", "-0", "0", "0"), tuple(Fraction(0) for _ in range(5))]
_NONZERO_INPUTS = [
    (0, 0, 0, 0, 1),
    ("0", "1/3", "0", "0", "0"),
    (Fraction(0), Fraction(0), Fraction(-1, 10**40), Fraction(0), Fraction(0)),
    ("0", 0, Fraction(0), 0, "-2/7"),
    _CHOI_LAM,
]


class TestFormConstructor:
    @pytest.mark.parametrize("coeffs", _ZERO_INPUTS + _NONZERO_INPUTS)
    @pytest.mark.parametrize("scope", [4, 10**40, LIMIT])
    def test_is_zero_agrees_with_the_coefficients(self, coeffs, scope):
        f = SymFormP(4, coeffs, scope)
        assert f.is_zero() == all(c == 0 for c in f.coeffs) == (coeffs in _ZERO_INPUTS)

    @pytest.mark.parametrize("coeffs", _ZERO_INPUTS)
    @pytest.mark.parametrize("scope", [4, 6, 10**40, LIMIT])
    def test_zero_form_boundary_refused(self, coeffs, scope):
        with pytest.raises(ValueError):
            sos_boundary(SymFormP(4, coeffs, scope))

    def test_fraction_tuple_kept_only_as_integers(self):
        """A tuple of Fractions, like any other input, is kept only as the
        canonical integers den and nums: ``coeffs`` reads the same values
        back as a new tuple of Fractions, and the form keeps neither the
        input container nor its values."""
        coeffs = tuple(Fraction(c) for c in _CHOI_LAM)
        f = SymFormP(4, coeffs, 6)
        assert f.coeffs == coeffs and f.coeffs is not coeffs
        assert (f.den, f.nums) == (3, (24, -160, -24, 384, -128)) and gcd(f.den, *f.nums) == 1
        assert not any(r is x for r in kept_by(f) for x in (coeffs, *coeffs))
        for other in (list(coeffs), _CHOI_LAM, tuple(str(c) for c in coeffs)):
            g = SymFormP(4, other, 6)
            assert type(g.coeffs) is tuple and all(type(c) is Fraction for c in g.coeffs)
            assert g == f and (g.den, g.nums) == (f.den, f.nums) == (3, (24, -160, -24, 384, -128))
            assert g.coeffs == tuple(Fraction(c) for c in other)
            assert not any(r is x for r in kept_by(g) for x in (other, *other))


# ---------------------------------------------------------------------------
# sos binds positivity once, at the end of its import
# ---------------------------------------------------------------------------

_SRC = Path(__file__).resolve().parents[1] / "src"

_DECIDE_CHOI_LAM = """
import importlib, sys, types
first, package = sys.argv[1], sys.argv[2] == "package"
if not package:  # bypass the package's __init__, which imports positivity first
    pkg = types.ModuleType("symquartic")
    pkg.__path__ = [sys.argv[3]]
    sys.modules["symquartic"] = pkg
importlib.import_module("symquartic." + first)
loaded = [name for name in sys.modules if name in ("symquartic.sos", "symquartic.positivity")]
from fractions import Fraction
import symquartic.sos as sos
f = sos.SymFormP(4, (8, Fraction(-160, 3), -8, 128, Fraction(-128, 3)), 6)
ell = sos.find_separating_functional(f)
print(loaded, sos.sos_membership(f).status, f"y1111={ell.y1111}")
"""


@pytest.mark.parametrize("package", ["package", "bare"])
@pytest.mark.parametrize("first", ["sos", "positivity"])
def test_either_module_imports_first(first, package):
    """A fresh interpreter that imports ``symquartic.sos`` or
    ``symquartic.positivity`` first decides Choi-Lam at n = 6 SOS OUT, with
    the pinned separator; without the package's ``__init__``, which loads
    positivity first, the named module is really loaded first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DECIDE_CHOI_LAM, first, package, str(_SRC / "symquartic")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # sys.modules lists a module when its import finishes, so the one
    # loaded first is listed last; the package's __init__ loads positivity
    loaded = first if package == "bare" else "positivity"
    order = [f"symquartic.{name}" for name in ("sos", "positivity") if name != loaded] + [f"symquartic.{loaded}"]
    assert proc.stdout.strip() == f"{order} OUT y1111=10556001/4096"


def test_rebound_positivity_functions_see_the_calls(monkeypatch):
    """Wrappers rebound on ``positivity.is_nonneg`` and
    ``positivity.kept_nonneg``, as ``bench/tracer.py`` binds its tracing
    wrappers, see the calls from ``find_separating_functional`` and
    ``sos_membership``: sos looks them up at call time."""
    calls = []
    for name in ("is_nonneg", "kept_nonneg"):

        def counted(f, _name=name, _real=getattr(positivity, name)):
            calls.append(_name)
            return _real(f)

        monkeypatch.setattr(positivity, name, counted)
    f = SymFormP(4, _CHOI_LAM, 6)
    ell = find_separating_functional(f)
    assert ell is not None and ell.y1111 == Fraction(10556001, 4096)
    assert calls == ["is_nonneg"]
    assert sos_membership(f).status == "OUT"
    assert calls == ["is_nonneg", "kept_nonneg"]
