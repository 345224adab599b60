"""Exact scalar, univariate and small multivariate polynomial arithmetic.

Provides the building blocks used by every other module:

* ``UniPoly`` -- univariate polynomials whose coefficients live in any exact
  field (rationals, rational functions, algebraic number fields), with
  Euclidean division, gcd, squarefree (Yun) decomposition, Sturm sequences
  and certified real-root isolation.
* ``cells`` / ``Cells`` -- the cell engine shared by every one-parameter
  decision: the real roots of finitely many rational polynomials cut an
  interval into open cells, each with a rational sample, and each root
  (breakpoint) has an isolating interval and an irreducible owner factor.
* ``RatFunc`` -- the field of univariate rational functions over the
  rationals (used for coefficients depending on a symbol such as the
  variable count ``n`` or the weight ``alpha``).
* ``AlgebraicField`` / ``AlgElem`` -- exact arithmetic and sign
  determination in a real algebraic number field Q(theta).
* ``MultiPoly`` -- sparse multivariate polynomials over the rationals.
* ``SymMat2`` -- symmetric rational 2x2 matrices with an exact PSD test.
* binary-quartic helpers: discriminant, nonnegativity decision, negative
  point search.

Everything is immutable and pure; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sign_of(value) -> int:
    """Sign (-1, 0, +1) of a coefficient: a Fraction or anything with .sign()."""
    if isinstance(value, Fraction) or isinstance(value, int):
        return (value > 0) - (value < 0)
    return value.sign()


# ---------------------------------------------------------------------------
# Univariate polynomials over an exact field
# ---------------------------------------------------------------------------


class UniPoly:
    """Univariate polynomial; ``coeffs[i]`` is the coefficient of x**i.

    Coefficients may be ``Fraction`` (the common case) or elements of any
    exact field implementing +, -, *, /, bool() (False iff zero).  The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        other_p = UniPoly([Fraction(other)]) if other else UniPoly()
        return self.coeffs == other_p.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly()
            out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    prod = a * b
                    out[i + j] = prod if out[i + j] is None else out[i + j] + prod
            return UniPoly([c if c is not None else _ZERO for c in out])
        # scalar multiply
        return UniPoly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return UniPoly([other * c for c in self.coeffs])

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = UniPoly([self._one()]) if self.coeffs or k == 0 else UniPoly()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _one(self):
        if self.coeffs:
            c = self.coeffs[-1]
            return c / c
        return _ONE

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            if self.coeffs and not isinstance(self.coeffs[-1], Fraction):
                other = self.coeffs[-1] / self.coeffs[-1] * other
            return UniPoly([other]) if other else UniPoly()
        try:
            return UniPoly([other]) if other else UniPoly()
        except TypeError:
            return NotImplemented

    def scale(self, s) -> "UniPoly":
        return UniPoly([c * s for c in self.coeffs])

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        inv = self._one() / self.lead
        return self.scale(inv)

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs) if i > 0])

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return _ZERO
        return acc

    # -- Euclidean structure ----------------------------------------------

    def divmod(self, other: "UniPoly"):
        """Exact quotient and remainder over the coefficient field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quot = [None] * (dq + 1)
        dlead = other.lead
        for i in range(dq, -1, -1):
            c = rem[i + other.degree]
            if not c:
                quot[i] = c * 0
                continue
            q = c / dlead
            quot[i] = q
            for j, oc in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - q * oc
        return UniPoly(quot), UniPoly(rem[: other.degree])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor over the coefficient field.

    Raises ``ValueError`` when both arguments are zero (gcd undefined).
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def yun_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's squarefree decomposition: p = lead * prod D_k**k.

    Returns the list of pairs ``(D_k, k)`` with each ``D_k`` monic,
    squarefree, pairwise coprime and nonconstant.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    out: list[tuple[UniPoly, int]] = []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p.exact_div(a)
    c = dp.exact_div(a)
    k = 1
    while b.degree > 0:
        d = c - b.derivative()
        fac = poly_gcd(b, d) if not (b.is_zero() and d.is_zero()) else UniPoly([_ONE])
        if fac.degree > 0:
            out.append((fac, k))
        b2 = b.exact_div(fac)
        c = d.exact_div(fac)
        b = b2
        k += 1
    return out


# -- Sturm machinery over the rationals (or any ordered field) -------------


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(signs: Sequence[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _chain_variations_at(chain: Sequence[UniPoly], x) -> int:
    return _variations([_sign_of(q(x)) for q in chain])


def _chain_variations_at_inf(chain: Sequence[UniPoly], positive: bool) -> int:
    signs = []
    for q in chain:
        if q.is_zero():
            signs.append(0)
            continue
        s = _sign_of(q.lead)
        if not positive and q.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots of p (any exact ordered field coeffs)."""
    if p.is_zero():
        raise ValueError("zero polynomial has indeterminate root set")
    if p.degree == 0:
        return 0
    chain = sturm_chain(squarefree_part_field(p))
    return _chain_variations_at_inf(chain, False) - _chain_variations_at_inf(chain, True)


def squarefree_part_field(p: UniPoly) -> UniPoly:
    """Squarefree part over the coefficient field (monic)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return UniPoly([p._one()])
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g).monic()


def sturm_count(p: UniPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Requires ``p(lo) != 0``; raises ``ValueError("endpoint root")`` otherwise.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has indeterminate root set")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if p(lo) == 0:
        raise ValueError("endpoint root")
    if hi <= lo:
        return 0
    q = squarefree_part_field(p)
    extra = 0
    if q(hi) == 0:
        # deflate the rational root at hi, count it separately
        q = q.exact_div(UniPoly([-hi, _ONE]))
        extra = 1
        if q(lo) == 0 or q(hi) == 0:  # pragma: no cover - squarefree => simple
            raise ValueError("endpoint root")
    if q.degree <= 0:
        return extra
    chain = sturm_chain(q)
    return _chain_variations_at(chain, lo) - _chain_variations_at(chain, hi) + extra


def count_roots_open(p: UniPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p strictly inside (lo, hi).

    Unlike ``sturm_count``, endpoints are allowed to be roots (they are not
    counted)."""
    if p.is_zero():
        raise ValueError("zero polynomial has indeterminate root set")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if hi <= lo:
        return 0
    q = squarefree_part_field(p)
    while not q.is_zero() and q.degree > 0 and q(lo) == 0:
        q = q.exact_div(UniPoly([-lo, _ONE]))
    while not q.is_zero() and q.degree > 0 and q(hi) == 0:
        q = q.exact_div(UniPoly([-hi, _ONE]))
    if q.degree <= 0:
        return 0
    chain = sturm_chain(q)
    return _chain_variations_at(chain, lo) - _chain_variations_at(chain, hi)


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: all real roots of p lie in (-B, B)."""
    if p.is_zero() or p.degree <= 0:
        return _ONE
    lead = abs(p.lead)
    return _ONE + max(abs(c) for c in p.coeffs[:-1]) / lead


def isolate_real_roots(
    p: UniPoly, lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each containing exactly one real root of
    the squarefree polynomial p in the open interval (lo, hi).

    Intervals are sorted; a root that is itself rational may be reported as a
    degenerate point interval ``(r, r)``.  Non-degenerate intervals have
    endpoints that are not roots of p.  No squarefree part is taken here:
    callers pass squarefree products or Yun factors.
    """
    if p.is_zero():
        raise ValueError("indeterminate root set")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if hi <= lo or p.degree <= 0:
        return []
    q = p

    def count_open(a: Fraction, b: Fraction) -> int:
        return _chain_variations_at(chain, a) - _chain_variations_at(chain, b)

    def nonroot_point(a: Fraction, b: Fraction) -> Fraction:
        """A rational in (a,b) that is not a root of q."""
        x = (a + b) / 2
        step = (b - a) / 4
        while q(x) == 0:
            x = x + step
            step /= 2
        return x

    out: list[tuple[Fraction, Fraction]] = []

    def refine(a: Fraction, b: Fraction) -> None:
        """a, b non-roots of q; isolate all roots in (a, b)."""
        k = count_open(a, b)
        if k == 0:
            return
        if k == 1:
            # bisect once more so that the interval is away from other roots,
            # collapsing to a point interval when the root is hit exactly
            mid = (a + b) / 2
            if q(mid) == 0:
                out.append((mid, mid))
                return
            if count_open(a, mid) == 1:
                out.append((a, mid))
            else:
                out.append((mid, b))
            return
        mid = nonroot_point(a, b)
        refine(a, mid)
        refine(mid, b)

    # roots exactly at lo/hi are outside the open interval: deflate them so
    # that the Sturm chain endpoints are non-roots without skipping interior
    # roots
    a, b = lo, hi
    while q(a) == 0:
        q = q.exact_div(UniPoly([-a, _ONE]))
        if q.degree <= 0:
            return []
    while q(b) == 0:
        q = q.exact_div(UniPoly([-b, _ONE]))
        if q.degree <= 0:
            return []
    chain = sturm_chain(q)
    refine(a, b)
    out.sort()
    return out


def refine_root_interval(
    p: UniPoly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a root of p below the given width.

    The root must be simple (p changes sign across it), as every root of a
    squarefree p is; callers pass squarefree parts, Yun factors or minimal
    polynomials, so no squarefree part is taken here.
    """
    if lo == hi:
        return lo, hi
    slo = _sign_of(p(lo))
    if slo == 0 or p(hi) == 0:
        # endpoint became a root: collapse
        r = lo if slo == 0 else hi
        return r, r
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = _sign_of(p(mid))
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class Cells:
    """The cells into which the real roots of some rational polynomials cut
    an open interval (see ``cells``).

    ``product`` is the monic squarefree product of the polynomials.
    ``breakpoints`` are the sorted isolating intervals of its roots in the
    open interval: a point ``(r, r)`` at a rational root, otherwise an
    interval whose endpoints are not roots; they lie strictly apart and
    strictly inside the interval.  ``samples`` holds one rational in each
    of the ``len(breakpoints) + 1`` open cells, left to right.
    """

    product: UniPoly
    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    samples: tuple[Fraction, ...]

    def owners(self) -> list[UniPoly]:
        """The monic irreducible factor of ``product`` that vanishes at each
        breakpoint's root, in breakpoint order (factors over Q on demand)."""
        if not self.breakpoints:
            return []
        factors = [fac for fac in irreducible_factors(self.product) if fac.degree >= 1]

        def owns(fac: UniPoly, lo: Fraction, hi: Fraction) -> bool:
            # endpoints of a non-point breakpoint are not roots
            if lo == hi:
                return fac(lo) == 0
            return count_roots_open(fac, lo, hi) >= 1

        return [
            next(fac for fac in factors if owns(fac, lo, hi))
            for lo, hi in self.breakpoints
        ]


def cells(polys: Iterable[UniPoly], lo: Fraction, hi: Fraction) -> Cells:
    """Cut the open interval (lo, hi) at the real roots of the polynomials.

    Callers pass polynomials in a parameter across whose roots alone their
    answer can change.  The answer on [lo, hi] is then decided by testing
    ``lo``, ``hi``, one sample per open cell and each breakpoint (exactly,
    at the root of its owner factor, when its interval is not a point).
    When ``lo == hi`` the single sample is ``lo``.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    product = UniPoly([_ONE])
    for q in polys:
        product = product * squarefree_part_field(q)
    product = squarefree_part_field(product)

    # roots at exactly lo or hi do not subdivide (lo, hi) but would confuse
    # interval refinement when they coincide with an interval endpoint
    interior = product
    for r in (lo, hi):
        if interior(r) == 0:
            interior = interior.exact_div(UniPoly([-r, _ONE]))

    # refine so every non-point interval sits strictly inside (lo, hi) and
    # strictly to the right of the previous interval; the roots themselves
    # are strictly interior, so repeated halving always terminates
    breakpoints = []
    prev_hi = lo
    for a, b in isolate_real_roots(product, lo, hi):
        while a != b and (a <= prev_hi or b >= hi):
            a, b = refine_root_interval(interior, a, b, (b - a) / 2)
        breakpoints.append((a, b))
        prev_hi = b

    def middle(a: Fraction, b: Fraction) -> Fraction:
        return simplest_rational_between((3 * a + b) / 4, (a + 3 * b) / 4)

    samples = []
    prev_hi = lo
    for a, b in breakpoints:
        # sample the cell left of this root: after refinement prev_hi < a
        # for point intervals (a == b is the root itself, stay below it),
        # and a itself is a non-root strictly between the roots otherwise
        samples.append(middle(prev_hi, a) if a == b else a)
        prev_hi = b
    samples.append(middle(prev_hi, hi))
    return Cells(product, tuple(breakpoints), tuple(samples))


def resultant(f: UniPoly, g: UniPoly):
    """Resultant of two univariate polynomials over their coefficient field.

    Computed by the Euclidean recursion; returns a field element (zero when
    the polynomials share a root)."""
    if f.is_zero() or g.is_zero():
        return _ZERO
    if g.degree == 0:
        return g.coeffs[0] ** f.degree if f.degree > 0 else f._one()
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if f.degree < g.degree:
        sign = -1 if (f.degree * g.degree) % 2 else 1
        return sign * resultant(g, f)
    r = f % g
    if r.is_zero():
        return g.lead * 0
    sign = -1 if (f.degree * g.degree) % 2 else 1
    return sign * (g.lead ** (f.degree - r.degree)) * resultant(g, r)


# ---------------------------------------------------------------------------
# Rational functions in one symbol
# ---------------------------------------------------------------------------


class RatFunc:
    """Element of Q(t): quotient of two rational-coefficient polynomials.

    Normalized with a monic denominator and reduced to lowest terms.  Used
    for coefficients depending on the variable-count symbol ``n`` (and for
    computations over Q(alpha)).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = UniPoly([Fraction(num)])
        if den is None:
            den = UniPoly([_ONE])
        elif isinstance(den, (int, Fraction)):
            den = UniPoly([Fraction(den)])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = UniPoly([_ONE])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.lead
            if lead != 1:
                num = num.scale(_ONE / lead)
                den = den.scale(_ONE / lead)
        self.num = num
        self.den = den

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def t() -> "RatFunc":
        return RatFunc(UniPoly([_ZERO, _ONE]))

    @staticmethod
    def _co(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(other)
        if isinstance(other, UniPoly):
            return RatFunc(other)
        return None

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return (RatFunc(1) / self) ** (-k)
        out = RatFunc(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sign(self) -> int:  # pragma: no cover - not meaningful for symbols
        raise TypeError("rational functions have no intrinsic sign")

    # -- evaluation and limits --------------------------------------------

    def at(self, value) -> Fraction:
        """Evaluate at a numeric value of the symbol."""
        value = Fraction(value)
        d = self.den(value)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {value}")
        return self.num(value) / d

    def limit_at_infinity(self) -> Fraction:
        """Limit as the symbol tends to +infinity, or raise NoLimitError."""
        if not self:
            return _ZERO
        dn, dd = self.num.degree, self.den.degree
        if dn < dd:
            return _ZERO
        if dn == dd:
            return self.num.lead / self.den.lead
        raise NoLimitError("rational function diverges as the symbol grows")

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if not self:
            return _ZERO
        return self.num.coeffs[0] / self.den.coeffs[0]


class NoLimitError(ValueError):
    """Raised when an n-dependent coefficient has no finite limit."""


def ratfunc_falling_factorial(r: int) -> RatFunc:
    """n(n-1)...(n-r+1) as a RatFunc in the symbol n."""
    p = UniPoly([_ONE])
    for i in range(r):
        p = p * UniPoly([Fraction(-i), _ONE])
    return RatFunc(p)


# ---------------------------------------------------------------------------
# Real algebraic numbers
# ---------------------------------------------------------------------------


def irreducible_factors(p: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors of p over Q (without multiplicities).

    Delegates the factorization itself to sympy; everything downstream
    re-verifies products and degrees, so a factorization bug would surface
    as an exact-arithmetic failure rather than a silent wrong verdict.
    """
    import sympy

    if p.is_zero():
        raise ValueError("zero polynomial")
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(p.coeffs))
    _, factors = sympy.Poly(expr, x).factor_list()
    out = []
    for fac, _mult in factors:
        coeffs = fac.all_coeffs()[::-1]
        up = UniPoly([Fraction(c.p, c.q) for c in
                      (sympy.Rational(c) for c in coeffs)])
        out.append(up.monic())
    return out


class AlgebraicField:
    """The real algebraic number field Q(theta), theta a root of an
    irreducible rational polynomial isolated by a rational interval.

    Supports exact field arithmetic on elements (polynomials in theta) and
    exact sign determination by interval refinement.
    """

    def __init__(self, minpoly: UniPoly, lo: Fraction, hi: Fraction):
        self.minpoly = minpoly.monic()
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)
        if self.minpoly.degree < 1:
            raise ValueError("minimal polynomial must be nonconstant")
        # normalize: make sure the endpoints are not roots (unless degree 1)
        if self.minpoly.degree == 1:
            r = -self.minpoly.coeffs[0]
            self._lo = self._hi = r

    def elem(self, rep) -> "AlgElem":
        if isinstance(rep, (int, Fraction)):
            rep = UniPoly([Fraction(rep)])
        return AlgElem(self, rep % self.minpoly)

    def refine(self) -> None:
        if self._lo == self._hi:
            return
        lo, hi = refine_root_interval(
            self.minpoly, self._lo, self._hi, (self._hi - self._lo) / 2
        )
        self._lo, self._hi = lo, hi

    def sign_of_poly(self, rep: UniPoly) -> int:
        """Exact sign of rep(theta)."""
        rep = rep % self.minpoly
        if rep.is_zero():
            return 0
        if rep.degree == 0:
            return _sign_of(rep.coeffs[0])
        # rep(theta) != 0 because deg rep < deg minpoly and minpoly irreducible
        while True:
            lo, hi = self._lo, self._hi
            if lo == hi:
                return _sign_of(rep(lo))
            if rep(lo) != 0 and rep(hi) != 0:
                slo, shi = _sign_of(rep(lo)), _sign_of(rep(hi))
                if slo == shi and sturm_count(rep, lo, hi) == 0:
                    # rep has constant sign on [lo, hi] ∋ theta
                    return slo
            self.refine()


class AlgElem:
    """An element of an AlgebraicField, represented mod the minimal poly."""

    __slots__ = ("field", "rep")

    def __init__(self, field: AlgebraicField, rep: UniPoly):
        self.field = field
        self.rep = rep

    def _co(self, other):
        if isinstance(other, AlgElem):
            if other.field is not self.field:
                raise ValueError("mixed algebraic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.elem(other)
        return None

    def __bool__(self):
        return not self.rep.is_zero()

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.rep == o.rep

    def __hash__(self):
        return hash((id(self.field), self.rep))

    def __repr__(self):
        return f"AlgElem({list(self.rep.coeffs)!r})"

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.field, (self.rep + o.rep) % self.field.minpoly)

    __radd__ = __add__

    def __neg__(self):
        return AlgElem(self.field, -self.rep)

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.field, (self.rep * o.rep) % self.field.minpoly)

    __rmul__ = __mul__

    def inverse(self) -> "AlgElem":
        if not self:
            raise ZeroDivisionError("inverse of zero algebraic number")
        # extended Euclid: a*rep + b*minpoly = gcd = const (irreducible modulus)
        a, b = self.rep, self.field.minpoly
        s_prev, s_cur = UniPoly([_ONE]), UniPoly()
        while not b.is_zero():
            q, r = a.divmod(b)
            a, b = b, r
            s_prev, s_cur = s_cur, s_prev - q * s_cur
        if a.degree != 0:
            raise ZeroDivisionError("zero divisor (modulus not irreducible?)")
        inv = s_prev.scale(_ONE / a.coeffs[0])
        return AlgElem(self.field, inv % self.field.minpoly)

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.elem(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sign(self) -> int:
        return self.field.sign_of_poly(self.rep)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over Q
# ---------------------------------------------------------------------------


class MultiPoly:
    """Sparse multivariate polynomial over Q.

    ``terms`` maps exponent tuples (uniform length = nvars) to nonzero
    Fractions.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(expo) != nvars:
                        raise ValueError("exponent vector length mismatch")
                    clean[tuple(expo)] = c
        self.terms = clean

    @staticmethod
    def var(i: int, nvars: int, power: int = 1) -> "MultiPoly":
        expo = [0] * nvars
        expo[i] = power
        return MultiPoly(nvars, {tuple(expo): _ONE})

    @staticmethod
    def const(c, nvars: int) -> "MultiPoly":
        c = Fraction(c)
        if not c:
            return MultiPoly(nvars)
        return MultiPoly(nvars, {(0,) * nvars: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"

    def _co(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other, self.nvars)
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms.get(e, _ZERO) + c
        return MultiPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, _ZERO) + c1 * c2
        return MultiPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = MultiPoly.const(1, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        pt = [Fraction(x) for x in point]
        total = _ZERO
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total


# ---------------------------------------------------------------------------
# Symmetric 2x2 matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymMat2:
    """The symmetric matrix [[m11, m12], [m12, m22]] over Q."""

    m11: Fraction
    m12: Fraction
    m22: Fraction

    def det(self) -> Fraction:
        return self.m11 * self.m22 - self.m12 * self.m12

    def scale(self, s: Fraction) -> "SymMat2":
        s = Fraction(s)
        return SymMat2(self.m11 * s, self.m12 * s, self.m22 * s)


def psd2(m: SymMat2) -> bool:
    """Exact positive-semidefiniteness of a symmetric 2x2 matrix."""
    return m.m11 >= 0 and m.m22 >= 0 and m.det() >= 0


# ---------------------------------------------------------------------------
# Binary quartics
# ---------------------------------------------------------------------------
#
# A binary quartic h(x, y) is stored as a 5-tuple (a4, a3, a2, a1, a0) in
# descending x-order: h = a4 x^4 + a3 x^3 y + a2 x^2 y^2 + a1 x y^3 + a0 y^4.


def disc_binary_quartic(h: Sequence):
    """Discriminant of a binary quartic, classical normalization.

    Works generically: the five coefficients may be Fractions, UniPoly
    (e.g. polynomials in a weight parameter) or any commutative ring
    elements.  The normalization is the classical quartic discriminant
    Res(h, h')/a4 extended to the coefficient tuple, which satisfies
    disc(x^4 + p x^2 + q x + r) = classical and makes the factored form
    16 (alpha-1)^3 (c+d)^2 alpha^3 Q1 Q2^2 of the boundary-family
    discriminant hold exactly with constant 16.
    """
    a, b, c, d, e = h
    return (
        256 * (a * a * a) * (e * e * e)
        - 192 * (a * a) * b * d * (e * e)
        - 128 * (a * a) * (c * c) * (e * e)
        + 144 * (a * a) * c * (d * d) * e
        - 27 * (a * a) * (d * d * d * d)
        + 144 * a * (b * b) * c * (e * e)
        - 6 * a * (b * b) * (d * d) * e
        - 80 * a * b * (c * c) * d * e
        + 18 * a * b * c * (d * d * d)
        + 16 * a * (c * c * c * c) * e
        - 4 * a * (c * c * c) * (d * d)
        - 27 * (b * b * b * b) * (e * e)
        + 18 * (b * b * b) * c * d * e
        - 4 * (b * b * b) * (d * d * d)
        - 4 * (b * b) * (c * c * c) * e
        + (b * b) * (c * c) * (d * d)
    )


def _quartic_x_poly(h: Sequence[Fraction]) -> UniPoly:
    """h(x, 1) as a UniPoly in x (ascending coefficients)."""
    a4, a3, a2, a1, a0 = (Fraction(c) for c in h)
    return UniPoly([a0, a1, a2, a3, a4])


def binary_quartic_nonneg(h: Sequence[Fraction]) -> bool:
    """True iff h(x, y) >= 0 for all real (x, y); fully exact.

    Checks the point at infinity h(1,0), then decides nonnegativity of
    h(x, 1) via squarefree (Yun) decomposition: a sign change exists iff
    the leading behavior is negative/odd or some odd-multiplicity factor
    has a real root.
    """
    h = [Fraction(c) for c in h]
    p = _quartic_x_poly(h)
    if p.is_zero():
        return True
    if h[0] < 0:  # h(1, 0) < 0
        return False
    d = p.degree
    if d == 0:
        return p.coeffs[0] >= 0
    if d % 2 == 1:
        # odd x-degree: h(x,1) changes sign for large |x|
        return False
    if p.lead < 0:
        return False
    for fac, mult in yun_decomposition(p):
        if mult % 2 == 1 and count_real_roots(fac) > 0:
            return False
    return True


def binary_quartic_strictly_positive(h: Sequence[Fraction]) -> bool:
    """True iff h(x, y) > 0 for all real (x, y) != (0, 0)."""
    h = [Fraction(c) for c in h]
    if h[0] <= 0:  # h(1, 0) <= 0
        return False
    # degree 4 with a positive leading coefficient: positive iff no real root
    return count_real_roots(_quartic_x_poly(h)) == 0


def binary_quartic_negative_point(
    h: Sequence[Fraction],
) -> tuple[Fraction, Fraction] | None:
    """A rational point (x, y) with h(x, y) < 0, or None if h >= 0.

    The returned witness evaluates strictly negative exactly.
    """
    h = [Fraction(c) for c in h]
    if binary_quartic_nonneg(h):
        return None
    p = _quartic_x_poly(h)
    if h[0] < 0:
        return (_ONE, _ZERO)
    if p.is_zero():  # pragma: no cover - nonneg would have been True
        return None

    def val(x: Fraction) -> Fraction:
        return p(x)

    # search outward: leading behavior negative or odd degree
    bound = root_bound(p)
    for x in (bound, -bound):
        if val(x) < 0:
            return (x, _ONE)
    # a sign change exists at an odd-multiplicity root: bisect around it
    for fac, mult in yun_decomposition(p):
        if mult % 2 == 0:
            continue
        b = root_bound(fac)
        for lo, hi in isolate_real_roots(fac, -b, b):
            width = (hi - lo) if hi > lo else _ONE
            for _ in range(4096):
                lo2, hi2 = (
                    (lo - width, hi + width) if lo == hi else (lo, hi)
                )
                for x in (lo2, hi2):
                    if val(x) < 0:
                        return (x, _ONE)
                width /= 2
                if lo != hi:
                    lo, hi = refine_root_interval(fac, lo, hi, width)
    raise AssertionError("negative value certified but no witness found")


# ---------------------------------------------------------------------------
# Simplest rational in an interval
# ---------------------------------------------------------------------------


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator (then numerator) in [lo, hi]."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if hi < lo:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return _ZERO
    if hi < 0:
        return -simplest_rational_between(-hi, -lo)

    def rec(a: Fraction, b: Fraction) -> Fraction:
        ia = a.numerator // a.denominator  # floor
        if Fraction(ia + 1) <= b:
            # an integer lies in [a, b]: the smallest one >= a
            first = ia if a == ia else ia + 1
            return Fraction(first)
        frac_a = a - ia
        if frac_a == 0:
            return Fraction(ia)
        return ia + 1 / rec(1 / (b - ia), 1 / frac_a)

    return rec(lo, hi)
