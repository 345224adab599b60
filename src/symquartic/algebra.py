"""Exact scalar, univariate and small multivariate polynomial arithmetic.

Provides the building blocks used by every other module:

* ``UniPoly`` -- univariate polynomials with rational (``int`` or
  ``Fraction``) coefficients, with Euclidean division, gcd, squarefree
  (Yun) decomposition, certified real-root isolation and counting, and
  rational roots.
* the integer core behind them: a rational polynomial is carried as the
  primitive integer polynomial that is a positive multiple of it, a list
  of ints.  Roots, multiplicities and signs do not see a positive factor,
  so gcds and squarefree parts (primitive PRS), Yun decompositions, root
  counting and isolation run on ints, and the sign at a rational p/q is
  that of the homogeneous integer Horner value sum c_i p^i q^(d-i).  The
  one root engine is Descartes (Vincent-Collins-Akritas) bisection on
  integer Taylor shifts: it isolates and counts roots, finds rational
  roots and the negative points of binary quartics.  ``Fraction`` is
  built only where a ``UniPoly`` is handed out.
* ``cells`` / ``Cells`` -- the cell engine shared by every one-parameter
  decision: the real roots of finitely many rational polynomials cut an
  interval into open cells, each with a rational sample, and each root
  (breakpoint) has an isolating interval on their squarefree product.
* ``AlgebraicField`` -- the sign of a rational polynomial at a real root
  isolated by a rational interval: a gcd and a Descartes count on integer
  polynomials.  No decision calls it; it stays as a test reference.
* ``RatFunc`` -- the field of univariate rational functions over the
  rationals, a scalar for coefficients depending on the variable-count
  symbol ``n``.
* ``MultiPoly`` -- sparse multivariate polynomials over the rationals.
* ``SymMat2`` -- symmetric rational 2x2 matrices with an exact PSD test.
* binary-quartic helpers: the invariants (27 Delta, P, D, R), written
  once over ints and integer polynomials; from them the discriminant, the
  closed-form nonnegativity and strict-positivity tests (Rees 1922) and
  the polynomials in a parameter across whose roots alone those tests
  can change their verdict; negative point search.

Everything is immutable and pure; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Univariate polynomials over the rationals
# ---------------------------------------------------------------------------


class UniPoly:
    """Univariate polynomial; ``coeffs[i]`` is the coefficient of x**i.

    Coefficients are ``int`` or ``Fraction``, both exact: division and the
    root machinery never leave the rationals.  The zero polynomial has an
    empty coefficient tuple and degree -1.
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
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return UniPoly(out)
        # scalar multiply
        return UniPoly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return UniPoly([other * c for c in self.coeffs])

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = UniPoly([_ONE]) if self.coeffs or k == 0 else UniPoly()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly([Fraction(other)])
        return NotImplemented

    def scale(self, s) -> "UniPoly":
        return UniPoly([c * s for c in self.coeffs])

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        return self.scale(_ONE / self.lead)

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
        """Exact quotient and remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quot = [None] * (dq + 1)
        dlead = other.lead
        if isinstance(dlead, int):
            dlead = Fraction(dlead)
        for i in range(dq, -1, -1):
            c = rem[i + other.degree]
            if not c:
                quot[i] = _ZERO
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


# -- the integer core --------------------------------------------------------
#
# A "zpoly" is a list of ints, ascending like ``UniPoly.coeffs``, with no
# trailing zero.  ``_zpoly`` turns a rational polynomial into the primitive
# zpoly that is a positive multiple of it; every other helper keeps its
# results positive multiples of the exact rational answer (and primitive
# where it says so), so signs are read off the ints directly.


def _zsplit(coeffs: Sequence) -> tuple[list[int], int, int]:
    """(z, g, den) with the polynomial of these rational coefficients equal
    to (g / den) * z, z primitive and g, den positive (z = [] and g = 0 for
    zero)."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    den = lcm(*(c.denominator for c in cs))
    z = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*z)
    return ([c // g for c in z] if g > 1 else z), g, den


def _zpoly(coeffs: Sequence) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of the
    polynomial with these rational coefficients (``[]`` for zero)."""
    return _zsplit(coeffs)[0]


def _monic(z: list[int]) -> UniPoly:
    """The monic rational polynomial of a nonzero zpoly."""
    lead = z[-1]
    return UniPoly([Fraction(c, lead) for c in z])


def _zprim(z: list[int]) -> list[int]:
    """Divide out the (positive) content."""
    g = gcd(*z)
    return [c // g for c in z] if g > 1 else z


def _zmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ztrim(z: list[int]) -> list[int]:
    while z and not z[-1]:
        z.pop()
    return z


def _zsub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return _ztrim([x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def _zderiv(z: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(z) if i]


def _zrem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b over Q (b nonzero).

    Each reduction step scales the partial remainder by |lc(b)|/g and
    subtracts a multiple of b; when a step cancels more than the leading
    term, fewer steps run than deg a - deg b + 1, which is why the scale is
    kept positive per step instead of fixing the sign of lc(b)**k after.
    """
    lb = b[-1]
    if lb < 0:
        b = [-c for c in b]
        lb = -lb
    db = len(b) - 1
    r = list(a)
    while len(r) > db:
        lr = r[-1]
        shift = len(r) - 1 - db
        g = gcd(lr, lb)
        m, lr = lb // g, lr // g
        head = r[:shift] if m == 1 else [m * c for c in r[:shift]]
        r = _ztrim(head + [m * x - lr * y for x, y in zip(r[shift:-1], b)])
    return r


def _zquo(a: list[int], b: list[int]) -> list[int]:
    """The exact quotient a / b for a zpoly b that divides a over Q and is
    primitive, so that the quotient has integer coefficients (Gauss)."""
    lb, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db]
        if c:
            c, m = divmod(c, lb)
            if m:
                raise ValueError("inexact polynomial division")
            q[i] = c
            for j in range(db):
                r[i + j] -= c * b[j]
    if any(r[:db]):
        raise ValueError("inexact polynomial division")
    return q


def _zpositive(z: list[int]) -> list[int]:
    return z if z[-1] > 0 else [-c for c in z]


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient (primitive PRS);
    at least one argument is nonzero."""
    if len(a) < len(b):
        a, b = b, a
    a = _zprim(a)
    while b:
        b = _zprim(b)
        a, b = b, _zrem(a, b)
    return _zpositive(a)


def _zsqf(z: list[int]) -> list[int]:
    """Primitive squarefree part, positive leading coefficient."""
    if len(z) <= 2:
        return _zpositive(_zprim(z))
    g = _zgcd(z, _zderiv(z))
    return _zpositive(_zquo(z, g) if len(g) > 1 else z)


def _zyun(z: list[int]) -> list[tuple[list[int], int]]:
    """Yun's decomposition of a primitive zpoly with a positive leading
    coefficient: pairs (D_k, k), D_k primitive, squarefree, pairwise coprime
    and nonconstant, with z = prod D_k**k.  The pair b, c is divided by
    the same gcds, so it stays one common multiple of its rational
    counterpart and c - b' is exact."""
    dz = _zderiv(z)
    a = _zgcd(z, dz)
    b, c = _zquo(z, a), _zquo(dz, a)
    out = []
    k = 1
    while len(b) > 1:
        d = _zsub(c, _zderiv(b))
        fac = _zgcd(b, d)
        if len(fac) > 1:
            out.append((fac, k))
            b, c = _zquo(b, fac), _zquo(d, fac)
        else:
            c = d
        k += 1
    return out


def _zsign(z: list[int], x: Fraction) -> int:
    """The sign of z(x), x = p/q, from the homogeneous integer Horner sum
    q**deg(z) * z(p/q) = sum c_i p^i q^(d-i)."""
    p, q = x.numerator, x.denominator
    acc = 0
    qk = 1
    for c in reversed(z):
        acc = acc * p + c * qk
        qk *= q
    return (acc > 0) - (acc < 0)


# -- public squarefree functions --------------------------------------------


def yun_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's squarefree decomposition: p = lead * prod D_k**k.

    Returns the list of pairs ``(D_k, k)`` with each ``D_k`` monic,
    squarefree, pairwise coprime and nonconstant.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    return [(_monic(fac), k) for fac, k in _zyun(_zpositive(_zpoly(p.coeffs)))]


def squarefree_part_field(p: UniPoly) -> UniPoly:
    """Squarefree part (monic)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return _monic(_zsqf(_zpoly(p.coeffs)))


def _zroot_bound(z: list[int]) -> Fraction:
    """Cauchy bound of a zpoly: all real roots lie in (-B, B)."""
    if len(z) <= 1:
        return _ONE
    return _ONE + Fraction(max(abs(c) for c in z[:-1]), abs(z[-1]))


def _ztaylor(z: list[int], a: int = 1) -> list[int]:
    """z(t + a) for an integer a.  Stored descending, one Taylor-shift pass
    is a running (Horner) sum over a prefix, so the d passes run in
    ``accumulate``."""
    r = z[::-1]
    step = None if a == 1 else (lambda s, c: s * a + c)
    for m in range(len(r), 1, -1):
        r[:m] = accumulate(r[:m], step)
    r.reverse()
    return r


def _descartes01(z: list[int]) -> int:
    """The sign variations of (t + 1)^d z(1 / (t + 1)): by Descartes' rule
    an upper bound on the number of roots of z in the open interval (0, 1),
    of the same parity, so exact when it is 0 or 1.  Roots at 0 or 1 are
    not counted."""
    cs = [c for c in _ztaylor(z[::-1]) if c]
    return sum(1 for a, b in zip(cs, cs[1:]) if (a > 0) != (b > 0))


def _zonto01(q: list[int], lo: Fraction, hi: Fraction) -> tuple[list[int], int, int, int]:
    """(z, a, w, den) with x = (a + w t) / den mapping t in (0, 1) onto
    (lo, hi), lo < hi, over the common denominator den, and z the primitive
    zpoly that is a positive multiple of q(x(t)): the roots of q in
    (lo, hi) are those of z in (0, 1), and z(0), z(1) have the signs of
    q(lo), q(hi)."""
    d = len(q) - 1
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    w = hi.numerator * (den // hi.denominator) - a
    z = [c * den ** (d - i) for i, c in enumerate(q)]  # den^d q(y / den)
    if a:
        z = _ztaylor(z, a)
    return _zprim([c * w**i for i, c in enumerate(z)]), a, w, den


def isolate_real_roots(
    p: UniPoly, lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each containing exactly one real root of
    the squarefree rational polynomial p in the open interval (lo, hi).

    Intervals are sorted; a root that is itself rational may be reported as a
    degenerate point interval ``(r, r)``.  Non-degenerate intervals have
    endpoints that are not roots of p.  No squarefree part is taken here:
    callers pass squarefree parts and products.

    Descartes (Vincent-Collins-Akritas) bisection on integer polynomials:
    (lo, hi) is mapped once onto (0, 1) over a common denominator, and a
    node z of the bisection tree (the roots of p in a dyadic subinterval,
    as roots of z in (0, 1)) has the halves 2^d z(t/2) and its Taylor shift
    by 1.  A node is dropped when ``_descartes01`` is 0 and accepted when it
    is 1 and neither end of the node is a root of p (z(0), z(1) nonzero); a
    root at a midpoint is emitted as a point interval.  ``Fraction`` is
    built only for the output.
    """
    if p.is_zero():
        raise ValueError("indeterminate root set")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if hi <= lo or p.degree <= 0:
        return []
    d = p.degree
    z, a, w, den = _zonto01(_zpoly(p.coeffs), lo, hi)

    # a node (z, k, j) stands for (x(k, j), x(k, j + 1)), x(k, j) the
    # image of t = j / 2^k; an explicit stack, as close roots need deep
    # bisection
    ends: list[tuple[int, int, int]] = []
    todo = [(z, 0, 0)]
    while todo:
        z, k, j = todo.pop()
        count = _descartes01(z)
        if count == 0:
            continue
        if count == 1 and z[0] and sum(z):
            ends.append((k, j, j + 1))
            continue
        left = [c << (d - i) for i, c in enumerate(z)]  # 2^d z(t / 2)
        right = _ztaylor(left)
        if not right[0]:  # z(1/2) = 0
            ends.append((k + 1, 2 * j + 1, 2 * j + 1))
        todo += [(right, k + 1, 2 * j + 1), (left, k + 1, 2 * j)]

    def x(k: int, j: int) -> Fraction:
        return Fraction((a << k) + w * j, den << k)

    return sorted((x(k, i), x(k, j)) for k, i, j in ends)


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots of p."""
    if p.is_zero():
        raise ValueError("zero polynomial has indeterminate root set")
    z = _zsqf(_zpoly(p.coeffs))
    bound = _zroot_bound(z)
    return len(isolate_real_roots(UniPoly(z), -bound, bound))


def count_roots_open(p: UniPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of the rational polynomial p strictly
    inside (lo, hi).

    Endpoints are allowed to be roots (they are not counted)."""
    if p.is_zero():
        raise ValueError("zero polynomial has indeterminate root set")
    return len(isolate_real_roots(UniPoly(_zsqf(_zpoly(p.coeffs))), lo, hi))


def refine_root_interval(
    p: UniPoly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a root of the rational polynomial p
    below the given width.

    The root must be simple (p changes sign across it), as every root of a
    squarefree p is; callers pass squarefree parts and products, so no
    squarefree part is taken here.
    """
    if lo == hi:
        return lo, hi
    z = _zpoly(p.coeffs)
    slo = _zsign(z, lo)
    if slo == 0 or _zsign(z, hi) == 0:
        # endpoint became a root: collapse
        r = lo if slo == 0 else hi
        return r, r
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = _zsign(z, mid)
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def rational_roots(p: UniPoly, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """The distinct rational roots of a nonzero rational polynomial in the
    open interval (lo, hi), sorted.

    By the rational root theorem a root a/b in lowest terms of the
    primitive integer squarefree part z has b | lc(z), so every rational
    root lies on the grid (1/lc(z)) Z.  Each isolating interval is refined
    below that spacing and the one grid point it can hold is tested
    exactly; no integer is factored.
    """
    if p.is_zero():
        raise ValueError("indeterminate root set")
    z = _zsqf(_zpoly(p.coeffs))
    if len(z) <= 1:
        return []
    lead, poly = z[-1], UniPoly(z)
    out = []
    for a, b in isolate_real_roots(poly, lo, hi):
        if a != b:
            a, b = refine_root_interval(poly, a, b, Fraction(1, 2 * lead))
        r = Fraction(-((-a.numerator * lead) // a.denominator), lead)  # ceil
        if r <= b and _zsign(z, r) == 0:
            out.append(r)
    return out


@dataclass(frozen=True)
class Cells:
    """The cells into which the real roots of some rational polynomials cut
    an open interval (see ``cells``).

    ``product`` is the squarefree product of the polynomials, as the
    primitive integer polynomial with a positive leading coefficient.
    ``breakpoints`` are the sorted isolating intervals of its roots in the
    open interval: a point ``(r, r)`` at a rational root, otherwise an
    interval whose endpoints are not roots; they lie strictly apart and
    strictly inside the interval.  ``samples`` holds one rational in each
    of the ``len(breakpoints) + 1`` open cells, left to right.
    """

    product: UniPoly
    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    samples: tuple[Fraction, ...]


def cells(polys: Iterable[UniPoly], lo: Fraction, hi: Fraction) -> Cells:
    """Cut the open interval (lo, hi) at the real roots of the rational
    polynomials.

    Callers pass polynomials in a parameter across whose roots alone their
    answer can change.  The answer on [lo, hi] is then decided by testing
    ``lo``, ``hi``, one sample per open cell and each breakpoint.  A point
    breakpoint is its own rational root; the caller reads the root of any
    other off its interval (``sos`` needs only the rational ones, which
    ``rational_roots`` on the interval finds).  When ``lo == hi`` the
    single sample is ``lo``.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    product = [1]  # the lcm of the squarefree parts: squarefree itself
    for q in polys:
        if q.is_zero():
            raise ValueError("zero polynomial")
        part = _zsqf(_zpoly(q.coeffs))
        common = _zgcd(product, part)
        product = _zmul(product, _zquo(part, common) if len(common) > 1 else part)

    # refine so every non-point interval sits strictly inside (lo, hi) and
    # strictly to the right of the previous interval; the roots themselves
    # are strictly interior, so repeated halving always terminates, and an
    # accepted interval never ends at a root, even at a root at lo or hi
    breakpoints = []
    prev_hi = lo
    product_poly = UniPoly(product)
    for a, b in isolate_real_roots(product_poly, lo, hi):
        while a != b and (a <= prev_hi or b >= hi):
            a, b = refine_root_interval(product_poly, a, b, (b - a) / 2)
        breakpoints.append((a, b))
        prev_hi = b

    samples = []
    prev_hi = lo
    for a, b in breakpoints:
        # sample the cell left of this root: after refinement prev_hi < a
        # for point intervals (a == b is the root itself, stay below it),
        # and a itself is a non-root strictly between the roots otherwise
        samples.append(simplest_in_middle(prev_hi, a) if a == b else a)
        prev_hi = b
    samples.append(simplest_in_middle(prev_hi, hi))
    return Cells(product_poly, tuple(breakpoints), tuple(samples))


def resultant(f: UniPoly, g: UniPoly):
    """Resultant of two rational polynomials (zero when they share a root).

    Computed by the Euclidean recursion.  No decision calls it: the
    finite-n alpha-cells are cut at the roots of the invariants that the
    binary-quartic tests read (``binary_quartic_critical_polys``)."""
    if f.is_zero() or g.is_zero():
        return _ZERO
    if g.degree == 0:
        return g.coeffs[0] ** f.degree if f.degree > 0 else _ONE
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if f.degree < g.degree:
        sign = -1 if (f.degree * g.degree) % 2 else 1
        return sign * resultant(g, f)
    r = f % g
    if r.is_zero():
        return _ZERO
    sign = -1 if (f.degree * g.degree) % 2 else 1
    return sign * (g.lead ** (f.degree - r.degree)) * resultant(g, r)


# ---------------------------------------------------------------------------
# Rational functions in one symbol
# ---------------------------------------------------------------------------


class RatFunc:
    """Element of Q(t): quotient of two rational-coefficient polynomials.

    Normalized with a monic denominator and reduced to lowest terms.  Used
    as a scalar for coefficients depending on the variable-count symbol
    ``n``.
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
        elif den.degree > 0:
            # lowest terms over the integers: num / den = s * zn / zd
            zn, gn, dn = _zsplit(num.coeffs)
            zd, gd, dd = _zsplit(den.coeffs)
            g = _zgcd(zn, zd)
            if len(g) > 1:
                zn, zd = _zquo(zn, g), _zquo(zd, g)
            s = Fraction(gn * dd, dn * gd * zd[-1])
            num = UniPoly([c * s for c in zn])
            den = _monic(zd)
        elif den.lead != 1:
            num = num.scale(_ONE / den.lead)
            den = UniPoly([_ONE])
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
            return Fraction(self.num.lead) / self.den.lead
        raise NoLimitError("rational function diverges as the symbol grows")

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if not self:
            return _ZERO
        return Fraction(self.num.coeffs[0]) / self.den.coeffs[0]


class NoLimitError(ValueError):
    """Raised when an n-dependent coefficient has no finite limit."""


def ratfunc_falling_factorial(r: int) -> RatFunc:
    """n(n-1)...(n-r+1) as a RatFunc in the symbol n."""
    p = UniPoly([_ONE])
    for i in range(r):
        p = p * UniPoly([Fraction(-i), _ONE])
    return RatFunc(p)


# ---------------------------------------------------------------------------
# Signs at isolated real roots
# ---------------------------------------------------------------------------


def irreducible_factors(p: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors of p over Q (without multiplicities).

    Delegates the factorization to sympy, which only the ``test`` extra
    installs; no decision calls this function.
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
    """A real algebraic number theta: the one root of the squarefree
    rational polynomial m in the interval (lo, hi), whose endpoints are not
    roots of m; or theta = lo when lo == hi.

    m need not be irreducible, so a cell product and a breakpoint's
    isolating interval (``Cells``) serve as they are.  The interval is
    refined in place as sign queries need it.  No decision calls it: the
    one feasible gamma of an SOS decision at a single breakpoint is
    rational (``sos``), so ``rational_roots`` finds it.  It stays because
    ``bench/tracer.py`` traces ``sign_of_poly`` and the tests use it as a
    reference for signs at irrational roots.
    """

    def __init__(self, m: UniPoly, lo: Fraction, hi: Fraction):
        self.modulus = m
        self._m = _zpoly(m.coeffs)
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)

    def sign_of_poly(self, p: UniPoly) -> int:
        """Exact sign of p(theta).

        g = gcd(m, p) divides m, so it has at most one root in (lo, hi),
        and a simple one: p(theta) = 0 exactly when g changes sign across
        the interval.  Otherwise the interval is bisected on m until p is
        nonzero at both ends and the Descartes count of p on (lo, hi)
        (``_descartes01`` after ``_zonto01``) is 0, which is exact: p has
        no root on [lo, hi] and its sign is that at lo.  The count reaches
        0 once the interval is short enough, because p(theta) != 0.
        """
        z = _zpoly(p.coeffs)
        lo, hi = self._lo, self._hi
        if len(z) <= 1 or lo == hi:
            return _zsign(z, lo) if z else 0
        g = _zgcd(self._m, z)
        if _zsign(g, lo) != _zsign(g, hi):
            return 0
        while lo != hi:
            if _zsign(z, lo) and _zsign(z, hi) and _descartes01(_zonto01(z, lo, hi)[0]) == 0:
                break  # no root of p on [lo, hi]
            lo, hi = refine_root_interval(self.modulus, lo, hi, (hi - lo) / 2)
        self._lo, self._hi = lo, hi
        return _zsign(z, lo)


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


def _quartic_invariants(a, b, c, d, e) -> tuple:
    """(27 Delta, P, D, R) of the quartic a x^4 + b x^3 + c x^2 + d x + e,
    whose coefficients are ints, or integer ``UniPoly`` in a parameter: the
    same expressions serve numbers and polynomials.

    27 Delta = 4 I^3 - J^2 for the invariants I and J, so Delta is the
    discriminant of ``disc_binary_quartic``; P = 8ac - 3b^2,
    D = 64a^3 e - 16a^2 c^2 + 16ab^2 c - 16a^2 bd - 3b^4 and
    R = b^3 + 8a^2 d - 4abc.  With a != 0 their signs fix the real-root
    pattern (Rees 1922)."""
    aa, bb, cc, ac, ae, bd = a * a, b * b, c * c, a * c, a * e, b * d
    i = cc - 3 * bd + 12 * ae
    j = 72 * ac * e + 9 * bd * c - 27 * a * d * d - 27 * bb * e - 2 * cc * c
    return (
        4 * i * i * i - j * j,
        8 * ac - 3 * bb,
        16 * aa * (4 * ae - cc - bd) + bb * (16 * ac - 3 * bb),
        b * (bb - 4 * ac) + 8 * aa * d,
    )


def disc_binary_quartic(h: Sequence):
    """Discriminant of a binary quartic, classical normalization.

    The five coefficients are rationals, or ``UniPoly`` with rational
    coefficients (e.g. polynomials in a weight parameter); the result is a
    rational or a ``UniPoly`` accordingly.  The normalization is the
    classical quartic discriminant Res(h, h')/a4 extended to the
    coefficient tuple, which satisfies disc(x^4 + p x^2 + q x + r) =
    classical and makes the factored form 16 (alpha-1)^3 (c+d)^2 alpha^3
    Q1 Q2^2 of the boundary-family discriminant hold exactly with constant
    16.

    Computed over the integers: with D the common denominator of the
    coefficients, disc(D h) = D^6 disc(h) = (4 I^3 - J^2) / 27
    (``_quartic_invariants`` of the integer quartic D h).
    """
    polys = any(isinstance(u, UniPoly) for u in h)
    rows = [u.coeffs if isinstance(u, UniPoly) else (u,) for u in h]
    den = lcm(*(c.denominator for row in rows for c in row))
    ints = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    scale = 27 * den**6
    if not polys:
        return Fraction(_quartic_invariants(*(row[0] for row in ints))[0], scale)
    disc = _quartic_invariants(*(UniPoly(row) for row in ints))[0]
    return UniPoly([Fraction(x, scale) for x in disc.coeffs])


def _quartic_signs(z: list[int]) -> list[int]:
    """The signs of (Delta, P, D, R) (``_quartic_invariants``) for the
    integer quartic with ascending coefficients z = [e, d, c, b, a]."""
    e, d, c, b, a = z
    return [(v > 0) - (v < 0) for v in _quartic_invariants(a, b, c, d, e)]


def binary_quartic_critical_polys(cs) -> list[UniPoly]:
    """Polynomials in a parameter across whose real roots alone the verdicts
    of ``binary_quartic_nonneg`` and ``binary_quartic_strictly_positive``
    can change, for the binary quartic whose coefficients ``cs`` (descending
    x-order) are integer ``UniPoly`` in that parameter.

    Only nonconstant polynomials are returned, as the constant ones keep
    their signs.  With lc = cs[0] and (27 Delta, P, D, R) of
    ``_quartic_invariants``:

    * lc, Delta not identically zero: 27 Delta and lc.  Where neither
      vanishes the roots are simple and their real count is constant, and
      both tests depend only on it.
    * Delta identically zero, lc not: lc, P, D and R.  Both tests are
      functions of their signs.
    * lc identically zero: none.  The callers' cs are Phi^alpha of a form
      f (``symfunc._phi_alpha_ints``), whose x^4 coefficient is
      sum_lambda c_lambda alpha^len(lambda); it vanishes identically only
      when c4 = c211 = c1111 = 0 and c31 = -c22, so on multiples
      m (p_(3,1) - p_(2,2)).  There Phi^alpha = m alpha (1 - alpha)
      x y (x - y)^2, and the signs that both tests read (the top nonzero
      coefficient, a1^2 - 4 a2 a0 of a quadratic) are constant on
      (0, 1): every polynomial among them has its roots at alpha in
      {0, 1}, which cut no open alpha-cell.  [] is also right for the
      w-family (``sos._w_family``), (0, 2 b12 w, B2, 0, B0) when
      c4 = c22 = 0 with B2, B0 constant: both tests read the signs of
      2 b12 w, B2 and B0, and 2 b12 w does not vanish on (0, n - 2).
    """
    lead = cs[0]
    if lead.is_zero():
        return []
    delta, p, d, r = _quartic_invariants(*cs)
    polys = (delta, lead) if delta else (lead, p, d, r)
    return [q for q in polys if q.degree > 0]


def binary_quartic_nonneg(h: Sequence[Fraction]) -> bool:
    """True iff h(x, y) >= 0 for all real (x, y); fully exact.

    Odd x-degree of h(x, 1) or a negative leading coefficient (h(1, 0) < 0)
    make h change sign, a constant is its sign and a quadratic is
    nonnegative iff its discriminant is <= 0.  A quartic with a > 0 is read
    from ``_quartic_signs``: it changes sign iff it has a simple real root,
    that is iff Delta < 0 (two simple real roots), or P < 0 and D < 0
    (with Delta > 0 four simple real roots; with Delta = 0 a double and two
    simple ones, or a triple and a simple one).
    """
    z = _zpoly(h[::-1])  # a positive multiple of h(x, 1)
    if not z:
        return True
    if len(z) % 2 == 0 or z[-1] < 0:
        # h(1, 0) < 0, or odd x-degree: h(x, 1) changes sign for large |x|
        return False
    if len(z) == 1:
        return True
    if len(z) == 3:
        return z[1] * z[1] <= 4 * z[0] * z[2]
    delta, p, d, _r = _quartic_signs(z)
    return delta >= 0 and not (p < 0 and d < 0)


def binary_quartic_strictly_positive(h: Sequence[Fraction]) -> bool:
    """True iff h(x, y) > 0 for all real (x, y) != (0, 0).

    With h(1, 0) > 0, iff h(x, 1) has no real root (``_quartic_signs``):
    four non-real simple roots (Delta > 0, not (P < 0 and D < 0)) or two
    non-real double ones (Delta = D = R = 0, P > 0)."""
    if h[0] <= 0:  # h(1, 0) <= 0
        return False
    delta, p, d, r = _quartic_signs(_zpoly(h[::-1]))
    if delta > 0:
        return not (p < 0 and d < 0)
    return delta == 0 and d == 0 and p > 0 and r == 0


def binary_quartic_negative_point(
    h: Sequence[Fraction],
) -> tuple[Fraction, Fraction] | None:
    """A rational point (x, y) with h(x, y) < 0, or None if h >= 0.

    The returned witness evaluates strictly negative exactly.

    Past h(1, 0) and x = +-B, B the Cauchy bound, h(x, 1) is positive
    outside (-B, B), so it is negative on some open cell between two
    neighbouring real roots.  Of the isolating intervals of those roots
    (of the squarefree part), a non-point one has its inner end, not a
    root, inside that cell; when both are points, their midpoint is.  So
    the interval ends, then the midpoints of neighbouring ends, hold a
    negative point.
    """
    if binary_quartic_nonneg(h):
        return None
    if h[0] < 0:
        return (_ONE, _ZERO)
    z = _zpoly(h[::-1])  # a positive multiple of h(x, 1)
    bound = _zroot_bound(z)
    for x in (bound, -bound):
        if _zsign(z, x) < 0:
            return (x, _ONE)
    ends = [x for ab in isolate_real_roots(UniPoly(_zsqf(z)), -bound, bound) for x in ab]
    for x in ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]:
        if _zsign(z, x) < 0:
            return (x, _ONE)
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

    # the continued fraction of lo, while [a, b] holds no integer: its
    # terms are shared with every rational in [lo, hi], and the simplest
    # one ends at the smallest integer >= a
    terms = []
    a, b = lo, hi
    while True:
        ia = a.numerator // a.denominator  # floor
        if a == ia or ia + 1 <= b:
            break
        terms.append(ia)
        a, b = 1 / (b - ia), 1 / (a - ia)
    p, q = (ia if a == ia else ia + 1), 1
    for t in reversed(terms):
        p, q = t * p + q, p
    return Fraction(p, q)


def simplest_in_middle(lo: Fraction, hi: Fraction) -> Fraction:
    """The simplest rational (``simplest_rational_between``) in the middle
    half of [lo, hi]: a sample of small height away from both ends, the
    one sample rule of the cell decompositions."""
    return simplest_rational_between((3 * lo + hi) / 4, (lo + 3 * hi) / 4)
