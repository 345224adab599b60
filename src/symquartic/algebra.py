"""Exact scalar, univariate and small multivariate polynomial arithmetic.

Provides the building blocks used by every other module:

* ``UniPoly`` -- univariate polynomials with rational (``int`` or
  ``Fraction``) coefficients, with Euclidean division, gcd, squarefree
  (Yun) decomposition, Sturm sequences, certified real-root isolation and
  rational roots.
* the integer core behind them: a rational polynomial is carried as the
  primitive integer polynomial that is a positive multiple of it, a list
  of ints.  Roots, multiplicities and signs do not see a positive factor,
  so gcds and squarefree parts (primitive PRS), Yun decompositions, Sturm
  chains (sign-corrected pseudo-remainders with the content divided out),
  root counting and isolation run on ints, and the sign at a rational p/q
  is that of the homogeneous integer Horner value sum c_i p^i q^(d-i).
  ``Fraction`` is built only where a ``UniPoly`` is handed out.
* ``cells`` / ``Cells`` -- the cell engine shared by every one-parameter
  decision: the real roots of finitely many rational polynomials cut an
  interval into open cells, each with a rational sample, and each root
  (breakpoint) has an isolating interval on their squarefree product.
* ``AlgebraicField`` -- the sign of a rational polynomial at a real root
  isolated by a rational interval, the one algebraic step of the
  decisions.  It is a sign query on integer polynomials: a gcd and a Sturm
  count, with no field arithmetic and no factoring, so the root may be
  given by any squarefree polynomial (in practice a cell product).
* ``RatFunc`` -- the field of univariate rational functions over the
  rationals, a scalar for coefficients depending on the variable-count
  symbol ``n``.
* ``MultiPoly`` -- sparse multivariate polynomials over the rationals.
* ``SymMat2`` -- symmetric rational 2x2 matrices with an exact PSD test.
* binary-quartic helpers: discriminant, nonnegativity decision, negative
  point search.

Everything is immutable and pure; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _zlinear(r: Fraction) -> list[int]:
    """The primitive zpoly of x - r, r rational."""
    return [-r.numerator, r.denominator]


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


def _zsturm(z: list[int]) -> list[list[int]]:
    """Sturm chain of a nonzero zpoly: z, z', then negated remainders,
    each a positive multiple of its term of the Euclidean chain over Q,
    with the content divided out; stops at the last nonzero term."""
    chain = [z]
    dz = _zderiv(z)
    if dz:
        chain.append(_zprim(dz))
    while len(chain[-1]) > 1:
        r = _zrem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_zprim([-c for c in r]))
    return chain


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


def _variations(signs: Sequence[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _zvariations(chain: list[list[int]], x: Fraction) -> int:
    return _variations([_zsign(z, x) for z in chain])


def _count_from_chain(chain: Sequence[Sequence]) -> int:
    """Distinct real roots from a Sturm chain (coefficient sequences):
    sign variations at -infinity minus those at +infinity."""
    at_pos = [(c[-1] > 0) - (c[-1] < 0) for c in chain]
    at_neg = [-s if len(c) % 2 == 0 else s for s, c in zip(at_pos, chain)]
    return _variations(at_neg) - _variations(at_pos)


# -- public squarefree and Sturm functions ----------------------------------


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


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots of p."""
    if p.is_zero():
        raise ValueError("zero polynomial has indeterminate root set")
    if p.degree == 0:
        return 0
    return _count_from_chain(_zsturm(_zsqf(_zpoly(p.coeffs))))


def count_roots_open(p: UniPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of the rational polynomial p strictly
    inside (lo, hi).

    Endpoints are allowed to be roots (they are not counted)."""
    if p.is_zero():
        raise ValueError("zero polynomial has indeterminate root set")
    z = _zpoly(p.coeffs)
    lo = Fraction(lo)
    hi = Fraction(hi)
    if hi <= lo:
        return 0
    q = _zsqf(z)
    for r in (lo, hi):
        if len(q) > 1 and _zsign(q, r) == 0:
            q = _zquo(q, _zlinear(r))
    if len(q) <= 1:
        return 0
    chain = _zsturm(q)
    return _zvariations(chain, lo) - _zvariations(chain, hi)


def _zroot_bound(z: list[int]) -> Fraction:
    """Cauchy bound of a zpoly: all real roots lie in (-B, B)."""
    if len(z) <= 1:
        return _ONE
    return _ONE + Fraction(max(abs(c) for c in z[:-1]), abs(z[-1]))


def isolate_real_roots(
    p: UniPoly, lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each containing exactly one real root of
    the squarefree rational polynomial p in the open interval (lo, hi).

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
    q = _zpoly(p.coeffs)

    # roots exactly at lo/hi are outside the open interval: deflate them so
    # that the Sturm chain endpoints are non-roots without skipping interior
    # roots
    for r in (lo, hi):
        while _zsign(q, r) == 0:
            q = _zquo(q, _zlinear(r))
            if len(q) <= 1:
                return []
    chain = _zsturm(q)
    variations: dict[Fraction, int] = {}

    def count_open(a: Fraction, b: Fraction) -> int:
        for x in (a, b):
            if x not in variations:
                variations[x] = _zvariations(chain, x)
        return variations[a] - variations[b]

    def nonroot_point(a: Fraction, b: Fraction) -> Fraction:
        """A rational in (a,b) that is not a root of q."""
        x = (a + b) / 2
        step = (b - a) / 4
        while _zsign(q, x) == 0:
            x = x + step
            step /= 2
        return x

    # bisect (a, b), a and b non-roots of q, until each piece holds at most
    # one root; an explicit stack, as close roots need deep bisection
    out: list[tuple[Fraction, Fraction]] = []
    todo = [(lo, hi)]
    while todo:
        a, b = todo.pop()
        k = count_open(a, b)
        if k == 0:
            continue
        if k == 1:
            # bisect once more so that the interval is away from other roots,
            # collapsing to a point interval when the root is hit exactly
            mid = (a + b) / 2
            if _zsign(q, mid) == 0:
                out.append((mid, mid))
            elif count_open(a, mid) == 1:
                out.append((a, mid))
            else:
                out.append((mid, b))
            continue
        mid = nonroot_point(a, b)
        todo += [(mid, b), (a, mid)]
    out.sort()
    return out


def refine_root_interval(
    p: UniPoly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a root of the rational polynomial p
    below the given width.

    The root must be simple (p changes sign across it), as every root of a
    squarefree p is; callers pass squarefree parts, Yun factors or minimal
    polynomials, so no squarefree part is taken here.
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


def rational_roots(p: UniPoly) -> list[Fraction]:
    """The distinct rational roots of a nonzero rational polynomial, sorted.

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
    lead, poly, bound = z[-1], UniPoly(z), _zroot_bound(z)
    out = []
    for a, b in isolate_real_roots(poly, -bound, bound):
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
    of the ``len(breakpoints) + 1`` open cells, left to right.  A
    breakpoint's root is ``AlgebraicField(product, lo, hi)``.
    """

    product: UniPoly
    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    samples: tuple[Fraction, ...]


def cells(polys: Iterable[UniPoly], lo: Fraction, hi: Fraction) -> Cells:
    """Cut the open interval (lo, hi) at the real roots of the rational
    polynomials.

    Callers pass polynomials in a parameter across whose roots alone their
    answer can change.  The answer on [lo, hi] is then decided by testing
    ``lo``, ``hi``, one sample per open cell and each breakpoint (exactly,
    by sign queries at the root, when its interval is not a point).
    When ``lo == hi`` the single sample is ``lo``.
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

    # roots at exactly lo or hi do not subdivide (lo, hi) but would confuse
    # interval refinement when they coincide with an interval endpoint
    interior = product
    for r in (lo, hi):
        if _zsign(interior, r) == 0:
            interior = _zquo(interior, _zlinear(r))
    interior_poly = UniPoly(interior)

    # refine so every non-point interval sits strictly inside (lo, hi) and
    # strictly to the right of the previous interval; the roots themselves
    # are strictly interior, so repeated halving always terminates
    breakpoints = []
    prev_hi = lo
    product_poly = UniPoly(product)
    for a, b in isolate_real_roots(product_poly, lo, hi):
        while a != b and (a <= prev_hi or b >= hi):
            a, b = refine_root_interval(interior_poly, a, b, (b - a) / 2)
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
    return Cells(product_poly, tuple(breakpoints), tuple(samples))


def resultant(f: UniPoly, g: UniPoly):
    """Resultant of two rational polynomials (zero when they share a root).

    Computed by the Euclidean recursion.  No decision calls it: the
    projections are signed subresultant determinants over the integers
    (``positivity``)."""
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
    installs; no decision calls this function (they use sign queries at
    isolated roots, ``AlgebraicField``).
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
    refined in place as sign queries need it.
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
        the interval.  Otherwise the interval is bisected on m until p has
        no root on [lo, hi], where its sign is that at lo.
        """
        z = _zpoly(p.coeffs)
        lo, hi = self._lo, self._hi
        if len(z) <= 1 or lo == hi:
            return _zsign(z, lo) if z else 0
        g = _zgcd(self._m, z)
        if _zsign(g, lo) != _zsign(g, hi):
            return 0
        chain = _zsturm(_zsqf(z))
        while lo != hi:
            if _zsign(z, lo) and _zsign(z, hi) and (
                _zvariations(chain, lo) == _zvariations(chain, hi)
            ):
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
    coefficients, disc(D h) = D^6 disc(h) = (4 I^3 - J^2) / 27 for the
    invariants I and J of the integer quartic D h.
    """
    polys = any(isinstance(u, UniPoly) for u in h)
    rows = [u.coeffs if isinstance(u, UniPoly) else (u,) for u in h]
    den = lcm(*(c.denominator for row in rows for c in row))
    a, b, c, d, e = (
        _ztrim([x.numerator * (den // x.denominator) for x in row]) for row in rows
    )

    def add(*terms):
        out = [0] * max((len(t) for _k, t in terms), default=0)
        for k, t in terms:
            for i, x in enumerate(t):
                out[i] += k * x
        return _ztrim(out)

    mul = _zmul
    cc = mul(c, c)
    inv_i = add((12, mul(a, e)), (-3, mul(b, d)), (1, cc))
    inv_j = add(
        (72, mul(mul(a, c), e)),
        (9, mul(mul(b, c), d)),
        (-27, mul(a, mul(d, d))),
        (-27, mul(e, mul(b, b))),
        (-2, mul(cc, c)),
    )
    disc = add((4, mul(inv_i, mul(inv_i, inv_i))), (-1, mul(inv_j, inv_j)))
    scale = 27 * den**6
    if not polys:
        return Fraction(disc[0], scale) if disc else _ZERO
    return UniPoly([Fraction(x, scale) for x in disc])


def binary_quartic_nonneg(h: Sequence[Fraction]) -> bool:
    """True iff h(x, y) >= 0 for all real (x, y); fully exact.

    Checks the point at infinity h(1,0), then decides nonnegativity of
    h(x, 1) via squarefree (Yun) decomposition: a sign change exists iff
    the leading behavior is negative/odd or some odd-multiplicity factor
    has a real root.
    """
    z = _zpoly(h[::-1])  # a positive multiple of h(x, 1)
    if not z:
        return True
    if len(z) % 2 == 0 or z[-1] < 0:
        # h(1, 0) < 0, or odd x-degree: h(x, 1) changes sign for large |x|
        return False
    if len(z) == 1:
        return True
    return not any(
        mult % 2 == 1 and _count_from_chain(_zsturm(fac)) > 0
        for fac, mult in _zyun(z)
    )


def binary_quartic_strictly_positive(h: Sequence[Fraction]) -> bool:
    """True iff h(x, y) > 0 for all real (x, y) != (0, 0)."""
    if h[0] <= 0:  # h(1, 0) <= 0
        return False
    # degree 4 with a positive leading coefficient: positive iff no real root
    return _count_from_chain(_zsturm(_zsqf(_zpoly(h[::-1])))) == 0


def binary_quartic_negative_point(
    h: Sequence[Fraction],
) -> tuple[Fraction, Fraction] | None:
    """A rational point (x, y) with h(x, y) < 0, or None if h >= 0.

    The returned witness evaluates strictly negative exactly.
    """
    if binary_quartic_nonneg(h):
        return None
    if h[0] < 0:
        return (_ONE, _ZERO)
    z = _zpoly(h[::-1])  # a positive multiple of h(x, 1)

    # search outward: leading behavior negative or odd degree
    bound = _zroot_bound(z)
    for x in (bound, -bound):
        if _zsign(z, x) < 0:
            return (x, _ONE)
    # a sign change exists at an odd-multiplicity root: bisect around it
    for fac, mult in _zyun(z):
        if mult % 2 == 0:
            continue
        b = _zroot_bound(fac)
        fac_poly = UniPoly(fac)
        for lo, hi in isolate_real_roots(fac_poly, -b, b):
            width = (hi - lo) if hi > lo else _ONE
            for _ in range(4096):
                lo2, hi2 = (
                    (lo - width, hi + width) if lo == hi else (lo, hi)
                )
                for x in (lo2, hi2):
                    if _zsign(z, x) < 0:
                        return (x, _ONE)
                width /= 2
                if lo != hi:
                    lo, hi = refine_root_interval(fac_poly, lo, hi, width)
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
