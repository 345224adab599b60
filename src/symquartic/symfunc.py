"""Symmetric forms in the power-sum and weighted-monomial bases.

Two representations are used:

* ``SymFormP`` -- a homogeneous symmetric form of degree k given by its
  coefficient vector over the partitions of k in canonical
  (reverse-lexicographic) order with respect to the normalized power sums
  ``p_i = (1/n)(x_1^i + ... + x_n^i)``, kept only as integers over one
  positive scale in lowest terms, together with a scope: a concrete
  variable count ``n`` or the marker ``LIMIT`` (the cone of coefficient
  sequences obtained as n grows).

* ``SymFuncM`` -- a symmetric function written in the weighted monomial
  basis ``m_mu = Sym(x_1^{mu_1} ... x_r^{mu_r})`` (orbit average), with
  coefficients that are exact rational functions of the symbol ``n``
  (``RatFunc``).  This single internal representation serves every numeric
  n and the n -> infinity limit: specialization is evaluation, the limit is
  a degree comparison.

The m <-> p transition is one closed formula over Q(n): expanding
p_lambda = prod_i (1/n) sum_j x_j^{lambda_i} and grouping the index tuples by
their coincidences gives

    p_lambda = n^{-l(lambda)} sum_pi (n)_{|pi|} m_{shape(pi)},

the sum over the set partitions pi of the parts of lambda, shape(pi) the
sorted block sums and (n)_k the falling factorial.  Every m in p_mu other
than m_mu has fewer parts, so m_mu is solved by recursion on the number of
parts.  The tests check p -> m against brute-force symmetrization of
products of power sums, and m -> p against the brick-permutation formula.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import permutations
from math import lcm, perm, prod

from .algebra import (
    NoLimitError,
    RatFunc,
    UniPoly,
    _lowest_terms,
    _over_lcm,
    ratfunc_falling_factorial,
)
from .partitions import Partition, is_partition, partitions_of


class _Limit:
    """Sentinel for the n -> infinity scope."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "LIMIT"


LIMIT = _Limit()

_ZERO = Fraction(0)


#: Largest degree tracked.  p_lambda expands over the set partitions of its
#: parts, whose number grows like the Bell numbers (Bell(8) = 4140); 8 is
#: the degree of a product of two quartic entries.  ``SymFormP``,
#: ``form_from_dict`` and form files refuse a higher degree, before the
#: partitions of the degree are listed (there are 4 087 968 of 70).
DEGREE_BOUND = 8


def _partitions(degree: int) -> tuple[Partition, ...]:
    """The partitions of the degree of a form, which is at most
    ``DEGREE_BOUND``."""
    if degree > DEGREE_BOUND:
        raise ValueError(f"degree above {DEGREE_BOUND} is not supported")
    return partitions_of(degree)


def _check_scope(scope, degree: int = 1) -> None:
    """Refuse a scope other than LIMIT or a variable count n >= degree."""
    if scope is LIMIT:
        return
    if not (isinstance(scope, int) and scope >= 1):
        raise ValueError(f"scope must be a positive integer or LIMIT, got {scope!r}")
    if scope < degree:
        raise ValueError("variable count must be at least the degree")


# ---------------------------------------------------------------------------
# SymFormP
# ---------------------------------------------------------------------------


class SymFormP:
    """Coefficient vector over partitions of ``degree`` in the p basis.

    ``SymFormP(degree, coeffs, scope)`` takes each coefficient through
    ``Fraction()`` (int, str, float, a ``numbers.Rational``) and keeps
    them only as the integers ``nums`` over ``den`` > 0, the lcm of their
    denominators, so gcd(den, *nums) = 1 and equal forms keep equal
    integers; every decision reads these.  ``coeffs`` builds the tuple of
    Fractions when read, and the form keeps no reference to its input.
    Forms compare and hash by (degree, den, nums, scope), and are frozen:
    assigning or deleting a field raises ``FrozenInstanceError``."""

    __slots__ = ("degree", "den", "nums", "scope", "_memo")

    def __init__(self, degree: int, coeffs, scope):
        plist = _partitions(degree)
        if len(coeffs) != len(plist):
            raise ValueError(f"need {len(plist)} coefficients for degree {degree}")
        values = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        _check_scope(scope, degree)
        _fill(self, degree, *_over_lcm(values), scope)

    @classmethod
    def _from_ints(cls, degree: int, den: int, nums, scope) -> "SymFormP":
        """The form nums / den, taken to lowest terms: the integer
        constructor of the library's own forms, which checks neither the
        degree nor the scope."""
        f = object.__new__(cls)
        _fill(f, degree, *_lowest_terms(den, nums, len(nums)), scope)
        return f

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(x, den) for x in self.nums])

    def _key(self):
        return self.degree, self.den, self.nums, self.scope

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SymFormP(degree={self.degree!r}, coeffs={self.coeffs!r}, scope={self.scope!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a copy or an unpickled form is a new object with an empty memo
        return SymFormP, (self.degree, self.coeffs, self.scope)

    def with_scope(self, scope) -> "SymFormP":
        _check_scope(scope, self.degree)
        return SymFormP._from_ints(self.degree, self.den, self.nums, scope)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other: "SymFormP") -> "SymFormP":
        if self.degree != other.degree or self.scope != other.scope:
            raise ValueError("degree/scope mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = tuple([x * a + y * b for x, y in zip(self.nums, other.nums)])
        return SymFormP._from_ints(self.degree, den, nums, self.scope)

    def __sub__(self, other: "SymFormP") -> "SymFormP":
        return self + other.scale(-1)

    def scale(self, s) -> "SymFormP":
        p, q = Fraction(s).as_integer_ratio()
        nums = tuple([x * p for x in self.nums])
        return SymFormP._from_ints(self.degree, self.den * q, nums, self.scope)


def _fill(f: SymFormP, degree: int, den: int, nums: tuple[int, ...], scope) -> None:
    """Set the fields of a new form, with an empty memo."""
    object.__setattr__(f, "degree", degree)
    object.__setattr__(f, "den", den)
    object.__setattr__(f, "nums", nums)
    object.__setattr__(f, "scope", scope)
    object.__setattr__(f, "_memo", {})


def per_form(fn):
    """Decorator: compute ``fn(f)`` once per form object ``f`` and keep the
    result in ``f._memo``, keyed by ``fn``.

    The memo is tied to the object, never to its value: an equal but
    distinct form (``SymFormP(f.degree, f.coeffs, f.scope)``), a rescaled
    one (``f.scale(2)``), a copy and an unpickled form each compute again,
    and the result goes away with the object.  So decisions that read the
    same data about one form share it, and nothing is shared across forms.
    Besides its integers, the memo is all that a form keeps alive: a
    caller that keeps many decided forms keeps their memos with them.
    An exception is not cached: the next call runs ``fn`` again.

    The decorated function's ``kept(f)`` reads the kept result, None when
    there is none: a caller that may only use a result already paid for
    never computes one.
    """

    @wraps(fn)
    def once(f):
        memo = f._memo
        if fn not in memo:
            memo[fn] = fn(f)
        return memo[fn]

    def kept(f):
        return f._memo.get(fn)

    once.kept = kept
    return once


def form_from_dict(degree: int, coeffs: dict, scope) -> SymFormP:
    """Build a SymFormP from a {partition: coefficient} mapping."""
    plist = _partitions(degree)
    vec = [_ZERO] * len(plist)
    for parts, c in coeffs.items():
        parts = tuple(parts)
        if parts not in plist:
            raise ValueError(f"{parts} is not a partition of {degree}")
        vec[plist.index(parts)] = Fraction(c)
    return SymFormP(degree, tuple(vec), scope)


# ---------------------------------------------------------------------------
# SymFuncM
# ---------------------------------------------------------------------------

class SymFuncM:
    """Symmetric function in the weighted monomial basis, coefficients in Q(n)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[Partition, RatFunc] = {}
        if terms:
            for parts, c in terms.items():
                parts = tuple(parts)
                if not is_partition(parts):
                    raise ValueError(f"invalid partition {parts}")
                if sum(parts) > DEGREE_BOUND:
                    raise ValueError("degree overflow beyond the tracked bound")
                if not isinstance(c, RatFunc):
                    c = RatFunc(Fraction(c))
                if c:
                    clean[parts] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SymFuncM):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"SymFuncM({self.terms!r})"

    def __add__(self, other: "SymFuncM") -> "SymFuncM":
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, RatFunc(0)) + c
        return SymFuncM(terms)

    def __sub__(self, other: "SymFuncM") -> "SymFuncM":
        return self + other.scale(RatFunc(-1))

    def scale(self, s) -> "SymFuncM":
        if not isinstance(s, RatFunc):
            s = RatFunc(Fraction(s))
        return SymFuncM({p: c * s for p, c in self.terms.items()})

    def specialize(self, n: int) -> dict[Partition, Fraction]:
        """Coefficients at a concrete n; partitions with more than n parts
        vanish identically and are dropped before evaluation."""
        out = {}
        for parts, c in self.terms.items():
            if len(parts) > n:
                continue
            v = c.at(n)
            if v:
                out[parts] = v
        return out

    def limit(self) -> dict[Partition, Fraction]:
        """Entrywise limit as n -> infinity; raises NoLimitError if any
        coefficient diverges."""
        out = {}
        for parts, c in self.terms.items():
            v = c.limit_at_infinity()
            if v:
                out[parts] = v
        return out

    def evaluate(self, point, n: int) -> Fraction:
        """Exact value at a rational point with n coordinates: m_mu is the
        average of x_{j_1}^{mu_1} ... x_{j_r}^{mu_r} over the (n)_r
        injective placements (j_1, ..., j_r)."""
        pt = [Fraction(x) for x in point]
        if len(pt) != n:
            raise ValueError(f"point must have {n} coordinates")
        total = _ZERO
        for parts, c in self.terms.items():
            if len(parts) > n:
                continue
            placed = sum(
                (prod(x**e for x, e in zip(xs, parts)) for xs in permutations(pt, len(parts))),
                _ZERO,
            )
            total += c.at(n) * placed / perm(n, len(parts))
        return total


# ---------------------------------------------------------------------------
# the m <-> p transition
# ---------------------------------------------------------------------------


def _block_sums(parts: Partition):
    """For each set partition of the positions of ``parts``, the list of
    its block sums."""
    if not parts:
        yield []
        return
    for sums in _block_sums(parts[1:]):
        for i in range(len(sums)):
            yield sums[:i] + [sums[i] + parts[0]] + sums[i + 1:]
        yield sums + [parts[0]]


@lru_cache(maxsize=None)
def _p_lambda_in_m(parts: Partition) -> SymFuncM:
    """p_lambda = n^{-l(lambda)} sum_pi (n)_{|pi|} m_{shape(pi)} over Q(n).

    Expanding the product of the (1/n) sum_j x_j^{lambda_i} and grouping
    the index tuples by which indices coincide gives one set partition pi
    of the parts per group; its (n)_{|pi|} injective placements sum to
    (n)_{|pi|} m_{shape(pi)}, shape(pi) the sorted block sums."""
    counts = Counter(tuple(sorted(sums, reverse=True)) for sums in _block_sums(parts))
    scale = RatFunc(1) / RatFunc.t() ** len(parts)
    return SymFuncM(
        {shape: ratfunc_falling_factorial(len(shape)) * scale * c for shape, c in counts.items()}
    )


def _p_sum_in_m(coeffs: dict) -> SymFuncM:
    """sum c_lambda p_lambda in the m basis, from a {lambda: c_lambda}
    mapping with rational or RatFunc coefficients."""
    total = SymFuncM()
    for parts, c in coeffs.items():
        if c:
            total = total + _p_lambda_in_m(tuple(parts)).scale(c)
    return total


def p_to_m(f: SymFormP) -> SymFuncM:
    """Exact expansion of sum c_lambda p_lambda in the m basis."""
    return _p_sum_in_m(dict(zip(partitions_of(f.degree), f.coeffs)))


@lru_cache(maxsize=None)
def _m_in_p(mu: Partition) -> dict[Partition, RatFunc]:
    """m_mu = sum_nu c_nu p_nu over Q(n).

    Every m_nu in p_mu other than m_mu has fewer parts than mu, so
    m_mu = (p_mu - sum_{nu != mu} a_nu m_nu) / a_mu is solved by recursion
    on the number of parts."""
    p_mu = _p_lambda_in_m(mu).terms
    out = {mu: RatFunc(1)}
    for nu, a in p_mu.items():
        if nu != mu:
            for rho, b in _m_in_p(nu).items():
                out[rho] = out.get(rho, RatFunc(0)) - a * b
    return {rho: b / p_mu[mu] for rho, b in out.items() if b}


def m_to_p(g: SymFuncM, scope) -> SymFormP:
    """Convert a homogeneous m-basis function to the p basis.

    ``scope`` is a numeric n (>= the degree) or ``LIMIT``; in the limit the
    coefficients are the n -> infinity limits (asymptotically m_mu -> p_mu),
    and a divergent coefficient raises ``NoLimitError("no limit")``.
    """
    _check_scope(scope)
    if g.is_zero():
        raise ValueError("cannot infer the degree of the zero function")
    weights = {sum(p) for p in g.terms}
    if len(weights) > 1:
        raise ValueError("m_to_p requires a homogeneous input")
    weight = weights.pop()
    _check_scope(scope, weight)
    acc: dict[Partition, RatFunc] = {}
    for mu, c in g.terms.items():
        for nu, b in _m_in_p(mu).items():
            acc[nu] = acc.get(nu, RatFunc(0)) + c * b
    vec = []
    for nu in partitions_of(weight):
        c = acc.get(nu, RatFunc(0))
        if scope is LIMIT:
            try:
                vec.append(c.limit_at_infinity())
            except NoLimitError:
                raise NoLimitError("no limit")
        else:
            vec.append(c.at(scope))
    return SymFormP(weight, tuple(vec), scope)


# ---------------------------------------------------------------------------
# evaluation and the Phi construction
# ---------------------------------------------------------------------------


def evaluate(f: SymFormP, point) -> Fraction:
    """Exact value of sum c_lambda p_lambda at a rational point.

    Requires a numeric scope; the point must have n coordinates.
    """
    if f.scope is LIMIT:
        raise ValueError("cannot evaluate a LIMIT-scope form at a point")
    n = f.scope
    pt = [Fraction(x) for x in point]
    if len(pt) != n:
        raise ValueError(f"point must have {n} coordinates")
    psums = {}

    def p_val(i: int) -> Fraction:
        if i not in psums:
            psums[i] = sum((x**i for x in pt), _ZERO) / n
        return psums[i]

    total = _ZERO
    for parts, c in zip(partitions_of(f.degree), f.coeffs):
        if c:
            v = c
            for a in parts:
                v *= p_val(a)
            total += v
    return total


def _phi_ints(nums, a, b, N) -> tuple:
    """N^4 den Phi_f at the weights (a/N, b/N), with N = a + b != 0: five
    coefficients, entry i that of x^{4-i} y^i, from the numerators
    nums = (c4, c31, c22, c211, c1111) of a quartic f over den
    (``SymFormP.nums``).

    With p_i = (a x^i + b y^i) / N, the products over the parts of the five
    partitions sum, times N^4, to

        x^4:     (((c1111 a + c211 N) a + (c31 + c22) N^2) a + c4 N^3) a
        x^3 y:   a b (c31 N^2 + 2 c211 N a + 4 c1111 a^2)
        x^2 y^2: a b ((2 c22 + c211) N^2 + 6 c1111 a b)
        x y^3:   a b (c31 N^2 + 2 c211 N b + 4 c1111 b^2)
        y^4:     (((c1111 b + c211 N) b + (c31 + c22) N^2) b + c4 N^3) b

    (a + b = N folds the a b (a + b) x^2 y^2 of p_(2,1^2)).  So swapping a
    and b reverses the result: Phi^(b/N)(x, y) = Phi^(a/N)(y, x).  As in
    ``algebra._quartic_invariants``, the same expressions serve ints and
    integer ``UniPoly``: a grid weight k/n is (k, n - k, n), unreduced, as a
    common factor g of k and n only scales the result by g^4; the
    alpha-polynomials are (alpha, 1 - alpha, 1) (``_phi_alpha_ints``)."""
    c4, c31, c22, c211, c1111 = nums
    ab, nn, v = a * b, N * N, c211 * N
    s, t, u, n3 = (c31 + c22) * nn, c31 * nn, 2 * v, c4 * nn * N
    return (
        (((c1111 * a + v) * a + s) * a + n3) * a,
        ab * (t + (u + 4 * c1111 * a) * a),
        ab * ((2 * c22 + c211) * nn + 6 * c1111 * ab),
        ab * (t + (u + 4 * c1111 * b) * b),
        (((c1111 * b + v) * b + s) * b + n3) * b,
    )


def _phi_alpha_ints(f: SymFormP) -> tuple[int, tuple[UniPoly, ...]]:
    """(den, cs): den Phi_f(alpha, 1-alpha, x, y) as five integer
    ``UniPoly`` in alpha, cs[i] the coefficient of x^{4-i} y^i, with
    den > 0 the lcm of the denominators of f (``SymFormP.den``):
    ``_phi_ints`` at the weights (alpha, 1 - alpha) over N = 1.

    den is also the lcm of the denominators of ``phi_alpha_coeffs``: the
    alpha-coefficients of x^4 are c4, c31 + c22, c211 and c1111, and the
    alpha coefficient of x^3 y is c31, so every numerator c_lambda is an
    integer combination of the coefficients of den Phi^alpha.  A positive
    scale leaves the signs, the zeros and the negative points of Phi^alpha
    alone, which is all the decisions read."""
    if f.degree != 4:
        raise ValueError("Phi^alpha is defined for quartics")
    return f.den, _phi_ints(f.nums, UniPoly((0, 1)), UniPoly((1, -1)), 1)


def phi_alpha_coeffs(f: SymFormP) -> tuple[UniPoly, ...]:
    """Coefficients of Phi_f(alpha, 1-alpha, x, y) as a binary quartic whose
    coefficients are polynomials in alpha.

    Returns a 5-tuple in descending x-order: entry i is the UniPoly (in
    alpha) coefficient of x^{4-i} y^i: the integer polynomials of
    ``_phi_alpha_ints`` divided by their scale den.  The decisions do not
    read it: the finite-n grid reads ``_phi_ints`` at its integer weights.
    """
    den, cs = _phi_alpha_ints(f)
    return tuple(UniPoly([Fraction(c, den) for c in u.coeffs]) for u in cs)


def restrict_alpha(f: SymFormP, alpha) -> tuple[Fraction, ...]:
    """The binary quartic Phi_f^alpha(x, y), five coefficients in descending
    x-order, for a rational alpha = p/q in [0, 1] in lowest terms: the
    integers of ``_phi_ints`` at (p, q - p, q), over q^4 den.  They equal
    the alpha-polynomials of ``phi_alpha_coeffs`` at alpha, and no
    polynomial is built."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if f.degree != 4:
        raise ValueError("Phi^alpha is defined for quartics")
    p, q = alpha.numerator, alpha.denominator
    scale = f.den * q**4
    return tuple([Fraction(c, scale) for c in _phi_ints(f.nums, p, q - p, q)])
