"""Nonnegativity decisions for symmetric quartics.

Limit cone: f is in the limit nonnegativity cone iff Phi^alpha(x, y) =
Phi_f(alpha, 1-alpha, x, y) is nonnegative for every alpha in [0, 1].  For
quartics this cone equals the limit SOS cone (Blekherman & Riener,
arXiv:1205.3102), so both limit decisions read the class of the gamma = 0
blocks of ``sos`` (``sos._gamma_zero_class``: infeasible, feasible or
strictly feasible); IN needs no theorem, as a sum of squares is
nonnegative.  OUT carries a negative point read off the same gamma = 0
entries in closed form (``_limit_negative_point``): over two-point
measures of mean 1, Phi_f is a quadratic in p_2 plus the variance times a
quadratic in x + y, whose minimum picks a rational variance.  A rational
point then follows from an integer square root near the minimising x + y
(or a power of 2 where that quadratic is linear), kept once Phi_f < 0
holds there exactly.  All of it reads the integer gamma = 0 entries, and
Fractions are made only for the returned point.  No alpha-polynomial is
built and no root is isolated.  Finding no point would contradict the
theorem, and raises.

Finite n: the limit decides first.  The gamma = 0 blocks of ``sos`` do
not depend on n, so when they are feasible f is a sum of squares, hence
nonnegative, at every n, and when they are strictly feasible f is strictly
positive at every n (``is_nonneg``, ``is_strictly_positive``).  Both read
the one class of the gamma = 0 blocks that ``sos`` keeps on the form
object, as the limit decisions and the SOS decisions do, so the blocks
are classified once per form whichever questions are asked.  Only forms
outside the limit cone (for ``is_strictly_positive``, outside its
interior) reach the grid.  By the half-degree principle a symmetric
quartic is nonnegative (strictly positive) iff Phi^alpha is, for every
weight alpha = k/n of the grid W_n.  At alpha = 0 and 1 the binary form
is the coefficient sum times y^4 or x^4, so both decisions read those two
weights off its sign, on the gamma = 0 entries of ``sos``.

Of the interior weights, both grid paths test only k <= n/2.  Swapping
the two weights and the two points gives the same measure, so
Phi^((n-k)/n)(x, y) = Phi^(k/n)(y, x): the binary quartic at n - k is the
one at k reversed, the failing k are symmetric about n/2, and the first
failing k is <= n/2 when there is one.  Below ``_CELL_MIN_N`` the
decisions walk every k in 1..n/2.  From ``_CELL_MIN_N`` on they test only
the weights that the alpha-cells pick (``_tested_ks``): on each open cell
both properties are constant, and the cells are cut at the roots in
(0, 1/2) of the polynomials whose signs the binary-quartic tests read
(``binary_quartic_critical_polys``; for a generic form, the
alpha-discriminant and the leading coefficient of Phi^alpha(x, 1)).  The
picked weights are k = 1, the weights inside each isolating interval of a
root, refined to width 1/n, the first weight right of each interval, and
k = n/2 (rounded down), which stands for a root at alpha = 1/2, outside
the open interval; all are clipped to k <= n/2.  That is a bounded number
of tests whatever n is.  The roots are isolated one critical polynomial
at a time, so the intervals of two polynomials may overlap and a shared
root is isolated twice; the weights at every root and the first weight
of every cell are still among those picked.  Below ``_CELL_MIN_N``
isolating the roots costs more than the walk.  On both paths
``is_nonneg`` returns the first failing grid weight.  A weight is tested
in integers: ``symfunc._phi_ints`` reads Phi^(k/n) at the integers
(k, n - k, n), unreduced, as n^4 den Phi^(k/n), and the binary-quartic
tests read signs on those ints as they come; a ``Fraction`` weight is
made only for the returned witness.  Only the cells build the
alpha-polynomials, for their cuts, and the tested weights are kept once
per form object (``_cell_grid``, ``symfunc.per_form``), so asking both
questions about one form pays for one cell build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt

from .algebra import (
    UniPoly,
    _simplest_between_ints,
    _zpoly,
    _zsqf,
    binary_quartic_critical_polys,
    binary_quartic_negative_point,
    binary_quartic_nonneg,
    binary_quartic_strictly_positive,
    isolate_real_roots,
    refine_root_interval,
)
from .dualcone import DualFunctional
from .sos import _gamma_zero_class, _gamma_zero_entries, sos_boundary
from .symfunc import LIMIT, SymFormP, _phi_alpha_ints, _phi_ints, per_form

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class NonnegVerdict:
    """IN/OUT verdict; when OUT, ``witness`` is a pair (w, (x, y)) such that
    Phi_f(w, x, y) < 0 exactly (w is a weight pair; in the limit case it is
    (alpha, 1-alpha))."""

    status: str  # "IN" | "OUT"
    witness: tuple | None = None


@dataclass(frozen=True)
class BoundaryVerdict:
    """INTERIOR / BOUNDARY / OUTSIDE relative to the limit cone; BOUNDARY
    carries in ``witness`` a nonzero functional y of the limit dual cone
    (``dualcone.dual_membership(y, LIMIT)``) with y(f) = 0, which supports
    the cone at f."""

    status: str  # "INTERIOR" | "BOUNDARY" | "OUTSIDE"
    witness: DualFunctional | None = None
    alpha_witness = None  # the former alpha interval; bench/queries.py reads it


#: The verdicts that carry no witness.  Verdicts are frozen and compare by
#: value, so every decision returns these objects rather than new ones.
_IN = NonnegVerdict("IN")
_NO_WITNESS = {status: BoundaryVerdict(status) for status in ("INTERIOR", "OUTSIDE")}


# ---------------------------------------------------------------------------
# finite n
# ---------------------------------------------------------------------------


#: Below this n the finite-n decisions walk the grid (``_grid``).  Only
#: forms that the gamma = 0 step leaves open reach either path, so the
#: walk/cell crossover was measured on those, with both paths on k <= n/2:
#: the 14 distinct ``large_n`` benchmark vectors of seeds 1-40 that reach
#: a grid (all of them through ``is_strictly_positive`` alone, as
#: gamma = 0 decides ``is_nonneg``), and boundary-family members seeded as
#: in the benchmark's workloads: 24 with p_4 lowered by 1/64..1/1024, 12
#: lowered by 10^-7 and 12 unlowered.  Mean per form on fresh form
#: objects, min of 7 runs, 2-vCPU VM, n = 64..512: the cells cost a flat
#: 0.35-0.40 ms on the ``large_n`` vectors, 0.10-0.11 ms unlowered,
#: 0.10-0.13 ms at 10^-7 and 0.13-0.19 ms at 1/64..1/1024, and the walk
#: grows with n.  They cross near n = 200 on the ``large_n`` vectors and on
#: the unlowered forms; at 10^-7 near n = 150 for both questions and
#: n = 300 for one; at 1/64..1/1024 near n = 400 for both and above 512
#: for one.  So 56 is below every crossover.  It stays, because a larger
#: value moves ``large_n`` (n = 64..128) onto the walk, a change of its own.
_CELL_MIN_N = 56


def _tested_ks(cs, n: int) -> tuple[int, ...]:
    """Ascending k in 1..n/2 whose weights (k/n, (n-k)/n) decide
    Phi^alpha >= 0 (and > 0) on the interior of the grid W_n, for the
    alpha-coefficients ``cs`` of f (``symfunc._phi_alpha_ints``), from
    ``_CELL_MIN_N`` on.

    The alpha-cells are cut at the roots in (0, 1/2) of
    ``binary_quartic_critical_polys``, so both binary-quartic tests keep
    their verdicts on each open cell.  Each polynomial's roots are
    isolated on its own squarefree part, and each interval is refined to
    width <= 1/n.  The tested k are k = 1, every k/n in each interval
    (which holds the root itself when it is some k/n), the smallest k/n
    to the right of each interval, and k = n // 2, which is 1/2 when that
    is a root, as the open interval leaves it out; all clipped to
    1..n//2.  Intervals of different polynomials may overlap, and a shared
    root is isolated twice; neither matters, as the list still holds the
    first grid weight up to n/2 of every cell and every grid weight at a
    root.  So the first failing k is the first failing k <= n/2 of the
    grid, which is its first failing interior k (module docstring).
    """
    width, half = Fraction(1, n), n // 2
    ks = {1, half}
    for q in binary_quartic_critical_polys(cs):
        part = UniPoly(_zsqf(_zpoly(q.coeffs)))
        for a, b in isolate_real_roots(part, _ZERO, _HALF):
            a, b = refine_root_interval(part, a, b, width)
            ks.update(range(max(ceil(a * n), 1), min(floor(b * n) + 2, half + 1)))
    return tuple(sorted(ks))


@per_form
def _cell_grid(f: SymFormP) -> tuple[int, ...]:
    """``_tested_ks`` of f, kept once per form object: ``is_nonneg`` and
    ``is_strictly_positive`` both read it.  The alpha-coefficients it cuts
    the cells with are not kept."""
    return _tested_ks(_phi_alpha_ints(f)[1], f.scope)


def _grid(f: SymFormP) -> tuple[int, ...] | range:
    """The ascending k in 1..n/2 whose weights decide f on the interior of
    W_n (module docstring): below ``_CELL_MIN_N`` every one of them, from
    it on those of ``_cell_grid``.  The walk keeps nothing on the form and
    builds no alpha-polynomial; each weight is read by
    ``symfunc._phi_ints`` on the form's integers."""
    n = f.scope
    return range(1, n // 2 + 1) if n < _CELL_MIN_N else _cell_grid(f)


@per_form
def is_nonneg(f: SymFormP) -> NonnegVerdict:
    """Nonnegativity at the form's numeric scope n, decided once per form
    object (``symfunc.per_form``).

    IN when the gamma = 0 blocks of ``sos`` are feasible: their entries do
    not depend on n, and f = (p_1^2, p_2) A (p_1^2, p_2)^T plus the mean
    over i of the hook square of B is then a sum of squares at every n.
    Otherwise the half-degree principle decides it on the grid W_n, and
    OUT carries the first failing grid weight, which is at most n/2
    (``_grid``).

    The first grid weight, k = 0, puts every coordinate at y, where Phi is
    the coefficient sum times y^4.  That sum is a22 + s + (a11 - u) at
    gamma = 0, so its sign is read on the integers of
    ``sos._gamma_zero_entries`` before the grid of the interior weights is
    built; k = n, where Phi is the sum times x^4, never fails first.
    """
    if f.scope is LIMIT:
        raise ValueError("use is_nonneg_limit for LIMIT-scope forms")
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if _gamma_zero_class(f):
        return _IN
    if sum(_gamma_zero_entries(f)[1][2:]) < 0:
        # at k = 0, Phi is the coefficient sum times y^4: negative at (1, 1)
        return NonnegVerdict("OUT", ((_ZERO, _ONE), (_ONE, _ONE)))
    n, nums = f.scope, f.nums
    for k in _grid(f):
        h = _phi_ints(nums, k, n - k, n)
        if not binary_quartic_nonneg(h):
            alpha = Fraction(k, n)
            return NonnegVerdict("OUT", ((alpha, 1 - alpha), binary_quartic_negative_point(h)))
    return _IN


#: The verdict that ``is_nonneg`` keeps on a form object, or None, read
#: without deciding (``symfunc.per_form``); ``sos.sos_membership`` takes an
#: OUT from it.  It has a name of its own, so that a wrapper put in place
#: of ``is_nonneg`` (a call counter, a tracer) leaves it working.
kept_nonneg = is_nonneg.kept


def is_strictly_positive(f: SymFormP) -> bool:
    """True iff f > 0 away from the origin (numeric scope).

    False when the coefficient sum, f at the all-ones point, is <= 0, its
    sign read on the gamma = 0 entries (``sos._gamma_zero_entries``).
    Then True when the gamma = 0 blocks of ``sos`` are strictly feasible:
    A positive definite gives f >= lambda_min(A) p_2^2 > 0 at every n, as
    the hook square of B is >= 0.  Otherwise the interior weights k <= n/2
    of the grid W_n decide it (``_grid``), by strict positivity of the
    binary quartic, as the one at n - k is the one at k reversed; at the
    two end weights the binary form is the coefficient sum times y^4 or
    x^4, which the first test has read.
    """
    if f.scope is LIMIT:
        raise ValueError("strict positivity test requires a numeric scope")
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if sum(_gamma_zero_entries(f)[1][2:]) <= 0:
        return False
    if _gamma_zero_class(f) == 2:
        return True
    n, nums = f.scope, f.nums
    return all(binary_quartic_strictly_positive(_phi_ints(nums, k, n - k, n)) for k in _grid(f))


# ---------------------------------------------------------------------------
# limit cone
# ---------------------------------------------------------------------------


def _limit_negative_point(f: SymFormP):
    """A witness ((alpha, 1 - alpha), (x, y)) with Phi_f < 0 there, or
    None if no two-point measure makes Phi_f negative, read off the
    integer gamma = 0 entries (b22, b12, a22, s, c0) of
    ``sos._gamma_zero_entries``, whose last three sum to the coefficient
    sum; every branch reads those integers, and Fractions are made only
    for the returned witness.

    A measure with mean 1, variance v and x + y = b has p_2 = w = 1 + v,
    p_3 = w + b v and p_4 = w^2 + b^2 v, so Phi_f = F(v, b) =
    a22 w^2 + s w + c0 + v (b22 b^2 + 2 b12 b), on the entries over their
    positive scale d.  The branches: the coefficient sum (v = 0); a22 < 0
    at mean 0; b22 < 0 at the point (1, 0) and a small alpha; else a
    rational v > 0 with inf_b F(v, .) < 0 (``_negative_variance``) and a
    rational point on it.

    For rational t = p/q > 0, x = 1 + v/t, y = 1 - t and
    alpha = t^2 / (v + t^2) have mean 1 and variance v, and
    b = 2 + v/t - t runs over all of R as t runs over (0, oo).
    ``_variance_t`` picks (p, q) in closed form: where b22 > 0, near the
    root t0 of b(t) = b* = -b12/b22, which minimises F(v, .), by integer
    square roots; where b22 = 0, as a power of 2.  A candidate is kept
    only when F(v, b(t)) < 0 exactly, and F(v, b(t)) is Phi_f at the
    returned point, so that test is the witness check.  With v = V/W the
    witness is alpha = W p^2 / (W p^2 + V q^2), x = (W p + V q) / (W p)
    and y = (q - p) / q.
    """
    entries = _gamma_zero_entries(f)[1]
    b22, b12, a22, s, c0 = entries
    if a22 + s + c0 < 0:  # Phi^{1/2}(1, 1), the alpha in {0, 1} test
        return (_ZERO, _ONE), (_ZERO, _ONE)
    if a22 < 0:  # mean 0: p_2 = p_4 = 1, p_1 = p_3 = 0, Phi_f = a22
        return (_HALF, _HALF), (_ONE, -_ONE)
    if b22 < 0:
        # at (1, 0), Phi_f / alpha = c4 + (c31 + c22) alpha + c211 alpha^2
        # + c1111 alpha^3 <= c4 + alpha rest for alpha <= 1, which is < 0 at
        # alpha = |c4| / (|c4| + rest).  Over the entries' scale, c4 is b22
        # and rest is |2 b12 + a22 - b22| + |s - 2 b12| + |c0|
        rest = abs(2 * b12 + a22 - b22) + abs(s - 2 * b12) + abs(c0)
        return (Fraction(b22, b22 - rest), Fraction(rest, rest - b22)), (_ONE, _ZERO)
    v = _negative_variance(*entries)
    if v is None:
        return None
    V, W = v.numerator, v.denominator
    p, q = _variance_t(v, *entries)
    wp, vq = W * p * p, V * q * q
    weights = Fraction(wp, wp + vq), Fraction(vq, wp + vq)
    return weights, (Fraction(W * p + V * q, W * p), Fraction(q - p, q))


def _variance_t(v: Fraction, b22: int, b12: int, a22: int, s: int, c0: int) -> tuple[int, int]:
    """(p, q), q > 0: a rational t = p/q > 0 with F(v, b(t)) < 0 at
    b(t) = 2 + v/t - t, for the variance v of ``_negative_variance`` and
    the integer gamma = 0 entries (``_limit_negative_point``; d F is the
    same expression in them).

    The test is the sign of Phi_f at the witness itself, in integers: with
    v = V/W, t = p/q and m = W p q, b = B/m for B = 2m + V q^2 - W p^2,
    and W^2 m^2 d F = g m^2 + V W B (b22 B + 2 b12 m), where
    g = W^2 d F(v, 0).  It is homogeneous of degree 4 in (p, q), so it
    takes each candidate as the integers it is built from, in lowest
    terms or not.  b(t) falls strictly from +oo to -oo on (0, oo), so the
    t that pass form one open interval.

    With b22 = 0, F is linear in b, the interval is unbounded above
    (b12 > 0) or reaches down to 0 (b12 < 0; with b12 = 0 it is all of
    (0, oo)), and t is 2^j or 2^-j, the candidate (2^j, 1) or (1, 2^j),
    for the least j >= 0 that passes, found by doubling j and then
    bisecting.  With b22 > 0, F(v, b) = G(1 + v) + v b22 (b - b*)^2 with
    b* = -b12/b22 and G(1 + v) < 0, so the interval holds the positive
    root t0 = (c + sqrt(r)) / 2, r = c^2 + 4v, of t^2 - c t - v with
    c = 2 - b*, where b(t0) = b*.  Rounding c 2^j and, by an integer
    square root, sqrt(r) 2^j down gives the integer ends lo = base and
    hi = base + 2 over 2^(j+1), with lo <= t0 < hi.  For j = 1, 2, 4, ...
    until both ends pass, after which so does everything between them;
    the simplest rational there (``algebra._simplest_between_ints``, on
    the same integers) is returned.  No root is isolated.
    """
    V, W = v.numerator, v.denominator
    u = W + V  # W (1 + v)
    g = (a22 * u + s * W) * u + c0 * W * W

    def negative(p: int, q: int) -> bool:
        m = W * p * q
        B = 2 * m + V * q * q - W * p * p
        return g * m * m + V * W * B * (b22 * B + 2 * b12 * m) < 0

    if b22 == 0:

        def power(j: int) -> tuple[int, int]:
            return (1 << j, 1) if b12 > 0 else (1, 1 << j)

        # the least passing j: passes at hi, fails at lo (or lo = -1)
        lo, hi = -1, 0
        while not negative(*power(hi)):
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if negative(*power(mid)) else (mid, hi)
        return power(hi)
    cn, cd = 2 * b22 + b12, b22  # c = cn / cd
    rn, rd = cn * cn * W + 4 * V * cd * cd, cd * cd * W  # r = rn / rd
    j = 1
    while True:
        base, den = (cn << j) // cd + isqrt((rn << 2 * j) // rd), 2 << j
        if base > 0 and negative(base, den) and negative(base + 2, den):
            return _simplest_between_ints(base, den, base + 2, den)
        j *= 2


def _negative_variance(b22: int, b12: int, a22: int, s: int, c0: int) -> Fraction | None:
    """A rational v > 0 with inf_b F(v, b) < 0 (``_limit_negative_point``)
    from the integer gamma = 0 entries, when b22, a22 >= 0 and the
    coefficient sum is >= 0, or None if there is none.

    With b22 = 0 != b12, F is linear in b and v = 1 will do.  Otherwise
    inf_b F(v, .) = G(w) = a22 w^2 + (s - k) w + c0 + k at w = 1 + v, with
    k = b12^2 / b22 (0 when b22 = 0), and G(1) is the coefficient sum.
    G < 0 somewhere on w > 1 iff it is at the vertex (a22 > 0), or, when
    a22 = 0, iff the slope s - k is negative, and then at
    w = 1 + (c0 + k) / (k - s), where G = s - k.  v is homogeneous of
    degree 0 in the entries, so their common scale does not change it,
    and the tests read integers: with k = K / L (L = b22, or 1 when
    b22 = 0), the vertex is w = N / M for N = K - s L and M = 2 a22 L,
    and L G(N / M) = c0 L + K - N^2 / (2M).
    """
    if b22 == 0 and b12 != 0:
        return _ONE
    K, L = (b12 * b12, b22) if b22 else (0, 1)  # k = K / L
    if a22 > 0:
        N, M = K - s * L, 2 * a22 * L
        if N > M and N * N > 2 * M * (c0 * L + K):
            return Fraction(N - M, M)
        return None
    return Fraction(c0 * L + K, K - s * L) if s * L < K else None


def _require_limit_quartic(f: SymFormP) -> None:
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is not LIMIT:
        raise ValueError("LIMIT-scope decision; use is_nonneg for numeric scopes")


def is_nonneg_limit(f: SymFormP) -> NonnegVerdict:
    """Membership in the limit nonnegativity cone (LIMIT scope).

    IN exactly when f is in the limit SOS cone, which is sound because a
    sum of squares is nonnegative, read on the class of the gamma = 0
    blocks of ``sos`` (``sos._gamma_zero_class``) with no certificate
    built.  Otherwise the OUT verdict carries a
    negative point read off the gamma = 0 entries that decided it
    (``_limit_negative_point``), with no alpha-cells; finding none would
    contradict the paper's degree-4 theorem, and raises.
    """
    _require_limit_quartic(f)
    if _gamma_zero_class(f):
        return _IN
    witness = _limit_negative_point(f)
    if witness is None:
        raise AssertionError(
            "internal error: limit SOS OUT but Phi^alpha >= 0 on [0, 1], "
            "contradicting the degree-4 limit theorem"
        )
    return NonnegVerdict("OUT", witness)


def boundary_status_limit(f: SymFormP) -> BoundaryVerdict:
    """INTERIOR/BOUNDARY/OUTSIDE status relative to the limit cone, which is
    the limit SOS cone (degree-4 theorem), read off the gamma = 0 blocks
    (``sos.sos_boundary``); the zero form raises ValueError."""
    _require_limit_quartic(f)
    status, y = sos_boundary(f)
    return _NO_WITNESS[status] if y is None else BoundaryVerdict(status, y)
