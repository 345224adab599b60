"""Nonnegativity decisions for symmetric quartics.

Limit cone: f is in the limit nonnegativity cone iff Phi^alpha(x, y) =
Phi_f(alpha, 1-alpha, x, y) is nonnegative for every alpha in [0, 1].  For
quartics this cone equals the limit SOS cone (Blekherman & Riener,
arXiv:1205.3102), so both limit decisions read the signs of the gamma = 0
blocks of ``sos``; IN needs no theorem, as a sum of squares is
nonnegative.  OUT still carries a negative point, found by testing the
endpoints as scalars and one rational alpha per open alpha-cell; finding
none would contradict the theorem, and raises.

The critical alpha values that cut those cells (and the finite-n cells
below) come from one projection over Z[alpha].  With P =
Phi^alpha(x, 1) (top coefficients that vanish identically dropped), the
principal signed subresultant (Sturm-Habicht) coefficients of P and dP/dx
are integer polynomials in alpha, Sylvester-Habicht determinants of at
most 7 x 7 evaluated fraction-free (Bareiss).  Where lc(P) != 0, the first
of them that is not identically zero vanishes exactly where deg gcd(P,
P') rises, so on the cells cut at the roots of both P has a constant
number of distinct roots of constant multiplicities, and every verdict is
constant.  In the generic case that coefficient is +-lc(P) disc(P), and the
discriminant of ``disc_binary_quartic`` is used as it is.

Finite n: by the half-degree principle a symmetric quartic is nonnegative
(strictly positive) iff Phi^alpha is, for every weight alpha = k/n of the
grid W_n.  On the open alpha-cells both properties are constant, so from
``_CELL_MIN_N`` on the decisions test only the grid weights the cells pick:
k = 0 and n, the weights inside each breakpoint's isolating interval
refined to width 1/n, and the first weight right of each interval.  That
is a bounded number of tests whatever n is.  Below ``_CELL_MIN_N`` they walk
all n + 1 weights, because building the cells then costs more than the
walk.  On both paths ``is_nonneg`` returns the first failing grid weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm

from .algebra import (
    UniPoly,
    _zmul,
    _zquo,
    _zsub,
    binary_quartic_negative_point,
    binary_quartic_nonneg,
    binary_quartic_strictly_positive,
    cells,
    disc_binary_quartic,
    refine_root_interval,
)
from .dualcone import DualFunctional
from .sos import sos_boundary_limit, sos_membership_limit
from .symfunc import LIMIT, SymFormP, phi_alpha_coeffs

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


# ---------------------------------------------------------------------------
# finite n
# ---------------------------------------------------------------------------


#: Below this n the finite-n decisions walk all n + 1 grid weights.  Mean
#: over the 21 distinct nonnegative forms of the benchmark's large_n seeds
#: 1-2, min of 3 runs, 2-vCPU VM: a direct weight test costs about 0.1 ms,
#: the cell path a flat 1.6-2.3 ms per is_nonneg and 0.7-1.0 ms per
#: is_strictly_positive; the walk and the cells cross at n = 16-20 for
#: is_nonneg, 10-12 for is_strictly_positive and 14-16 for the pair.
_CELL_MIN_N = 16


def _alpha_coeffs(f: SymFormP) -> tuple[UniPoly, ...]:
    """The alpha-polynomial coefficients of Phi^alpha (``phi_alpha_coeffs``)
    times their common denominator: five integer polynomials, a positive
    multiple of Phi^alpha at every alpha.

    The decisions below read only signs, real zeros and critical alpha
    values of Phi^alpha, which a positive factor leaves alone, and a
    negative point of a positive multiple is a negative point of Phi^alpha.
    """
    cs = phi_alpha_coeffs(f)
    den = lcm(*(c.denominator for u in cs for c in u.coeffs))
    return tuple(
        UniPoly([c.numerator * (den // c.denominator) for c in u.coeffs]) for u in cs
    )


def _phi_at(cs, alpha: Fraction) -> tuple[int, ...]:
    """q**4 times the binary quartic of the integer coefficients ``cs``
    (``_alpha_coeffs``) at alpha = p/q: a positive integer multiple of
    Phi^alpha, by homogeneous integer Horner."""
    p, q = alpha.numerator, alpha.denominator
    w = [p**j * q ** (4 - j) for j in range(5)]
    return tuple(sum(c * x for c, x in zip(u.coeffs, w)) for u in cs)


def _tested_ks(cs, n: int) -> list[int]:
    """Ascending k whose weights (k/n, (n-k)/n) decide Phi^alpha >= 0 (and
    > 0) on the whole grid W_n, for the alpha-coefficients ``cs`` of f
    (``_alpha_coeffs``).

    Below ``_CELL_MIN_N`` this is every k.  Otherwise: k = 0 and n, every
    k/n in each breakpoint interval refined to width <= 1/n (which holds
    the breakpoint itself when it is some k/n), and the smallest k/n to the
    right of each breakpoint interval and of 0.  The status is constant on
    the open cells, and the first grid weight of every cell is in the list,
    so the first failing k is the first failing k of the whole grid.
    """
    if n < _CELL_MIN_N:
        return list(range(n + 1))
    alpha_cells = cells(_critical_polys(cs), _ZERO, _ONE)
    width = Fraction(1, n)
    ks = {0, 1, n}
    for a, b in alpha_cells.breakpoints:
        a, b = refine_root_interval(alpha_cells.product, a, b, width)
        ks.update(range(ceil(a * n), floor(b * n) + 2))
    return sorted(ks)


def is_nonneg(f: SymFormP) -> NonnegVerdict:
    """Half-degree-principle decision over the grid W_n (numeric scope)."""
    if f.scope is LIMIT:
        raise ValueError("use is_nonneg_limit for LIMIT-scope forms")
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    n = f.scope
    cs = _alpha_coeffs(f)
    for k in _tested_ks(cs, n):
        alpha = Fraction(k, n)
        h = _phi_at(cs, alpha)
        if not binary_quartic_nonneg(h):
            point = binary_quartic_negative_point(h)
            return NonnegVerdict("OUT", ((alpha, 1 - alpha), point))
    return NonnegVerdict("IN")


def is_strictly_positive(f: SymFormP) -> bool:
    """True iff f > 0 away from the origin (numeric scope).

    At interior grid weights this is strict positivity of the binary
    quartic; at the two zero-weight endpoints the binary form degenerates
    to a scalar times y^4 (the x variable carries weight zero), so only the
    scalar sum of coefficients must be positive.
    """
    if f.scope is LIMIT:
        raise ValueError("strict positivity test requires a numeric scope")
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    n = f.scope
    total = sum(f.coeffs, _ZERO)
    if total <= 0:
        return False
    cs = _alpha_coeffs(f)
    for k in _tested_ks(cs, n):
        if k == 0 or k == n:
            continue  # covered by the scalar test above
        if not binary_quartic_strictly_positive(_phi_at(cs, Fraction(k, n))):
            return False
    return True


# ---------------------------------------------------------------------------
# limit cone: critical alpha values and cells
# ---------------------------------------------------------------------------


def _x_poly(cs) -> list[list[int]]:
    """P = Phi^alpha(x, 1) over Z[alpha] for the alpha-coefficients ``cs``
    (``_alpha_coeffs``): ``P[i]`` is the coefficient of x^i as an integer
    list in alpha, and top coefficients that vanish identically are
    dropped."""
    P = [list(c.coeffs) for c in reversed(cs)]
    while P and not P[-1]:
        P.pop()
    return P


def _bareiss_det(m: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[alpha] (entries integer
    lists), fraction-free: each 2 x 2 cross product is divided exactly by
    the previous pivot."""
    m = [row[:] for row in m]
    size, negate, prev = len(m), False, [1]
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            negate = not negate
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                cross = _zsub(_zmul(m[i][j], pivot), _zmul(m[i][k], m[k][j]))
                m[i][j] = _zquo(cross, prev) if cross else []
        prev = pivot
    det = m[-1][-1]
    return [-c for c in det] if negate else det


def _signed_subresultants(P: list[list[int]]) -> list[list[int]]:
    """The principal signed subresultant coefficients sRes_d, ..., sRes_0
    of P (``_x_poly``, degree d in x) and dP/dx, integer lists in alpha.

    sRes_d = lc(P) and sRes_{d-1} = d lc(P); for j <= d - 2, sRes_j is the
    determinant of the first 2d - 1 - 2j columns of the Sylvester-Habicht
    matrix, whose rows are x^(d-2-j) P, ..., P, then P', ..., x^(d-1-j) P'
    (Basu, Pollack & Roy, Algorithms in Real Algebraic Geometry, ch. 4).
    Their values at an alpha with lc(P) != 0 are those of P at that alpha.
    """
    d = len(P) - 1
    dP = [_zmul([i], P[i]) for i in range(1, d + 1)]
    out = [P[-1], dP[-1]] if d >= 1 else [P[-1]]
    for j in range(d - 2, -1, -1):
        rows = [(P, s) for s in range(d - 2 - j, -1, -1)] + [(dP, s) for s in range(d - j)]
        cols = range(2 * d - 2 - j, j - 1, -1)
        out.append(_bareiss_det([
            [poly[e - s] if 0 <= e - s < len(poly) else [] for e in cols]
            for poly, s in rows
        ]))
    return out


def _critical_polys(cs) -> list[UniPoly]:
    """Polynomials in alpha whose roots in (0,1) delimit the cells on which
    the sign/root structure of Phi^alpha is constant; ``cs`` are the
    alpha-polynomial coefficients of Phi^alpha (``_alpha_coeffs``).

    The leading coefficient of P = Phi^alpha(x, 1) and the first principal
    signed subresultant coefficient of P and P' that is not identically
    zero (``_signed_subresultants``); generically that is +-lc disc, and
    then the alpha-discriminant stands for it.
    """
    lead = cs[0]
    if not lead.is_zero():
        delta = disc_binary_quartic(cs)
        if not delta.is_zero():
            return [p for p in (delta, lead) if p.degree > 0]
    P = _x_poly(cs)
    if not P:
        return []
    sres = _signed_subresultants(P)
    first = next(c for c in reversed(sres) if c)
    return [UniPoly(c) for c in (sres[0], first) if len(c) > 1]


def _limit_negative_point(f: SymFormP):
    """A witness ((alpha, 1 - alpha), (x, y)) with Phi_f < 0 there, or
    None if Phi^alpha >= 0 for every alpha in [0, 1]: the scalar test at
    alpha in {0, 1}, then one rational alpha per open alpha-cell."""
    if sum(f.coeffs, _ZERO) < 0:  # Phi^{1/2}(1, 1), the alpha in {0, 1} test
        return (_ZERO, _ONE), (_ZERO, _ONE)
    cs = _alpha_coeffs(f)
    for alpha in cells(_critical_polys(cs), _ZERO, _ONE).samples:
        h = _phi_at(cs, alpha)
        if not binary_quartic_nonneg(h):
            return (alpha, 1 - alpha), binary_quartic_negative_point(h)
    return None


def _require_limit_quartic(f: SymFormP) -> None:
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is not LIMIT:
        raise ValueError("LIMIT-scope decision; use is_nonneg for numeric scopes")


def is_nonneg_limit(f: SymFormP) -> NonnegVerdict:
    """Membership in the limit nonnegativity cone (LIMIT scope).

    IN exactly when f is in the limit SOS cone, which is sound because a
    sum of squares is nonnegative.  Otherwise the alpha-cells are searched
    for the negative point that the OUT verdict carries; finding none
    would contradict the paper's degree-4 theorem, and raises.
    """
    _require_limit_quartic(f)
    if sos_membership_limit(f).status == "IN":
        return NonnegVerdict("IN")
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
    (``sos.sos_boundary_limit``)."""
    _require_limit_quartic(f)
    if f.is_zero():
        raise ValueError("boundary status of the zero form is undefined")
    return BoundaryVerdict(*sos_boundary_limit(f))
