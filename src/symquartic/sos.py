"""Membership in the symmetric-SOS cones with rational block certificates.

A symmetric quartic is a symmetric sum of squares exactly when its five
coefficients (canonical order ``(4), (3,1), (2,2), (2,1,1), (1,1,1,1)``)
can be matched by the block decomposition

    f = a11 p_(1^4) + 2 a12 p_(2,1^2) + a22 p_(2^2)
        + b11 (p_(2,1^2) - p_(1^4)) + 2 b12 (p_(3,1) - p_(2,1^2))
        + b22 (p_(4) - p_(2^2))
        + gamma ( 1/2 p_(1^4) - p_(2,1^2) + ((n^2-3n+3)/(2n^2)) p_(2^2)
                  + ((2n-2)/n^2) p_(3,1) + ((1-n)/(2n^2)) p_(4) )

with the alpha-block [[a11, a12], [a12, a22]] and the beta-block
[[b11, b12], [b12, b22]] both PSD and gamma >= 0.  In the limit cone the
scalar-block generator degenerates to (1/2)(p_2 - p_1^2)^2, which already
lies in the span of the alpha-block, so gamma = 0 is forced there.

The matching equations leave two free parameters (gamma and b11 = u); for
fixed gamma the PSD constraints on u are linear lower bounds intersected
with one concave-quadratic condition, so feasibility is decided exactly by
a one-dimensional analysis.  Feasibility over gamma is decided on the
cells of the shared cell engine (``algebra.cells``), cut at the roots of
the finitely many polynomials (in gamma) at which the one-dimensional
answer can change: the scan tests both ends of the admissible gamma range,
every rational breakpoint and one rational sample per open cell.  The
feasible (gamma, u) region is convex (the blocks are affine in (gamma,
u)), hence the feasible gamma values form one closed interval, and the
scan misses it only when it is a single breakpoint inside an isolating
interval.  That breakpoint is tested exactly at the root of its owner
factor: a linear owner gives a rational root and a certificate, a higher
degree owner gives an irrational gamma, tested by exact arithmetic in its
algebraic field.

An OUT verdict at a numeric scope is backed by a rational dual functional
(``find_separating_functional``), found by a search that is complete:

1. the SOS cone is closed, so a form outside it pairs negatively with some
   extreme ray of the dual cone K*, and a face-dimension count shows that
   both 2x2 dual blocks have rank <= 1 on every extreme ray;
2. those rays lie in two rational charts: the two-parameter s-chart
   l(s, z) (y1111 = 1) and the segment (1 + w, 0, 1, 0, 0),
   0 <= w <= (n-2)^2/(n-1) (y1111 = 0), whose two ends suffice;
3. in the s-chart the two-row block tau is >= 0 exactly on the closure of
   {tau > 0}, so the s-chart separates iff the open set {q < 0, tau > 0}
   (q the pairing with f) is nonempty; it is cut out by the signs of two
   quadratics in z, so one sample per open cell of a two-level cell
   decomposition (over s, then over z) finds a point of it if it has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraicField,
    SymMat2,
    UniPoly,
    _zpoly,
    _zroot_bound,
    cells,
    psd2,
    simplest_rational_between,
)
from .dualcone import DualFunctional, dual_membership, pair
from .symfunc import LIMIT, SymFormP

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class SosCertificate:
    """Block data (A, B, gamma) of a symmetric-SOS decomposition.

    ``A`` is the alpha-block over (p_1^2, p_2) products, ``B`` the
    beta-block over the hook generators, ``gamma`` the coefficient of the
    scalar-block generator.  Valid certificates have both blocks PSD and
    gamma >= 0 (gamma = 0 under LIMIT scope).
    """

    A: SymMat2
    B: SymMat2
    gamma: Fraction
    scope: object

    def is_valid(self) -> bool:
        return psd2(self.A) and psd2(self.B) and self.gamma >= 0 and (
            self.scope is not LIMIT or self.gamma == 0
        )


@dataclass(frozen=True)
class SosVerdict:
    """IN/OUT verdict.  IN normally carries a verified rational
    certificate; ``note`` flags the degenerate case where the only
    feasible decomposition sits at a single irrational gamma and no
    rational certificate exists in this parametrization.  An OUT verdict
    at a numeric scope is backed by the separating dual functional that
    ``find_separating_functional`` returns."""

    status: str  # "IN" | "OUT"
    certificate: SosCertificate | None = None
    note: str | None = None


def _gamma_gen_coeffs(scope) -> tuple[Fraction, ...]:
    """Canonical-order coefficients of the scalar-block generator."""
    if scope is LIMIT:
        return (_ZERO, _ZERO, _HALF, Fraction(-1), _HALF)
    n = scope
    return (
        Fraction(1 - n, 2 * n * n),
        Fraction(2 * n - 2, n * n),
        Fraction(n * n - 3 * n + 3, 2 * n * n),
        Fraction(-1),
        _HALF,
    )


def expand_certificate(cert: SosCertificate) -> SymFormP:
    """The exact coefficient vector of the block decomposition."""
    scope = cert.scope
    if scope is LIMIT:
        if cert.gamma != 0:
            raise ValueError("LIMIT certificates require gamma = 0")
    elif not isinstance(scope, int) or scope < 4:
        raise ValueError("certificate scope must be an integer >= 4 or LIMIT")
    A, B, g = cert.A, cert.B, cert.gamma
    g4, g31, g22, g211, g1111 = _gamma_gen_coeffs(scope)
    return SymFormP(
        4,
        (
            B.m22 + g * g4,
            2 * B.m12 + g * g31,
            A.m22 - B.m22 + g * g22,
            2 * A.m12 + B.m11 - 2 * B.m12 + g * g211,
            A.m11 - B.m11 + g * g1111,
        ),
        scope,
    )


# ---------------------------------------------------------------------------
# one-dimensional feasibility at fixed gamma
# ---------------------------------------------------------------------------


def _sign(x) -> int:
    """Exact sign of a Fraction or of an algebraic-field element."""
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    return x.sign()


def _u_feasible(c, scope, gamma):
    """Feasibility of the free parameter u = b11 at a fixed gamma.

    ``gamma`` may be a Fraction or an algebraic-field element; all tests
    are exact sign evaluations.  Returns (feasible, u) where u is a
    witness value (the smallest rational one when gamma is rational:
    either the binding lower bound or the vertex of the concave
    determinant quadratic).
    """
    c4, c31, c22, c211, c1111 = c
    if scope is LIMIT:
        w1 = w2 = w3 = _ZERO  # gamma multipliers vanish at gamma = 0
    else:
        n = scope
        w1 = Fraction(n - 1, 2 * n * n)  # b22 slope
        w2 = Fraction(n - 1, n * n)  # -b12 slope
        w3 = Fraction((n - 2) * (n - 2), 2 * n * n)  # -a22 slope
    b22 = c4 + gamma * w1
    b12 = c31 / 2 - gamma * w2
    a22 = c22 + c4 - gamma * w3
    s_b22 = _sign(b22)
    if s_b22 < 0 or _sign(a22) < 0:
        return False, None
    if s_b22 == 0 and _sign(b12) != 0:
        return False, None
    # lower bounds on u
    lower = gamma / 2 - c1111  # a11 >= 0
    if _sign(lower) < 0:
        lower = _ZERO  # u >= 0
    if s_b22 > 0:
        hook = b12 * b12 / b22  # u * b22 >= b12^2
        if _sign(hook - lower) > 0:
            lower = hook
    # concave quadratic Q(u) = a11 a22 - a12^2 = -u^2/4 + q1 u + q0
    s = c211 + 2 * b12 + gamma
    q1 = a22 + s / 2
    q0 = (c1111 - gamma / 2) * a22 - s * s / 4
    q_at_lower = -lower * lower / 4 + q1 * lower + q0
    if _sign(q_at_lower) >= 0:
        return True, lower
    vertex = 2 * q1
    disc = q1 * q1 + q0  # Q(vertex)
    if _sign(disc) >= 0 and _sign(vertex - lower) > 0:
        return True, vertex
    return False, None


def _assemble(f: SymFormP, gamma: Fraction, u: Fraction) -> SosCertificate:
    c4, c31, c22, c211, c1111 = f.coeffs
    if f.scope is LIMIT:
        b22, b12, a22 = c4, c31 / 2, c22 + c4
    else:
        n = f.scope
        b22 = c4 + gamma * Fraction(n - 1, 2 * n * n)
        b12 = c31 / 2 - gamma * Fraction(n - 1, n * n)
        a22 = c22 + c4 - gamma * Fraction((n - 2) * (n - 2), 2 * n * n)
    s = c211 + 2 * b12 + gamma
    cert = SosCertificate(
        SymMat2(c1111 + u - gamma / 2, (s - u) / 2, a22),
        SymMat2(u, b12, b22),
        gamma,
        f.scope,
    )
    if not cert.is_valid() or expand_certificate(cert) != f:
        raise AssertionError("internal error: certificate failed verification")
    return cert


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def sos_membership_limit(f: SymFormP) -> SosVerdict:
    """Membership in the limit SOS cone (LIMIT scope; gamma = 0 forced)."""
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is not LIMIT:
        raise ValueError("use sos_membership for numeric scopes")
    ok, u = _u_feasible(f.coeffs, LIMIT, _ZERO)
    if not ok:
        return SosVerdict("OUT")
    return SosVerdict("IN", certificate=_assemble(f, _ZERO, u))


def _breakpoint_polys(f: SymFormP) -> list[UniPoly]:
    """Polynomials in gamma across whose roots u-feasibility can change."""
    c4, c31, c22, c211, c1111 = f.coeffs
    n = f.scope
    w1 = Fraction(n - 1, 2 * n * n)
    w2 = Fraction(n - 1, n * n)
    w3 = Fraction((n - 2) * (n - 2), 2 * n * n)
    b22 = UniPoly([c4, w1])
    b12 = UniPoly([c31 / 2, -w2])
    a22 = UniPoly([c22 + c4, -w3])
    s = UniPoly([c211 + c31, 1 - 2 * w2])
    cp = UniPoly([c1111, -_HALF])  # c1111 - gamma/2
    l1 = -cp  # lower bound a11 >= 0
    q1 = a22 + s.scale(_HALF)
    q0 = a22 * cp - (s * s).scale(Fraction(1, 4))
    disc = q1 * q1 + q0
    b12sq = b12 * b12
    polys = [
        b22,
        b12,
        a22,
        disc,
        q0,  # Q at u = 0
        (l1 * l1).scale(Fraction(-1, 4)) + q1 * l1 + q0,  # Q at u = l1
        (b12sq * b12sq).scale(Fraction(-1, 4))
        + q1 * b12sq * b22
        + q0 * b22 * b22,  # Q at u = b12^2/b22, cleared by b22^2
        q1,  # vertex vs 0
        q1.scale(Fraction(2)) - l1,  # vertex vs l1
        q1.scale(Fraction(2)) * b22 - b12sq,  # vertex vs b12^2/b22, cleared
    ]
    return [p for p in polys if not p.is_zero() and p.degree > 0]


def sos_membership(f: SymFormP) -> SosVerdict:
    """Membership in the symmetric-SOS cone at the form's numeric scope."""
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is LIMIT:
        raise ValueError("use sos_membership_limit for LIMIT-scope forms")
    n = f.scope
    if n < 4:
        raise ValueError("scope must be at least 4")
    c4, c31, c22, c211, c1111 = f.coeffs
    # admissible gamma range from b22 >= 0 (increasing) and a22 >= 0
    # (strictly decreasing in gamma)
    lo = _ZERO if c4 >= 0 else Fraction(-c4) * Fraction(2 * n * n, n - 1)
    if c22 + c4 < 0:
        return SosVerdict("OUT")
    hi = (c22 + c4) * Fraction(2 * n * n, (n - 2) * (n - 2))
    if lo > hi:
        return SosVerdict("OUT")

    gamma_cells = cells(_breakpoint_polys(f), lo, hi)
    point_breaks = {a for a, b in gamma_cells.breakpoints if a == b}
    for gamma in sorted({lo, hi} | point_breaks | set(gamma_cells.samples)):
        ok, u = _u_feasible(f.coeffs, n, gamma)
        if ok:
            return SosVerdict("IN", certificate=_assemble(f, gamma, u))

    # remaining possibility: feasibility only at a single breakpoint that
    # sits inside an isolating interval; breakpoints lie in (lo, hi), so
    # gamma > 0 there
    for (a, b), owner in zip(gamma_cells.breakpoints, gamma_cells.owners()):
        if a == b:
            continue  # tested above
        if owner.degree == 1:
            gamma = -owner.coeffs[0]  # the owner is monic
            ok, u = _u_feasible(f.coeffs, n, gamma)
            if ok:
                return SosVerdict("IN", certificate=_assemble(f, gamma, u))
        elif _u_feasible(
            f.coeffs, n, AlgebraicField(owner, a, b).elem(UniPoly([_ZERO, _ONE]))
        )[0]:
            return SosVerdict(
                "IN",
                note=(
                    "feasible only at a single irrational gamma "
                    f"isolated by ({a}, {b}); no rational certificate "
                    "exists in this parametrization"
                ),
            )
    return SosVerdict("OUT")


# ---------------------------------------------------------------------------
# exact, complete dual separators for OUT verdicts
# ---------------------------------------------------------------------------


def _chart_quadratic(v) -> tuple[UniPoly, UniPoly, UniPoly]:
    """The pairing of the s-chart functional l(s, z) with the coefficient
    vector v, as a quadratic a z^2 + b z + c in z; a, b, c are polynomials
    in s.  With t = 1 + s^2: a = v4, b = v31 s and
    c = (v4 + v22) t^2 + (v31 + v211) t + v1111."""
    v4, v31, v22, v211, v1111 = v
    sq, lin = v4 + v22, v31 + v211
    return (
        UniPoly([v4]),
        UniPoly([_ZERO, v31]),
        UniPoly([sq + lin + v1111, _ZERO, 2 * sq + lin, _ZERO, sq]),
    )


def _s_projection(q, tau) -> list[UniPoly]:
    """Polynomials in s across whose roots alone the number and the order
    of the real z-roots of q and tau can change: the discriminant of each
    (for q of z-degree 1 its leading coefficient, of z-degree 0 q itself)
    and their resultant.  The resultant vanishes identically only when q
    is a multiple of tau (f a multiple of the scalar-block generator), and
    then q < 0 < tau holds nowhere or on all of {tau > 0}."""
    (a1, b1, c1), (a2, b2, c2) = q, tau
    ac, ab, bc = a1 * c2 - a2 * c1, a1 * b2 - a2 * b1, b1 * c2 - b2 * c1
    polys = [
        b1 * b1 - a1 * c1.scale(4) if a1 else b1 if b1 else c1,
        b2 * b2 - a2 * c2.scale(4),
        ac * ac - ab * bc,
    ]
    return [p for p in polys if p.degree > 0]


def _root_bound(polys) -> Fraction:
    """A bound B > 0 with every real root of the polynomials in (-B, B)."""
    return max((_zroot_bound(_zpoly(p.coeffs)) for p in polys), default=_ONE)


def _simple_samples(lo: Fraction, hi: Fraction, polys) -> list[Fraction]:
    """A rational of small height in each open cell that the real roots of
    the polynomials cut (lo, hi) into: the simplest one in the middle half
    of the gap between neighbouring isolating intervals."""
    ends = [lo] + [x for ab in cells(polys, lo, hi).breakpoints for x in ab] + [hi]
    return [
        simplest_rational_between((3 * a + b) / 4, (a + 3 * b) / 4)
        for a, b in zip(ends[::2], ends[1::2])
    ]


def find_separating_functional(f: SymFormP):
    """A rational dual functional ell with ell(f) < 0 that is nonnegative on
    every symmetric square at the form's scope n >= 4; None exactly when f
    is a symmetric sum of squares.

    Every returned functional is checked exactly (``pair`` < 0 and
    ``dual_membership``).  Raises ValueError for LIMIT scope.

    The search is complete:

    1. Extreme rays.  The dual cone K* is the preimage of
       PSD_2 x PSD_2 x R_+ (trivial block, hook block, two-row block tau)
       under an injective linear map of R^5, so an extreme ray of K* needs
       a face of that product of dimension <= 3 (the face meets the
       5-dimensional image in a line).  A rank-2 block spans a face of
       dimension 3, so the other block and tau would vanish, which forces
       the first block back to rank <= 1 (both blocks zero force ell = 0);
       so at every extreme ray both blocks have rank <= 1 and tau >= 0.  The
       SOS cone is closed and spans all five dimensions, so K* is pointed
       and the conic hull of its extreme rays, and f is outside the SOS
       cone iff some extreme ray ell of K* has ell(f) < 0.
    2. Two rational charts.  Scaled to y1111 = 1, rank <= 1 blocks are the
       s-chart l(s, z) = (z^2 + t^2, s z + t, t^2, t, 1), t = 1 + s^2
       (trivial block (t, 1)(t, 1)^T, hook block (z, s)(z, s)^T); with
       y1111 = 0 they are (1 + w, 0, 1, 0, 0), and tau >= 0 there means
       0 <= w <= (n-2)^2/(n-1).  On that segment ell(f) is linear in w, so
       its two ends are tested.
    3. An open set.  On the s-chart
       tau = ((n-2)^2 s^4 - (n-1)(z - 2s)^2) / 2, so {tau >= 0} is the
       closure of {tau > 0}, and a separating ray with tau = 0 has
       separating neighbours with tau > 0.  The s-chart thus separates iff
       the open set {q < 0, tau > 0}, q = l(s, z)(f), is nonempty.  It is
       symmetric under (s, z) -> (-s, -z) and defined by the signs of two
       quadratics in z, so it is nonempty iff it holds a sample of the
       open cells cut over s > 0 at the roots of ``_s_projection`` and, at
       each s-sample, over z at the roots of the two quadratics.  Samples
       are rational, so the separator l(s, z) is.
    """
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    n = f.scope
    if n is LIMIT or n < 4:
        raise ValueError("separator search requires a numeric scope >= 4")

    def verified(ell):
        if not (pair(ell, f) < 0 and dual_membership(ell, n)):
            raise AssertionError("internal error: separator failed verification")
        return ell

    c = f.coeffs
    for w in (_ZERO, Fraction((n - 2) ** 2, n - 1)):
        if (1 + w) * c[0] + c[2] < 0:
            return verified(DualFunctional(1 + w, _ZERO, _ONE, _ZERO, _ZERO))

    # the pairing with the scalar-block generator is tau / n^2
    quads = [_chart_quadratic(v) for v in (c, _gamma_gen_coeffs(n))]
    s_polys = _s_projection(*quads)
    for s in _simple_samples(_ZERO, _root_bound(s_polys), s_polys):
        zq, ztau = (UniPoly([c0(s), b0(s), a0(s)]) for a0, b0, c0 in quads)
        z_polys = [p for p in (zq, ztau) if p.degree > 0]
        bound = _root_bound(z_polys)
        t = 1 + s * s
        for z in _simple_samples(-bound, bound, z_polys):
            if zq(z) < 0 and ztau(z) > 0:
                return verified(DualFunctional(z * z + t * t, s * z + t, t * t, t, _ONE))
    if sos_membership(f).status == "OUT":
        raise AssertionError("internal error: no separator found for an SOS-OUT form")
    return None
