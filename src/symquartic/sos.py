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
lies in the span of the alpha-block, so gamma = 0 is forced there, and
the signs at gamma = 0 decide membership, the interior (both blocks
definite) and a supporting functional on the boundary
(``sos_boundary_limit``).

The matching equations leave two free parameters (gamma and b11 = u) and
fix the other block entries as polynomials in gamma (``_block_polys``).
For fixed gamma the PSD constraints on u are three lower bounds (0, from
a11 >= 0 and, cleared of b22, from det B >= 0) and one concave quadratic
Q(u) = det A >= 0, so u-feasibility is a predicate on the signs of ten
polynomials in gamma (``_conditions``, ``_feasible``).  Feasibility over
gamma is decided on the cells of the shared cell engine
(``algebra.cells``), cut at the roots of those polynomials: the scan tests
both ends of the admissible gamma range, every rational breakpoint and one
rational sample per open cell.  The feasible (gamma, u) region is convex
(the blocks are affine in (gamma, u)), hence the feasible gamma values
form one closed interval, and the scan misses it only when it is a single
breakpoint inside an isolating interval.  That breakpoint is tested by
sign queries at the root (``algebra.AlgebraicField``).  If it is feasible,
a condition polynomial vanishes there; a rational root of it in the
interval is the certificate's gamma, and otherwise gamma is irrational.

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
from math import lcm

from .algebra import (
    AlgebraicField,
    SymMat2,
    UniPoly,
    _zpoly,
    _zroot_bound,
    cells,
    psd2,
    rational_roots,
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


def _block_polys(f: SymFormP) -> tuple[UniPoly, ...]:
    """The block entries that the matching equations fix, as polynomials
    in gamma: b22, b12, a22, s = 2 a12 + u and a11 - u (u = b11)."""
    c4, c31, c22, c211, c1111 = f.coeffs
    g4, g31, g22, g211, g1111 = _gamma_gen_coeffs(f.scope)
    return (
        UniPoly([c4, -g4]),
        UniPoly([c31 / 2, -g31 / 2]),
        UniPoly([c22 + c4, -g4 - g22]),
        UniPoly([c211 + c31, -g211 - g31]),
        UniPoly([c1111, -g1111]),
    )


def _conditions(b22, b12, a22, s, a11_u) -> tuple:
    """The ten quantities whose signs decide u-feasibility, from the block
    entries (``_block_polys``) as numbers at one gamma or as polynomials
    in gamma.

    4 det A = -u^2 + 2 v u + r, with the vertex v = 2 a22 + s and
    r = 4 a22 (a11 - u) - s^2; the lower bounds L on u are 0,
    l1 = -(a11 - u) and b12^2/b22.  The list: b22, b12, a22, 4 det A at
    v, then 4 det A at each L and v - L for each L, the last of both
    multiplied by b22^2 and b22.  Each is homogeneous in the entries, so
    entries scaled by a common positive factor give the same signs."""
    l1, hook = -a11_u, b12 * b12
    v = a22 * 2 + s
    r = a22 * a11_u * 4 - s * s
    return (
        b22,
        b12,
        a22,
        v * v + r,
        r,
        (v * 2 - l1) * l1 + r,
        (v * b22 * 2 - hook) * hook + r * b22 * b22,
        v,
        v - l1,
        v * b22 - hook,
    )


def _feasible(signs) -> bool:
    """u-feasibility at one gamma from the signs of ``_conditions``.

    B is PSD iff u >= 0, b22 >= 0, u b22 >= b12^2 (so b22 = 0 forces
    b12 = 0); A is PSD iff a22 >= 0, a11 >= 0 and det A >= 0, a concave
    quadratic in u.  {det A >= 0} is empty unless det A >= 0 at the
    vertex, and then it reaches above a lower bound L iff det A >= 0 at L
    or the vertex is >= L."""
    b22, b12, a22, q_top, *rest = signs
    return (
        min(b22, a22, q_top) >= 0
        and (b22 > 0 or b12 == 0)
        and all(q >= 0 or v >= 0 for q, v in zip(rest[:3], rest[3:]))
    )


def _strictly_feasible(signs) -> bool:
    """Some u makes both blocks positive definite, from the signs of
    ``_conditions``: ``_feasible`` with strict inequalities.

    B is positive definite iff u > 0, b22 > 0 and u b22 > b12^2; A is iff
    a22 > 0 and det A > 0 (a11 > 0 follows).  {det A > 0} is an open
    interval around the vertex, empty unless det A > 0 there, and it
    reaches above a lower bound L iff det A > 0 at L or the vertex is > L."""
    b22, _, a22, q_top, *rest = signs
    return min(b22, a22, q_top) > 0 and all(q > 0 or v > 0 for q, v in zip(rest[:3], rest[3:]))


def _certificate(f: SymFormP, entries, gamma: Fraction) -> SosCertificate:
    """The certificate at a feasible rational gamma, from the block entries
    there (``_block_polys`` at gamma), with the smallest feasible u: the
    largest lower bound if det A >= 0 there, else the vertex."""
    b22, b12, a22, s, a11_u = entries
    u = max(-a11_u, _ZERO)
    if b22 > 0:
        u = max(u, b12 * b12 / b22)
    v = 2 * a22 + s
    if u * u > 2 * v * u + 4 * a22 * a11_u - s * s:
        u = v
    cert = SosCertificate(
        SymMat2(a11_u + u, (s - u) / 2, a22),
        SymMat2(u, b12, b22),
        gamma,
        f.scope,
    )
    if not cert.is_valid() or expand_certificate(cert) != f:
        raise AssertionError("internal error: certificate failed verification")
    return cert


def _signs_at(blocks, gamma: Fraction) -> tuple[list[Fraction], list[int]]:
    """The block entries (``_block_polys``) at a rational gamma and the
    signs of ``_conditions`` there, read on the entries times their common
    denominator, in integer arithmetic."""
    entries = [p(gamma) for p in blocks]
    den = lcm(*(e.denominator for e in entries))
    scaled = [e.numerator * (den // e.denominator) for e in entries]
    return entries, [(x > 0) - (x < 0) for x in _conditions(*scaled)]


def _certificate_at(f: SymFormP, blocks, gamma: Fraction) -> SosCertificate | None:
    """The certificate at a rational gamma, or None if u is infeasible
    there."""
    entries, signs = _signs_at(blocks, gamma)
    return _certificate(f, entries, gamma) if _feasible(signs) else None


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def sos_membership_limit(f: SymFormP) -> SosVerdict:
    """Membership in the limit SOS cone (LIMIT scope; gamma = 0 forced)."""
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is not LIMIT:
        raise ValueError("use sos_membership for numeric scopes")
    cert = _certificate_at(f, _block_polys(f), _ZERO)
    return SosVerdict("OUT") if cert is None else SosVerdict("IN", certificate=cert)


def _kernel(m: SymMat2) -> tuple[Fraction, Fraction] | None:
    """A rational kernel vector of a singular PSD block (e_2 for the zero
    block); None when the block is definite."""
    if m.det():
        return None
    if m.m12:
        return -m.m12, m.m11
    return (_ZERO, _ONE) if m.m22 == 0 else (_ONE, _ZERO)


def sos_boundary_limit(f: SymFormP) -> tuple[str, DualFunctional | None]:
    """("OUTSIDE" | "INTERIOR" | "BOUNDARY", y) for the limit SOS cone
    (LIMIT scope); at a BOUNDARY form y is a supporting functional.

    The cone is the image of PSD_2 x PSD_2 under the block map (A, B) -> f,
    which is onto R^5, so its interior is the image of definite pairs.  A
    functional y pairs with it as tr(Y_A A) + tr(Y_B B), Y_A = [[y1111,
    y211], [y211, y22]], Y_B = [[y211 - y1111, y31 - y211], [y31 - y211,
    y4 - y22]] (both PSD on the limit dual cone), and blocks come from some
    y iff they pair to 0 with the map's kernel direction (da11 = db11 = 1,
    da12 = -1/2).  For kernel vectors k of a singular A and j of a singular
    B, Y_A = lam k k^T and Y_B = mu j j^T pair to 0 with f and to
    lam k1 (k1 - k2) + mu j1^2 with the direction; lam, mu >= 0, not both
    0, make that 0 unless moving along the direction makes both blocks
    definite, which a boundary form rules out.
    """
    if f.degree != 4 or f.scope is not LIMIT:
        raise ValueError("limit boundary status needs a degree-4 LIMIT-scope form")
    entries, signs = _signs_at(_block_polys(f), _ZERO)
    if not _feasible(signs):
        return "OUTSIDE", None
    if _strictly_feasible(signs):
        return "INTERIOR", None
    cert = _certificate(f, entries, _ZERO)
    k, j = _kernel(cert.A), _kernel(cert.B)
    kdir = None if k is None else k[0] * (k[0] - k[1])
    jdir = None if j is None else j[0] * j[0]
    if jdir == 0:
        lam, mu = _ZERO, _ONE
    elif kdir == 0:
        lam, mu = _ONE, _ZERO
    elif kdir is not None and jdir is not None and kdir < 0:
        lam, mu = jdir, -kdir
    else:
        raise AssertionError("internal error: boundary certificate has definite blocks")
    (k1, k2), (j1, j2) = k or (_ZERO, _ZERO), j or (_ZERO, _ZERO)
    ya11, ya12, ya22 = lam * k1 * k1, lam * k1 * k2, lam * k2 * k2
    y = DualFunctional(mu * j2 * j2 + ya22, mu * j1 * j2 + ya12, ya22, ya12, ya11)
    if not any(y.as_tuple()) or pair(y, f) != 0 or not dual_membership(y, LIMIT):
        raise AssertionError("internal error: supporting functional failed verification")
    return "BOUNDARY", y


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

    blocks = _block_polys(f)
    conditions = _conditions(*blocks)
    gamma_cells = cells([p for p in conditions if p.degree > 0], lo, hi)
    point_breaks = {a for a, b in gamma_cells.breakpoints if a == b}
    for gamma in sorted({lo, hi} | point_breaks | set(gamma_cells.samples)):
        cert = _certificate_at(f, blocks, gamma)
        if cert is not None:
            return SosVerdict("IN", certificate=cert)

    # remaining possibility: feasibility only at a single breakpoint that
    # sits inside an isolating interval; breakpoints lie in (lo, hi), so
    # gamma > 0 there
    for a, b in gamma_cells.breakpoints:
        if a == b:
            continue  # tested above
        root = AlgebraicField(gamma_cells.product, a, b)
        signs = [root.sign_of_poly(p) for p in conditions]
        if not _feasible(signs):
            continue
        # the root is a root of some condition of positive degree (<= 4)
        vanishing = next(p for p, sg in zip(conditions, signs) if sg == 0 and p.degree > 0)
        for gamma in rational_roots(vanishing):
            if a < gamma < b:
                return SosVerdict("IN", certificate=_certificate_at(f, blocks, gamma))
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
