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
the signs at gamma = 0 decide membership.

The matching equations leave two free parameters (gamma and b11 = u) and
fix the other block entries as affine functions of gamma, kept as integer
linear forms over one positive scale (``_block_polys``).  The decisions
read only signs, so they run in integers, and the certificate is built
and checked in integers too (``_certificate``): Fractions are made only
for its six returned entries.  At gamma = 0 the entries do not depend on
n; their integers (``_gamma_zero_entries``, through the one inverse block
map ``_entry_map``) give the gamma = 0 signs, the coefficient sum and the
limit witness of ``positivity``.  For fixed gamma the
PSD constraints on u are three lower bounds (0, from a11 >= 0 and,
cleared of b22, from det B >= 0) and one concave quadratic
Q(u) = det A >= 0, so u-feasibility is a predicate on the signs of ten
polynomials in gamma (``_conditions``, ``_feasible``).  The feasible
(gamma, u) region is convex (the blocks are affine in (gamma, u)), hence
the feasible gamma values form one closed interval in the admissible
range [lo, hi].  ``sos_membership`` looks for it in three steps:

1. the two ends: a feasible end decides IN with no cell built;
2. with both ends infeasible the interval lies inside (lo, hi), and it is
   searched on the cells of the shared cell engine (``algebra.cells``),
   cut at the roots of those polynomials: every rational (point)
   breakpoint and one rational sample per open cell, in increasing order;
3. feasibility is constant on an open cell, so these miss the interval
   only when it is one gamma*, the root of a breakpoint inside an
   isolating interval.  gamma* is rational (below), so it is a rational
   root in that interval of a condition of positive degree
   (``algebra.rational_roots``); when none of those is feasible, f is OUT.

Why one feasible gamma* in (lo, hi) is rational.  On (lo, hi), b22 > 0
and a22 > 0 (b22 rises from 0 at or below lo, a22 falls to 0 at hi), so
B is PSD iff u >= h = b12^2 / b22 and A is iff q = 4 det A >= 0; u >= 0
and a11 >= 0 follow.  With c = 2(n-1)/n^2, the gamma-slopes of b22, b12
and the vertex v = 2 a22 + s of q in u are c/4, -c/2 and c, and the
quadratic part of q in (gamma, u) is -(u - c gamma)^2: h grows like
c gamma, and the conics q = 0 and u b22 = b12^2 share their point at
infinity.  So q(gamma, v), the vertex term v^2 + r of ``_conditions``,
has degree <= 1, and H = b22^2 q(gamma, h), its hook term, degree <= 3.

- If q(gamma*, h) < 0, the feasible u at gamma* lie above h, so v > h
  near gamma*, and there gamma is feasible iff q(gamma, v) >= 0: a
  polynomial of degree <= 1 that is >= 0 at gamma* is so on an interval
  of positive length, which contradicts a single gamma*.
- Otherwise (gamma, h(gamma)) is feasible exactly where H >= 0, so H is
  0 at gamma* and < 0 beside it: gamma* is a root of even multiplicity
  of H != 0.  Were gamma* irrational, a conjugate would be a second
  such root, and 2 + 2 > 3 (Bezout for the two conics, on the graph of h).

The degenerate conics need no case of their own: q a pair of parallel
lines or a double line, and u b22 - b12^2 = b22 (u - 4 b22) when
b12 = -2 b22, leave the equivalences on (lo, hi) and the degree bounds
as they are; a common component of the two conics makes H = 0, which
the second case excludes and the first does not use.

The boundary status (``sos_boundary``) is decided at every scope by one
routine.  The block map (A, B, gamma) -> f is onto R^5, so f is interior
exactly when some gamma > 0 (gamma = 0 at LIMIT) admits a u that makes
both blocks definite (``_strictly_feasible``): at LIMIT the gamma = 0
signs say so, at a numeric n one sample per open gamma-cell does.  A
boundary form is supported by a functional y read off the face of its
certificate (facial reduction: Y_A A = 0, Y_B B = 0, gamma y(gen) = 0),
checked exactly (y != 0, y(f) = 0, y in the dual cone).

An OUT verdict at a numeric scope is backed by a rational dual functional
(``find_separating_functional``), found by a search that is complete:

1. the SOS cone is closed, so a form outside it pairs negatively with some
   extreme ray of the dual cone K*, and a face-dimension count shows that
   both 2x2 dual blocks have rank <= 1 on every extreme ray;
2. those rays lie in two rational charts: the two-parameter s-chart
   l(s, z) (y1111 = 1) and the segment (1 + v, 0, 1, 0, 0),
   0 <= v <= (n-2)^2/(n-1) (y1111 = 0), whose two ends are tested first;
3. in the s-chart the two-row block tau is >= 0 exactly on the closure of
   {tau > 0}, so the s-chart separates iff the open set {q < 0, tau > 0}
   (q the pairing with f) is nonempty.  z = 2s + s^2 w makes q one binary
   quartic h_w(s, 1) with coefficients in Z[w] (``_w_family``), searched
   over w on the cells of the binary-quartic engine; the segment is the
   s -> oo limit of this family, so it is not needed for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import (
    Cells,
    SymMat2,
    UniPoly,
    _zpoly,
    _zroot_bound,
    binary_quartic_critical_polys,
    binary_quartic_nonneg,
    cells,
    psd2,
    rational_roots,
    simplest_in_middle,
)
from .dualcone import (
    DualFunctional,
    _gamma_gen_ints,
    _psd_ints,
    dual_membership,
    gamma_gen_coeffs,
    pair,
    weighted_point_functional,
)
from .symfunc import LIMIT, SymFormP, per_form

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """IN/OUT verdict.  IN carries a verified rational certificate.  An
    OUT verdict at a numeric scope is backed by the separating dual
    functional that ``find_separating_functional`` returns."""

    status: str  # "IN" | "OUT"
    certificate: SosCertificate | None = None
    note = None  # the former irrational-gamma note; bench/queries.py and bench/worker.py read it


def expand_certificate(cert: SosCertificate) -> SymFormP:
    """The exact coefficient vector of the block decomposition."""
    scope = cert.scope
    if scope is LIMIT:
        if cert.gamma != 0:
            raise ValueError("LIMIT certificates require gamma = 0")
    elif not isinstance(scope, int) or scope < 4:
        raise ValueError("certificate scope must be an integer >= 4 or LIMIT")
    A, B, g = cert.A, cert.B, cert.gamma
    g4, g31, g22, g211, g1111 = gamma_gen_coeffs(scope)
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


def _entry_map(v) -> tuple:
    """The gamma = 0 block entries (b22, b12, a22, s, a11 - u) of a
    coefficient vector v, times 2: (2 v4, v31, 2 (v22 + v4),
    2 (v211 + v31), 2 v1111), the one place the inverse block map is
    written."""
    v4, v31, v22, v211, v1111 = v
    return (2 * v4, v31, 2 * (v22 + v4), 2 * (v211 + v31), 2 * v1111)


def _gamma_zero_entries(f: SymFormP) -> tuple[int, tuple[int, ...]]:
    """(d, e): the gamma = 0 block entries of f as the integers e over
    d = 2 den, e the ``_entry_map`` of the form's numerators over den, the
    lcm of its denominators.  The entries are (c4, c31/2, c22 + c4,
    c211 + c31, c1111), so neither they nor e depend on n, and the sum of
    the last three, a22 + s + (a11 - u), is the coefficient sum."""
    coeffs = f.coeffs
    den = lcm(*(c.denominator for c in coeffs))
    return 2 * den, _entry_map([c.numerator * (den // c.denominator) for c in coeffs])


@per_form
def _block_polys(f: SymFormP) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The block entries that the matching equations fix, as integer linear
    forms in gamma over one positive scale: (S, ((C_i, G_i), ...)) with
    entry_i = (C_i + G_i gamma) / S for b22, b12, a22, s = 2 a12 + u and
    a11 - u (u = b11), once per form object (``symfunc.per_form``).

    With (d, e) of ``_gamma_zero_entries`` and (m, m gen) of
    ``dualcone._gamma_gen_ints`` (m = 2n^2), S = m d, C = m e and
    G = -(d / 2) ``_entry_map``(m gen): the entries at gamma are those of
    f - gamma gen.  Every condition of ``_conditions`` is homogeneous in
    the entries, so S changes no sign and no root in gamma, and the
    witnesses, built from the entries themselves, do not see it."""
    d, e = _gamma_zero_entries(f)
    m, gen = _gamma_gen_ints(f.scope)
    den = d // 2
    return m * d, tuple((m * c, -den * g) for c, g in zip(e, _entry_map(gen)))


def _conditions(b22, b12, a22, s, a11_u) -> tuple:
    """The ten quantities whose signs decide u-feasibility, from the block
    entries (``_block_polys``), scaled, as integers at one gamma or as
    integer polynomials in gamma.

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


def _certificate(f: SymFormP, blocks, gamma: Fraction) -> SosCertificate:
    """The certificate at a feasible rational gamma = p/q, built in integers
    from the linear forms of ``_block_polys``, with the smallest feasible
    u: the largest lower bound if det A >= 0 there, else the vertex.

    The entries are e / d, e = C q + G p and d = S q, for b22, b12, a22,
    s and a11 - u, with e and d first divided by their gcd, so that the
    products below do not carry the scale S, which grows with n.  With
    k = e_b22 when that is > 0, else 1, every candidate for u is an
    integer over w = d k > 0: the lower bounds 0, -e_a11u k
    and, when b22 > 0, the hook bound b12^2 / b22 = e_b12^2 / w, and the
    vertex (2 e_a22 + e_s) k.  The blocks are then integers over W = 2w,
    and the self-check reads exactly those: both blocks PSD, gamma >= 0
    (gamma = 0 at LIMIT), and the block map sends (A, B, gamma) to f,
    compared over W q m (m from ``dualcone._gamma_gen_ints``) with f's
    numerators cross-multiplied; a failure raises AssertionError.  Only
    then are the six entries made Fractions.  ``expand_certificate``
    stays the independent Fraction check of the result."""
    p, q = gamma.numerator, gamma.denominator
    e = [c * q + g * p for c, g in blocks[1]]
    d = blocks[0] * q
    h = gcd(d, *e)
    b22, b12, a22, s, a11_u = (x // h for x in e)
    d //= h
    k = b22 if b22 > 0 else 1
    u = max(-a11_u * k, 0)
    if b22 > 0:
        u = max(u, b12 * b12)
    v = (2 * a22 + s) * k
    if u * u > 2 * v * u + (4 * a22 * a11_u - s * s) * k * k:
        u = v
    A = (2 * (a11_u * k + u), s * k - u, 2 * a22 * k)
    B = (2 * u, 2 * b12 * k, 2 * b22 * k)
    W = 2 * d * k
    m, gen = _gamma_gen_ints(f.scope)
    qm = q * m
    wqm = W * qm
    expansion = (B[2], 2 * B[1], A[2] - B[2], 2 * A[1] + B[0] - 2 * B[1], A[0] - B[0])
    if not (
        _psd_ints(*A)
        and _psd_ints(*B)
        and p >= 0
        and (f.scope is not LIMIT or p == 0)
        and all(
            (x * qm + p * g * W) * c.denominator == c.numerator * wqm
            for x, g, c in zip(expansion, gen, f.coeffs)
        )
    ):
        raise AssertionError("internal error: certificate failed verification")
    return SosCertificate(
        SymMat2(*(Fraction(x, W) for x in A)),
        SymMat2(*(Fraction(x, W) for x in B)),
        gamma,
        f.scope,
    )


def _signs(xs) -> tuple[int, ...]:
    return tuple((x > 0) - (x < 0) for x in xs)


def _signs_at(blocks, gamma: Fraction) -> tuple[int, ...]:
    """The signs of ``_conditions`` at a rational gamma = p/q, read in
    integer arithmetic on the entries C_i q + G_i p of the linear forms
    ``_block_polys``: S q times the entries, a positive factor that no
    sign of a homogeneous condition sees."""
    p, q = gamma.numerator, gamma.denominator
    return _signs(_conditions(*(c * q + g * p for c, g in blocks[1])))


def _certificate_at(f: SymFormP, blocks, gamma: Fraction) -> SosCertificate | None:
    """The certificate at a rational gamma, or None if u is infeasible
    there; at gamma = 0 the signs are ``_gamma_zero_signs``, kept on the
    form and read on integers that do not grow with n."""
    signs = _gamma_zero_signs(f) if gamma == 0 else _signs_at(blocks, gamma)
    if not _feasible(signs):
        return None
    return _certificate(f, blocks, gamma)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@per_form
def _gamma_zero_signs(f: SymFormP) -> tuple[int, ...]:
    """The signs of ``_conditions`` at gamma = 0, once per form object
    (``symfunc.per_form``): every gamma = 0 decision reads them.  They are
    read on the integers of ``_gamma_zero_entries``, which do not depend
    on n, nor does their size."""
    return _signs(_conditions(*_gamma_zero_entries(f)[1]))


@per_form
def sos_membership_limit(f: SymFormP) -> SosVerdict:
    """Membership in the limit SOS cone (LIMIT scope; gamma = 0 forced).

    Decided once per form object (``symfunc.per_form``), so the verdict
    and its certificate that a caller and ``sos_boundary`` both read are
    built once."""
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is not LIMIT:
        raise ValueError("use sos_membership for numeric scopes")
    if not _feasible(_gamma_zero_signs(f)):
        return SosVerdict("OUT")
    return SosVerdict("IN", certificate=_certificate(f, _block_polys(f), _ZERO))


def _gamma_range(f: SymFormP) -> tuple[Fraction, Fraction] | None:
    """The admissible gamma range [lo, hi] at the form's numeric scope n,
    where b22 and a22 are >= 0: lo = max(0, -2n^2 c4/(n-1)) and
    hi = 2n^2 (c4 + c22)/(n-2)^2, or None when it is empty and f is outside
    the cone.  Built from n/(n-1) and n/(n-2), whose gcds end after one
    step, so no gcd of two integers of the size of n^2 is taken."""
    n = f.scope
    c4, _, c22, _, _ = f.coeffs
    lo = -2 * c4 * n * Fraction(n, n - 1) if c4 < 0 else _ZERO
    hi = 2 * (c4 + c22) * Fraction(n, n - 2) ** 2
    return None if lo > hi else (lo, hi)


@per_form
def _gamma_cells(f: SymFormP) -> tuple[tuple[UniPoly, ...], Cells]:
    """The conditions as integer polynomials in gamma (``_conditions`` on
    the linear forms of ``_block_polys``, S^d times the rational ones at
    degree d in the entries) and the cells that their roots cut the
    admissible gamma range into, once per form object
    (``symfunc.per_form``): the scan of ``sos_membership`` and
    ``_has_interior_gamma`` both read them."""
    lo, hi = _gamma_range(f)
    conditions = _conditions(*(UniPoly(form) for form in _block_polys(f)[1]))
    return conditions, cells([p for p in conditions if p.degree > 0], lo, hi)


def sos_membership(f: SymFormP) -> SosVerdict:
    """Membership in the symmetric-SOS cone at the form's numeric scope."""
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is LIMIT:
        raise ValueError("use sos_membership_limit for LIMIT-scope forms")
    if f.scope < 4:
        raise ValueError("scope must be at least 4")
    gamma_range = _gamma_range(f)
    if gamma_range is None:
        return SosVerdict("OUT")
    lo, hi = gamma_range

    blocks = _block_polys(f)
    # the feasible gammas form one closed interval in [lo, hi], so a
    # feasible end decides IN on its own, before any cell is built
    for gamma in (lo, hi):
        cert = _certificate_at(f, blocks, gamma)
        if cert is not None:
            return SosVerdict("IN", certificate=cert)

    # both ends infeasible: the interval, if any, lies in (lo, hi)
    conditions, gamma_cells = _gamma_cells(f)
    point_breaks = {a for a, b in gamma_cells.breakpoints if a == b}
    # lo is infeasible, so the closed feasible interval starts at a condition
    # root and the first cell, (lo, first root), is never feasible
    for gamma in sorted((point_breaks | set(gamma_cells.samples[1:])) - {lo, hi}):
        cert = _certificate_at(f, blocks, gamma)
        if cert is not None:
            return SosVerdict("IN", certificate=cert)

    # remaining possibility: feasibility only at the root of a breakpoint
    # inside an isolating interval, which is then rational (module
    # docstring); every condition root in the interval is that root
    for a, b in gamma_cells.breakpoints:
        if a == b:
            continue  # tested above
        roots = (r for p in conditions if p.degree > 0 for r in rational_roots(p, a, b))
        gamma = next(roots, None)
        if gamma is not None:
            cert = _certificate_at(f, blocks, gamma)
            if cert is not None:
                return SosVerdict("IN", certificate=cert)
    return SosVerdict("OUT")


# ---------------------------------------------------------------------------
# boundary status
# ---------------------------------------------------------------------------


def _has_interior_gamma(f: SymFormP) -> bool:
    """Some gamma in (lo, hi), the interior of the admissible range of an
    SOS form, admits a u that makes both blocks definite.

    Those gammas form an open interval (the projection of an open convex
    set), and ``_strictly_feasible`` is constant on the open cells cut at
    the roots of the conditions, so one sample per open cell decides it.
    Every sample is > lo >= 0."""
    lo, hi = _gamma_range(f)
    if lo == hi:
        return False
    blocks = _block_polys(f)
    return any(
        _strictly_feasible(_signs_at(blocks, gamma))
        for gamma in _gamma_cells(f)[1].samples
    )


def _kernel(m: SymMat2) -> tuple[Fraction, Fraction] | None:
    """A rational kernel vector of a singular PSD block (e_2 for the zero
    block); None when the block is definite."""
    if m.det():
        return None
    if m.m12:
        return -m.m12, m.m11
    return (_ZERO, _ONE) if m.m22 == 0 else (_ONE, _ZERO)


def _supporting_functional(cert: SosCertificate) -> DualFunctional:
    """The functional y that ``sos_boundary`` reads off the face of a
    boundary form's certificate (facial reduction on the blocks).

    y pairs with the certificate as tr(Y_A A) + tr(Y_B B) + gamma y(gen),
    with Y_A = [[y1111, y211], [y211, y22]], Y_B = [[y211 - y1111,
    y31 - y211], [y31 - y211, y4 - y22]] and y(gen) the two-row block over
    n^2; y is in the dual cone iff Y_A, Y_B are PSD and y(gen) >= 0 (no
    y(gen) condition at LIMIT).  So y supports the form iff Y_A A = 0,
    Y_B B = 0 and gamma y(gen) = 0, and Y_A = lam k k^T for a kernel
    vector k of a singular A forces Y_B11 = lam beta, beta = k1 (k2 - k1)
    (the map's u-direction).

    - When B e_2 = 0 (j = e_2 or B = 0), Y_B22 is free.  At LIMIT,
      lam = 0 and Y_B = e_2 e_2^T give y = (1, 0, 0, 0, 0).  At a numeric
      n that y has y(gen) < 0, so lam = 1; x = Y_B12 = -g31 beta / (2 g4)
      and z = Y_B22 = x^2 / beta (0 when beta = 0) make y(gen) as large
      as the PSD condition on Y_B allows, and at gamma > 0 z is raised
      until y(gen) = 0.
    - Otherwise Y_B is 0 (B definite) or mu j j^T with j1 != 0, and
      mu j1^2 = lam beta fixes y up to scale: lam = 1, mu = 0 when beta
      = 0, else lam = j1^2, mu = beta.
    - At a numeric n, lam = 0 leaves y = (z, 0, 0, 0, 0) with y(gen) < 0:
      a definite A has no supporting functional, and A = 0 takes the
      all-ones point evaluation (k = (1, 1), beta = 0, y(gen) = 0).

    The candidate is unique up to these choices, so when it fails the
    verification in ``sos_boundary`` the form has no supporting functional.
    """
    A, B, numeric = cert.A, cert.B, cert.scope is not LIMIT
    if numeric and not (A.m11 or A.m12 or A.m22):
        return DualFunctional(_ONE, _ONE, _ONE, _ONE, _ONE)
    k, j = _kernel(A), _kernel(B)
    free = j is not None and j[0] == 0
    if free and not numeric:
        return DualFunctional(_ONE, _ZERO, _ZERO, _ZERO, _ZERO)
    if k is None:
        raise AssertionError("internal error: boundary certificate has a definite alpha-block")
    (k1, k2), lam, x, z = k, _ONE, _ZERO, _ZERO
    beta = k1 * (k2 - k1)
    if free:
        g4, g31 = gamma_gen_coeffs(cert.scope)[:2]
        x = -g31 * beta / (2 * g4)
        z = x * x / beta if beta else _ZERO
    elif j is not None and beta:
        j1, j2 = j
        lam, x, z = j1 * j1, beta * j1 * j2, beta * j2 * j2
    y = DualFunctional(z + lam * k2 * k2, x + lam * k1 * k2, lam * k2 * k2, lam * k1 * k2, lam * k1 * k1)
    if free and cert.gamma > 0:
        gen = gamma_gen_coeffs(cert.scope)
        y_gen = sum((g * v for g, v in zip(gen, y.as_tuple())), _ZERO)
        y = DualFunctional(y.y4 - y_gen / gen[0], y.y31, y.y22, y.y211, y.y1111)
    return y


def sos_boundary(f: SymFormP) -> tuple[str, DualFunctional | None]:
    """("OUTSIDE" | "INTERIOR" | "BOUNDARY", y) for the SOS cone at the
    form's scope, a numeric n >= 4 or LIMIT; at a BOUNDARY form y is a
    supporting functional of the cone: y != 0, y(f) = 0 and y in the dual
    cone at that scope, all checked here.

    The cone is the image of PSD_2 x PSD_2 x R_+ under the block map
    (A, B, gamma) -> f (gamma = 0 at LIMIT), which is onto R^5, so its
    interior is the image of definite blocks with gamma > 0.  At LIMIT
    the gamma = 0 signs decide that (``_strictly_feasible``); at a
    numeric n one sample per open gamma-cell does (``_has_interior_gamma``).
    A boundary form gets y from the face of its certificate
    (``_supporting_functional``).  The zero form raises ValueError.
    """
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.is_zero():
        raise ValueError("boundary status of the zero form is undefined")
    if f.scope is LIMIT:
        signs = _gamma_zero_signs(f)
        if not _feasible(signs):
            return "OUTSIDE", None
        if _strictly_feasible(signs):
            return "INTERIOR", None
        cert = sos_membership_limit(f).certificate
    else:
        verdict = sos_membership(f)
        if verdict.status == "OUT":
            return "OUTSIDE", None
        if _has_interior_gamma(f):
            return "INTERIOR", None
        cert = verdict.certificate
    y = _supporting_functional(cert)
    if not any(y.as_tuple()) or pair(y, f) != 0 or not dual_membership(y, f.scope):
        raise AssertionError("internal error: supporting functional failed verification")
    return "BOUNDARY", y


# ---------------------------------------------------------------------------
# exact, complete dual separators for OUT verdicts
# ---------------------------------------------------------------------------


def _w_family(f: SymFormP) -> tuple[UniPoly, ...]:
    """d l(s, 2s + s^2 w)(f) as a binary quartic h_w in (s, 1), descending,
    with coefficients in Z[w]: (b22 w^2 + a22, (4 b22 + 2 b12) w,
    4 b22 + 4 b12 + 2 a22 + s, 0, a22 + s + c0) on the gamma = 0 entries
    (d, (b22, b12, a22, s, c0)) of ``_gamma_zero_entries``."""
    b22, b12, a22, s, c0 = _gamma_zero_entries(f)[1]
    return (
        UniPoly([a22, 0, b22]),
        UniPoly([0, 4 * b22 + 2 * b12]),
        UniPoly([4 * (b22 + b12) + 2 * a22 + s]),
        UniPoly(),
        UniPoly([a22 + s + c0]),
    )


def _simple_samples(lo: Fraction, hi: Fraction, polys) -> list[Fraction]:
    """A rational of small height in each open cell that the real roots of
    the polynomials cut (lo, hi) into: the simplest one in the middle half
    of the gap between neighbouring isolating intervals."""
    ends = [lo] + [x for ab in cells(polys, lo, hi).breakpoints for x in ab] + [hi]
    return [simplest_in_middle(a, b) for a, b in zip(ends[::2], ends[1::2])]


def _w_separator(f: SymFormP) -> DualFunctional | None:
    """l(s, 2s + s^2 w) with tau > 0 and a negative pairing with f, or None
    if there is none (``find_separating_functional``, step 3)."""
    n = f.scope
    family = _w_family(f)
    edge = UniPoly([-((n - 2) ** 2), 0, n - 1])  # tau > 0 iff edge(w) < 0
    for w in _simple_samples(_ZERO, Fraction(n - 2), binary_quartic_critical_polys(family) + [edge]):
        if edge(w) > 0:
            break
        h = [u(w) for u in family]
        if binary_quartic_nonneg(h):
            continue
        q = UniPoly(h[::-1])
        bound = _zroot_bound(_zpoly(q.coeffs))
        for s in _simple_samples(-bound, bound, [q] if q.degree > 0 else []):
            if q(s) < 0:
                z, t = 2 * s + s * s * w, 1 + s * s
                return DualFunctional(z * z + t * t, s * z + t, t * t, t, _ONE)
        raise AssertionError("internal error: h_w is not nonnegative but no s-sample is negative")
    return None


def find_separating_functional(f: SymFormP):
    """A rational dual functional ell with ell(f) < 0 that is nonnegative on
    every symmetric square at the form's scope n >= 4; None exactly when f
    is a symmetric sum of squares.

    Every returned functional is checked exactly (``pair`` < 0 and
    ``dual_membership``).  Raises ValueError for LIMIT scope.

    When f is not nonnegative at n, the point evaluation at the negative
    point of ``positivity.is_nonneg`` separates, and it is tried after the
    two segment ends below and before the w-search, which remains for the
    nonnegative forms outside the SOS cone.

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
       y1111 = 0 they are the segment (1 + v, 0, 1, 0, 0), on which
       tau >= 0 means 0 <= v <= (n-2)^2/(n-1).  On the segment ell(f) is
       linear in v, so its two ends are tested first: they are cheap and
       give small separators.
    3. One family in w.  On the s-chart
       tau = ((n-2)^2 s^4 - (n-1)(z - 2s)^2) / 2, so {tau >= 0} is the
       closure of {tau > 0}, and the s-chart separates iff the open set
       {q < 0, tau > 0}, q = l(s, z)(f), is nonempty.  There s != 0, and
       z = 2s + s^2 w gives tau = s^4 ((n-2)^2 - (n-1) w^2) / 2 and
       d q = h_w(s, 1) (``_w_family``).  As h_w(s) = h_{-w}(-s), the set is
       nonempty iff h_w is not nonnegative at some w in (0, (n-2)/sqrt(n-1)),
       which is constant on the cells cut at the roots of
       ``binary_quartic_critical_polys`` and (n-1) w^2 - (n-2)^2: one
       sample per cell finds w, one per cell of h_w(s, 1) finds s.  As
       s -> oo, l(s, 2s + s^2 w) / s^4 -> (1 + w^2, 0, 1, 0, 0), paired
       with f by the leading coefficient of h_w / d, so the segment adds
       no separating ray of its own.
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
    for v in (_ZERO, Fraction((n - 2) ** 2, n - 1)):
        if (1 + v) * c[0] + c[2] < 0:
            return verified(DualFunctional(1 + v, _ZERO, _ONE, _ZERO, _ZERO))

    # a negative point of f is a point evaluation pairing negatively with
    # it; is_nonneg is kept on the form object, so this is a read when the
    # caller has asked it already (positivity imports this module)
    from .positivity import is_nonneg

    nonneg = is_nonneg(f)
    if nonneg.status == "OUT":
        return verified(weighted_point_functional(*nonneg.witness))

    ell = _w_separator(f)
    if ell is not None:
        return verified(ell)
    if sos_membership(f).status == "OUT":
        raise AssertionError("internal error: no separator found for an SOS-OUT form")
    return None
