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
range [lo, hi].

Reduction lemma.  On (lo, hi), b22 > 0 and a22 > 0 (b22 rises from 0 at
or below lo, a22 falls to 0 at hi), so B is PSD iff u >= h = b12^2 / b22
(u >= 0 follows) and A is iff q(u) = 4 det A >= 0 (a11 >= 0 follows, as
a11 a22 >= a12^2).  q is concave in u with the vertex v = 2 a22 + s, so
some u >= h has q(u) >= 0 iff q(h) >= 0, or v >= h and q(v) >= 0.  With
the terms of ``_reduction_terms``, D = v b22 - b12^2, V = q(v) and
H = b22^2 q(h), a gamma in (lo, hi) is feasible
iff (D >= 0 and V >= 0) or H >= 0, and strictly feasible (both blocks
definite for some u) iff the same holds with > in place of >=.  With
c = 2(n-1)/n^2, the gamma-slopes of v, b22 and b12 are c, c/4 and -c/2,
so the gamma^2 terms of v b22 and b12^2 cancel and D has degree <= 1.
The quadratic part of q in (gamma, u) is -(u - c gamma)^2, so V has
degree <= 1, and h grows like c gamma, so H has degree <= 3 (the conics
q = 0 and u b22 = b12^2 share their point at infinity).

``sos_membership`` first reads the verdict that ``positivity.is_nonneg``
keeps on the form object, if any: a nonnegativity OUT is an SOS OUT, as
every sum of squares is nonnegative.  It never asks ``is_nonneg`` itself,
which at huge n costs far more than the steps below.  Otherwise it looks
for the feasible interval in three steps:

1. the two ends: a feasible end decides IN with no cell built.  When the
   gamma = 0 signs kept on the form are feasible, b22 >= 0 makes lo = 0
   and a22 >= 0 makes hi >= 0, so lo is a feasible end, and its
   certificate is returned before the range is built;
2. with both ends infeasible the interval lies inside (lo, hi), where
   feasibility is constant on the open cells of the shared cell engine
   (``algebra.cells``) cut at the roots of D, V and H, a product of
   degree <= 5.  The sample of each open cell is tested on all ten
   signs, left to right, and no breakpoint is: an interval of positive
   length holds a whole open cell, and a single gamma* is found in
   step 3.  The left end of the interval is a root of D, V or H, so the
   first cell, (lo, first root), is never feasible and is skipped;
3. these miss the interval only when it is one gamma*, a breakpoint.
   gamma* is then a root of even multiplicity of H (below).  As
   deg H <= 3, H has no other multiple root, so g = gcd(H, H') is
   c (gamma - gamma*)^k with k in {1, 2}, and gamma* = -g_(k-1) / (k g_k)
   is rational.  It is tested when lo < gamma* < hi; otherwise, or when
   g is constant, f is OUT.

Why a single feasible gamma* in (lo, hi) is a multiple root of H:

- If q(gamma*, h) < 0, the feasible u at gamma* lie above h, so D > 0
  near gamma*, and there gamma is feasible iff V >= 0: a polynomial of
  degree <= 1 that is >= 0 at gamma* is so on an interval of positive
  length, which contradicts a single gamma*.
- Otherwise H(gamma*) >= 0 and, by the lemma, H < 0 on both sides near
  gamma*, so H is 0 at gamma* with even multiplicity.  H is not 0
  identically, which would make all of (lo, hi) feasible.

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
   (q the pairing with f) is nonempty.  With u = 1/s and z = 2s + s^2 w,
   d q is s^4 P(u, w) for one integer quartic P (``_chart_quartic``), and
   tau > 0 is |w| < w_max = (n-2)/sqrt(n-1).  P is a quadratic in w, so
   the set is nonempty exactly when its vertex value is negative inside
   the strip (I), which the rational vertex of a quadratic in u^2
   decides, or P is negative on the edge w = w_max (E), a quartic with
   rational coefficients in u/sqrt(n-1).  The separator is a rational
   point near a real one where P < 0 (``_w_separator``); in case (I) no
   root is isolated.  The segment is the u -> 0 limit of the chart, so it
   is not needed for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .algebra import (
    Cells,
    SymMat2,
    UniPoly,
    _zderiv,
    _zgcd,
    _zpoly,
    binary_quartic_negative_point,
    cells,
    psd2,
    simplest_rational_between,
)
from .dualcone import (
    DualFunctional,
    _dual_ints,
    _gamma_gen_ints,
    _pair_ints,
    _psd_ints,
    _weighted_point_ints,
    dual_membership,
    gamma_gen_coeffs,
    pair,
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


@per_form
def _gamma_zero_entries(f: SymFormP) -> tuple[int, tuple[int, ...]]:
    """(d, e): the gamma = 0 block entries of f as the integers e over
    d = 2 den, e the ``_entry_map`` of the form's numerators over den, the
    lcm of its denominators, once per form object (``symfunc.per_form``):
    the gamma = 0 signs, the block forms, the coefficient-sum tests and the
    limit witness of ``positivity`` all read them.  The entries are (c4,
    c31/2, c22 + c4, c211 + c31, c1111), so neither they nor e depend on n,
    and the sum of the last three, a22 + s + (a11 - u), is the coefficient
    sum."""
    coeffs = f.coeffs
    den = lcm(*(c.denominator for c in coeffs))
    return 2 * den, _entry_map([c.numerator * (den // c.denominator) for c in coeffs])


@per_form
def _block_polys(f: SymFormP) -> tuple[int, tuple[tuple[int, int], ...], tuple]:
    """The block entries that the matching equations fix, as integer linear
    forms in gamma over one positive scale: (S, ((C_i, G_i), ...), (m, m gen))
    with entry_i = (C_i + G_i gamma) / S for b22, b12, a22, s = 2 a12 + u
    and a11 - u (u = b11), once per form object (``symfunc.per_form``).

    With (d, e) of ``_gamma_zero_entries`` and (m, m gen) of
    ``dualcone._gamma_gen_ints`` (m = 2n^2), S = m d, C = m e and
    G = -(d / 2) ``_entry_map``(m gen): the entries at gamma are those of
    f - gamma gen.  (m, m gen) is kept for ``_certificate``, so n is
    squared once per form.  Every condition of ``_conditions`` is
    homogeneous in the entries, so S changes no sign and no root in gamma,
    and the witnesses, built from the entries themselves, do not see it."""
    d, e = _gamma_zero_entries(f)
    m, gen = _gamma_gen_ints(f.scope)
    den = d // 2
    return m * d, tuple((m * c, -den * g) for c, g in zip(e, _entry_map(gen))), (m, gen)


def _reduction_terms(b22, b12, a22, s, a11_u) -> tuple:
    """(v, r, D, V, H): the vertex v = 2 a22 + s and r = 4 a22 (a11 - u)
    - s^2 of 4 det A = -u^2 + 2 v u + r, and the three terms of the
    reduction lemma, D = v b22 - b12^2, V = 4 det A at v and H = b22^2
    times 4 det A at the hook bound b12^2 / b22, from the block entries
    as in ``_conditions``."""
    hook = b12 * b12
    v = a22 * 2 + s
    r = a22 * a11_u * 4 - s * s
    return v, r, v * b22 - hook, v * v + r, (v * b22 * 2 - hook) * hook + r * b22 * b22


def _conditions(b22, b12, a22, s, a11_u) -> tuple:
    """The ten quantities whose signs decide u-feasibility, from the block
    entries (``_block_polys``), scaled, as integers at one gamma or as
    integer polynomials in gamma.

    4 det A = -u^2 + 2 v u + r (``_reduction_terms``); the lower bounds L
    on u are 0, l1 = -(a11 - u) and b12^2/b22.  The list: b22, b12, a22,
    4 det A at v, then 4 det A at each L and v - L for each L, the last of
    both multiplied by b22^2 and b22.  Each is homogeneous in the entries,
    so entries scaled by a common positive factor give the same signs."""
    l1 = -a11_u
    v, r, D, V, H = _reduction_terms(b22, b12, a22, s, a11_u)
    return (b22, b12, a22, V, r, (v * 2 - l1) * l1 + r, H, v, v - l1, D)


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
    compared over W q m ((m, m gen) as kept in ``blocks``) with f's
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
    m, gen = blocks[2]
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
def _gamma_cells(f: SymFormP) -> tuple[UniPoly, Cells]:
    """H and the cells that the roots of D, V and H cut the open admissible
    gamma range into (the reduction lemma), once per form object
    (``symfunc.per_form``): the scan of ``sos_membership`` and
    ``_has_interior_gamma`` both read the cells.  D, V and H are
    ``_reduction_terms`` on the linear forms of ``_block_polys``, as
    integer polynomials in gamma (S^d times the rational ones at degree d
    in the entries), built without the other seven conditions."""
    lo, hi = _gamma_range(f)
    D, V, H = _reduction_terms(*(UniPoly(form) for form in _block_polys(f)[1]))[2:]
    return H, cells([p for p in (D, V, H) if p.degree > 0], lo, hi)


def sos_membership(f: SymFormP) -> SosVerdict:
    """Membership in the symmetric-SOS cone at the form's numeric scope."""
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is LIMIT:
        raise ValueError("use sos_membership_limit for LIMIT-scope forms")
    if f.scope < 4:
        raise ValueError("scope must be at least 4")
    # a kept nonnegativity OUT decides (module docstring); the import is
    # here because positivity imports this module
    from .positivity import kept_nonneg

    nonneg = kept_nonneg(f)
    if nonneg is not None and nonneg.status == "OUT":
        return SosVerdict("OUT")
    if _feasible(_gamma_zero_signs(f)):
        # the feasible end lo = 0 of step 1 (module docstring)
        return SosVerdict("IN", certificate=_certificate(f, _block_polys(f), _ZERO))
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
    H, gamma_cells = _gamma_cells(f)
    # lo is infeasible, so the closed feasible interval starts at a root of
    # D, V or H and the first cell, (lo, first root), is never feasible
    for gamma in gamma_cells.samples[1:]:
        cert = _certificate_at(f, blocks, gamma)
        if cert is not None:
            return SosVerdict("IN", certificate=cert)

    # remaining possibility: one feasible gamma*, a multiple root of H
    # (module docstring), so the one root of g = gcd(H, H') = c (gamma - gamma*)^k
    z = _zpoly(H.coeffs)
    g = _zgcd(z, _zderiv(z)) if len(z) > 2 else [1]
    k = len(g) - 1
    if k:
        if k > 2 or (k == 2 and g[1] * g[1] != 4 * g[0] * g[2]):
            raise AssertionError("internal error: gcd(H, H') is not a power of one linear factor")
        gamma = Fraction(-g[k - 1], k * g[k])
        if lo < gamma < hi:
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
    the roots of D, V and H (the reduction lemma), so one sample per open
    cell decides it.
    Every sample is > lo >= 0."""
    lo, hi = _gamma_range(f)
    if lo == hi:
        return False
    blocks = _block_polys(f)
    return any(
        _strictly_feasible(_signs_at(blocks, gamma))
        for gamma in _gamma_cells(f)[1].samples
    )


def _kernel_ints(m11: int, m12: int, m22: int, d: int) -> tuple[int, tuple[int, int]] | None:
    """(s, (k1, k2)): a kernel vector (k1, k2) / s of the singular PSD block
    [[m11, m12], [m12, m22]] / d, d > 0, as integers over a positive scale:
    (-m12, m11) over d when m12 != 0, else a unit vector over 1 (e_2 for
    the zero block); None when the block is definite."""
    if m11 * m22 != m12 * m12:
        return None
    if m12:
        return d, (-m12, m11)
    return 1, ((0, 1) if m22 == 0 else (1, 0))


def _supporting_functional(cert: SosCertificate) -> tuple[int, tuple[int, ...]]:
    """(S, ys): the functional y = ys / S that ``sos_boundary`` reads off
    the face of a boundary form's certificate (facial reduction on the
    blocks), as integers over a positive scale S, in canonical order.

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
      as the PSD condition on Y_B allows.  The generator's first two
      coefficients are g4 = (1 - n) / (2n^2) and g31 = (4n - 4) / (2n^2),
      so g31 / g4 = -4 at every n, and x = 2 beta, z = 4 beta.  At
      gamma > 0, y4 is raised until y(gen) = 0: by y(gen) / (-g4), that
      is the pairing of y with the integer generator of
      ``dualcone._gamma_gen_ints`` over n - 1, so every value is then
      taken times n - 1.
    - Otherwise Y_B is 0 (B definite) or mu j j^T with j1 != 0, and
      mu j1^2 = lam beta fixes y up to scale: lam = 1, mu = 0 when beta
      = 0, else lam = j1^2, mu = beta.
    - At a numeric n, lam = 0 leaves y = (z, 0, 0, 0, 0) with y(gen) < 0:
      a definite A has no supporting functional, and A = 0 takes the
      all-ones point evaluation (k = (1, 1), beta = 0, y(gen) = 0).

    The six block entries are read as integers over their lcm D, and the
    kernels as integer vectors over their scales s_k and s_j, each D or 1
    (``_kernel_ints``).  Every value is quadratic in k, and in the
    j-branch also quadratic in j, so S = s_k^2, or s_k^2 s_j^2 when the
    j-branch sets lam, times n - 1 after the gamma step.  The candidate
    is unique up to these choices, so when it fails the verification in
    ``sos_boundary`` the form has no supporting functional.
    """
    A, B, numeric = cert.A, cert.B, cert.scope is not LIMIT
    entries = (A.m11, A.m12, A.m22, B.m11, B.m12, B.m22)
    d = lcm(*(x.denominator for x in entries))
    a11, a12, a22, b11, b12, b22 = (x.numerator * (d // x.denominator) for x in entries)
    if numeric and not (a11 or a12 or a22):
        return 1, (1, 1, 1, 1, 1)
    k, j = _kernel_ints(a11, a12, a22, d), _kernel_ints(b11, b12, b22, d)
    free = j is not None and j[1][0] == 0
    if free and not numeric:
        return 1, (1, 0, 0, 0, 0)
    if k is None:
        raise AssertionError("internal error: boundary certificate has a definite alpha-block")
    s, (k1, k2) = k
    scale, lam, x, z = s * s, 1, 0, 0
    beta = k1 * (k2 - k1)
    if free:
        x, z = 2 * beta, 4 * beta
    elif j is not None and beta:
        s, (j1, j2) = j
        scale *= s * s
        lam, x, z = j1 * j1, beta * j1 * j2, beta * j2 * j2
    ys = (z + lam * k2 * k2, x + lam * k1 * k2, lam * k2 * k2, lam * k1 * k2, lam * k1 * k1)
    if free and cert.gamma > 0:
        n1 = cert.scope - 1
        y_gen = sum(g * y for g, y in zip(_gamma_gen_ints(cert.scope)[1], ys))
        ys = (ys[0] * n1 + y_gen, *(y * n1 for y in ys[1:]))
        scale *= n1
    return scale, ys


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
    (``_supporting_functional``), as integers over one positive scale,
    and the three checks read those integers (``dualcone._pair_ints``,
    ``dualcone._dual_ints``): Fractions are made only for the five
    returned values, once the checks hold.  The zero form raises
    ValueError.
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
    den, ys = _supporting_functional(cert)
    if not any(ys) or _pair_ints(ys, f) != 0 or not _dual_ints(ys, f.scope):
        raise AssertionError("internal error: supporting functional failed verification")
    return "BOUNDARY", DualFunctional(*(Fraction(y, den) for y in ys))


# ---------------------------------------------------------------------------
# exact, complete dual separators for OUT verdicts
# ---------------------------------------------------------------------------


def _chart_quartic(f: SymFormP) -> tuple[int, int, int, int, int]:
    """(C0, K, B, b22, a22), the integers of P(u, w) = C0 u^4 + K u^2
    + B u w + b22 w^2 + a22 = d u^4 l(1/u, 2/u + w/u^2)(f) on the gamma = 0
    entries (d, (b22, b12, a22, s, c0)) of ``_gamma_zero_entries``:
    C0 = a22 + s + c0, K = 4 (b22 + b12) + 2 a22 + s, B = 4 b22 + 2 b12."""
    b22, b12, a22, s, c0 = _gamma_zero_entries(f)[1]
    return a22 + s + c0, 4 * (b22 + b12) + 2 * a22 + s, 4 * b22 + 2 * b12, b22, a22


def _sqrt_ends(num: int, den: int, j: int) -> tuple[Fraction, Fraction]:
    """Dyadic ends k / 2^j <= sqrt(num / den) < (k + 1) / 2^j, by an integer
    square root."""
    k = isqrt((num << 2 * j) // den)
    return Fraction(k, 1 << j), Fraction(k + 1, 1 << j)


def _w_separator(f: SymFormP) -> DualFunctional | None:
    """l(1/u, 2/u + w/u^2) with u != 0 and 0 < w < w_max, so tau > 0, that
    pairs negatively with f, or None if there is none
    (``find_separating_functional``, step 3, which proves the cases
    complete).

    (I) is a sign test in integers.  With M = 4 b22 K - B^2, 4 b22 G is
    4 b22 C0 T^2 + M T + 4 b22 a22, and the vertex is inside where
    B^2 (n-1) T < 4 b22^2 (n-2)^2; T* = -M / (8 b22 C0), and G(T*) < 0 iff
    M^2 > 64 b22^2 C0 a22.  u then runs through the simplest rationals
    between dyadic ends of sqrt(T*) (or of 0 when a22 < 0), and
    w = -B u / (2 b22) stays on the vertex line, so that w/u^2 is a small
    multiple of 1/u.  (E) is decided on (n-1) E(rho), an integer quartic,
    whose negative point rho gives the real point (rho sqrt(n-1), w_max):
    u runs through the simplest rationals between dyadic ends of
    rho sqrt(n-1), and w through those between dyadic ends below w_max.
    With C0 < 0 the negative point is (1, 0), at infinity, and u = j grows
    at w = 1 < w_max.  A zero u or w is replaced by 2^-j.  The ends are
    2^-j apart for j = 1, 2, 4, ..., and the first (u, w) that passes
    exactly is returned.
    """
    n = f.scope
    C0, K, B, b22, a22 = _chart_quartic(f)
    top, bottom = (n - 2) ** 2, n - 1  # w_max^2 = top / bottom
    M = 4 * b22 * K - B * B
    if b22 > 0 and (
        a22 < 0
        or (
            C0 > 0
            and M < 0
            and M * M > 64 * b22 * b22 * C0 * a22
            and -M * B * B * bottom < 32 * b22**3 * C0 * top
        )
    ):
        T = (0, 1) if a22 < 0 else (-M, 8 * b22 * C0)
        # w = -B u / (2 b22) on the vertex line, with u's sign making w >= 0
        slope, sign = Fraction(abs(B), 2 * b22), -1 if B > 0 else 1

        def point(j: int, step: Fraction) -> tuple[Fraction, Fraction]:
            u = simplest_rational_between(*_sqrt_ends(*T, j)) or step
            return sign * u, slope * u or step

    else:
        edge = binary_quartic_negative_point(
            [C0 * bottom**3, 0, K * bottom**2, B * (n - 2) * bottom, b22 * top + a22 * bottom]
        )
        if edge is None:
            return None
        rho, y = edge

        def point(j: int, step: Fraction) -> tuple[Fraction, Fraction]:
            if not y:
                return Fraction(j), _ONE
            lo, hi = _sqrt_ends(bottom, 1, j)  # around sqrt(n-1)
            w = _sqrt_ends(top, bottom, j)[0]
            u = simplest_rational_between(*sorted((rho * lo, rho * hi))) or step
            return u, simplest_rational_between(w - 2 * step, w - step)

    j = 1
    while True:
        u, w = point(j, Fraction(1, 1 << j))
        inside = u and 0 < w and w * w * bottom < top
        if inside and ((C0 * u * u + K) * u + B * w) * u + b22 * w * w + a22 < 0:
            s = 1 / u
            z, t = 2 * s + s * s * w, 1 + s * s
            return DualFunctional(z * z + t * t, s * z + t, t * t, t, _ONE)
        j *= 2


def find_separating_functional(f: SymFormP):
    """A rational dual functional ell with ell(f) < 0 that is nonnegative on
    every symmetric square at the form's scope n >= 4; None exactly when f
    is a symmetric sum of squares.

    Every returned functional is checked exactly (``pair`` < 0 and
    ``dual_membership``, or the same tests on integers).  Raises
    ValueError for LIMIT scope.

    The two segment ends of step 2 pair with f to a22 and a22 + v b22 at
    v = (n-2)^2/(n-1), so they are tested as the signs of a22 and
    (n-1) a22 + (n-2)^2 b22 on the gamma = 0 entries.  Then, when f is not
    nonnegative at n, the point evaluation at the negative point of
    ``positivity.is_nonneg`` separates: it is built as integers over one
    common denominator (``dualcone._weighted_point_ints``), its pairing
    and its dual membership are checked on those integers, and its five
    values are made Fractions only once that holds.  The s-chart of step 3
    remains for the nonnegative forms outside the SOS cone.

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
    3. One quadratic in w.  On the s-chart
       tau = ((n-2)^2 s^4 - (n-1)(z - 2s)^2) / 2, so {tau >= 0} is the
       closure of {tau > 0}, and the s-chart separates iff the open set
       {q < 0, tau > 0}, q = l(s, z)(f), is nonempty.  There s != 0, and
       u = 1/s, z = 2s + s^2 w give tau = s^4 ((n-2)^2 - (n-1) w^2) / 2
       and d q = s^4 P(u, w), P = C0 u^4 + K u^2 + B u w + b22 w^2 + a22
       (``_chart_quartic``).  So the chart separates iff P < 0 somewhere
       in the strip |w| < w_max = (n-2)/sqrt(n-1); as {P < 0} is open,
       u = 0 may be let in, and as P(u, w) = P(-u, -w), w > 0 asked for.
       For fixed u, P is a quadratic in w.  When b22 > 0 and its vertex
       w = -B u / (2 b22) lies inside, |B u| < 2 b22 w_max, its least
       value on the open interval is the vertex value
       G(u) = C0 u^4 + (K - B^2 / (4 b22)) u^2 + a22.  Otherwise it is
       monotone (b22 > 0) or concave (b22 <= 0) on the interval, whose
       infimum is then its value at an end: P(u, w_max), or
       P(u, -w_max) = P(-u, w_max).  So the chart separates iff
       (I) G(u) < 0 at some u with an inside vertex, or
       (E) P(u, w_max) < 0 at some u.
       G is a quadratic in T = u^2 on the T >= 0 where the vertex is
       inside, T < T_max = 4 b22^2 w_max^2 / B^2 (no bound when B = 0).
       Its infimum there is a22 at T = 0, or its value at its rational
       vertex T* when C0 > 0 and 0 < T* < T_max, or else it is approached
       at T_max, where the vertex meets the edge and P < 0 there is (E).
       So (I) is a sign test in integers.  With u = rho sqrt(n-1),
       P(u, w_max) = E(rho) = C0 (n-1)^2 rho^4 + K (n-1) rho^2
       + B (n-2) rho + b22 (n-2)^2 / (n-1) + a22, whose coefficients are
       rational, so (E) holds iff E is not nonnegative
       (``algebra.binary_quartic_nonneg``).  Either way P < 0 at a real
       point (u, w) with 0 <= w <= w_max, or as u grows when C0 < 0, and
       so on a neighbourhood of it; ``_w_separator`` returns the first
       rational point of that neighbourhood in the strip that it meets,
       with u != 0 and w > 0.  As u -> 0, u^4 l(1/u, 2/u + w/u^2) tends to
       (1 + w^2, 0, 1, 0, 0), paired with f by P(0, w) / d, so the segment
       adds no separating ray of its own.
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

    # the segment ends pair with f to a22 and a22 + v b22, read in signs on
    # the gamma = 0 entries
    b22, _, a22, _, _ = _gamma_zero_entries(f)[1]
    if a22 < 0:
        return verified(DualFunctional(_ONE, _ZERO, _ONE, _ZERO, _ZERO))
    if (n - 1) * a22 + (n - 2) ** 2 * b22 < 0:
        return verified(DualFunctional(1 + Fraction((n - 2) ** 2, n - 1), _ZERO, _ONE, _ZERO, _ZERO))

    # a negative point of f is a point evaluation pairing negatively with
    # it; is_nonneg is kept on the form object, so this is a read when the
    # caller has asked it already (positivity imports this module)
    from .positivity import is_nonneg

    nonneg = is_nonneg(f)
    if nonneg.status == "OUT":
        den, ys = _weighted_point_ints(*nonneg.witness)
        if not (_pair_ints(ys, f) < 0 and _dual_ints(ys, n)):
            raise AssertionError("internal error: separator failed verification")
        return DualFunctional(*(Fraction(y, den) for y in ys))

    ell = _w_separator(f)
    if ell is not None:
        return verified(ell)
    if sos_membership(f).status == "OUT":
        raise AssertionError("internal error: no separator found for an SOS-OUT form")
    return None
