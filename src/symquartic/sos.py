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
the blocks at gamma = 0 decide membership.

The matching equations leave two free parameters (gamma and b11 = u) and
fix the other block entries as affine functions of gamma, kept as integer
linear forms over one positive scale (``_block_polys``).  The decisions
read only signs, so they run in integers, and the certificate is checked
and built in integers too (``_certificate``, from the integer entries at
its gamma, and ``_checked``): its blocks are checked on their integers
in one pass, for validity (``_valid_ints``, which ``is_valid`` reads
too) and against the block map (``_expansion``, written once on
integers and read by ``expand_certificate`` too), and only a
certificate that passes is built, once; its constructor takes the six
block entries to lowest terms over one scale.  The separators and
supporting functionals are checked on their integers too.  At gamma = 0
the entries do not depend on n; their integers
(``_gamma_zero_entries``, through the one inverse block map
``_entry_map``) give the coefficient sum, the
limit witness of ``positivity`` and the step of ``_smallest_u`` at
gamma = 0, kept once per form object (``_gamma_zero_step``).  Its kind is
the class of gamma = 0, infeasible, feasible or strictly feasible
(``_gamma_zero_class``), and the gamma = 0 certificate is built at its u
(``_gamma_zero_certificate``), so no form runs ``_smallest_u`` twice at
gamma = 0.  Only the decisions at gamma > 0 read ``_block_polys``: the
ends of the range, the terms of step 2 (``_gamma_terms``) and the
certificate at a gamma found there.

Smallest u.  For fixed gamma the PSD constraints on u are three lower
bounds (0, from a11 >= 0 and, cleared of b22, from det B >= 0), whose
largest is L, and one concave quadratic q(u) = 4 det A >= 0, whose
vertex is v; the signs of b22, b12 and a22 do not involve u.  The u
that satisfy q >= 0 form an interval around v.  If q(L) >= 0, L is the
smallest u above every bound with q >= 0; otherwise that interval lies
wholly above L, where it holds v, or wholly below it.  So some u makes
both blocks PSD iff the blocks at u = L (q(L) >= 0) or else at u = v are
PSD (``_smallest_u``), and ``_checked`` builds the certificate from
them, None when they are not: the certificate is the decision at a
fixed gamma.  The same integers give the strict form: some u makes both
blocks definite iff b22 > 0, a22 > 0, q(v) > 0, and q(L) > 0 or v > L.
The feasible (gamma, u) region is convex (the blocks are affine in
(gamma, u)), hence the feasible gamma values form one closed interval in
the admissible range [lo, hi].

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

``sos_membership``, decided once per form object, first reads the
verdict that ``positivity.is_nonneg`` keeps on the form object, if any:
a nonnegativity OUT is an SOS OUT, as every sum of squares is
nonnegative.  It never asks ``is_nonneg`` itself, which at huge n costs
far more than the steps below.  Otherwise it looks for the feasible
interval F in two steps, with no root isolated:

1. the two ends: a feasible end decides IN.  When the class of gamma = 0
   kept on the form is feasible, b22 >= 0 makes lo = 0 and a22 >= 0
   makes hi >= 0, so lo is a feasible end, and its certificate, built
   at the u of the kept gamma = 0 step and checked with no n in it, is
   returned before the range or ``_block_polys`` is built.  An end
   gamma > 0 is decided by the certificate built on its integers
   (``_entries_at``).  A range lo = hi is one test;
2. with both ends infeasible, ``_open_gamma`` finds a gamma in F in
   closed form from the integer coefficients of D, V and H
   (``_gamma_terms``), or shows F empty and f OUT.  F is closed (u is
   bounded where q >= 0), so it lies strictly inside (lo, hi), and by the
   lemma F = J u {H >= 0} there, J = {D >= 0, V >= 0} a closed interval
   with rational ends.  If J has interior, its simplest rational is in F.
   Else, if F has interior, H > 0 somewhere in (lo, hi) (H = 0
   identically would make all of (lo, hi) feasible), but not at an end,
   whose neighbours would then be feasible; so H > 0 at its local maximum
   r = (-h2 - sqrt(d)) / (3 h3), d = h2^2 - 3 h1 h3 > 0 (-h1 / (2 h2)
   when h3 = 0 > h2), where the sign of H is that of an integer
   P + Q sqrt(d), and at the rationals near r.  Else F is one gamma*.
   If H(gamma*) < 0, the feasible u at gamma* lie above h, so D > 0 near
   gamma*, and J, which is {V >= 0} there, has interior; so
   H(gamma*) = 0 > H near gamma*, gamma* is r, and as a double root of H
   it is rational: its conjugate would be another, and deg H <= 3.

The boundary status (``sos_boundary``) is decided at every scope by one
routine.  The block map (A, B, gamma) -> f is onto R^5, so f is interior
exactly when some gamma > 0 (gamma = 0 at LIMIT) admits a u that makes
both blocks definite.  Class 2 of gamma = 0 says so at every scope:
blocks definite at gamma = 0 stay definite at small gamma > 0, which
lie in the range, as a22 > 0 makes hi > 0.  Otherwise, at a numeric n,
``_has_interior_gamma`` reads signs: by the lemma, some gamma in
(lo, hi) makes both blocks definite iff D > 0 and V > 0 somewhere
there, which holds iff J has interior and neither D nor V is 0
identically, or H > 0 somewhere there, which holds iff H > 0 at lo, at
hi or at its local maximum r in (lo, hi).  A boundary form is supported
by a functional y read off the face of its certificate (facial
reduction: Y_A A = 0, Y_B B = 0, gamma y(gen) = 0), checked exactly
(y != 0, y(f) = 0, y in the dual cone).

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
from math import gcd, isqrt

from .algebra import (
    SymMat2,
    _lowest_terms,
    _over_lcm,
    _simplest_between_ints,
    _zsign_ints,
    binary_quartic_negative_point,
)
from .dualcone import (
    DualFunctional,
    _gamma_gen_ints,
    _pairing_ints,
    _psd_ints,
    _weighted_point_ints,
    dual_membership,
)
from .symfunc import LIMIT, SymFormP, per_form

_ZERO = Fraction(0)


def _valid_ints(entries, p: int, scope) -> bool:
    """The validity of block data, read on integers: both blocks of the six
    entries (a11, a12, a22, b11, b12, b22), over any positive scale, are
    PSD, and the numerator p of gamma is >= 0, and 0 under LIMIT scope.
    ``SosCertificate.is_valid`` and the self-check ``_checked`` read it."""
    a11, a12, a22, b11, b12, b22 = entries
    return _psd_ints(a11, a12, a22) and _psd_ints(b11, b12, b22) and p >= 0 and (p == 0 or scope is not LIMIT)


@dataclass(frozen=True, init=False)
class SosCertificate:
    """Block data (A, B, gamma) of a symmetric-SOS decomposition.

    ``A`` is the alpha-block over (p_1^2, p_2) products, ``B`` the
    beta-block over the hook generators, ``gamma`` the coefficient of the
    scalar-block generator.  The constructor keeps the six block entries
    (a11, a12, a22, b11, b12, b22) as the integers ``entries`` over
    ``den`` > 0 in lowest terms, so equal certificates are equal objects;
    ``A`` and ``B`` read them as ``SymMat2``, and ``from_blocks`` builds a
    certificate from two.  The decisions build theirs only once
    ``_checked`` has checked its integers.  Valid certificates have both
    blocks PSD and gamma >= 0 (gamma = 0 under LIMIT scope,
    ``_valid_ints``).
    """

    den: int
    entries: tuple[int, ...]
    gamma: Fraction
    scope: object

    def __init__(self, den: int, entries, gamma: Fraction, scope):
        """The certificate with the six integers ``entries`` over ``den``,
        taken to lowest terms once by ``algebra._lowest_terms`` (ValueError
        on den <= 0 or a count other than six), and stored past the
        frozen ``__setattr__``."""
        den, entries = _lowest_terms(den, entries, 6)
        self.__dict__.update(den=den, entries=entries, gamma=gamma, scope=scope)

    @classmethod
    def from_blocks(cls, A: SymMat2, B: SymMat2, gamma, scope) -> "SosCertificate":
        """The certificate with the rational blocks A and B."""
        xs = (A.m11, A.m12, A.m22, B.m11, B.m12, B.m22)
        return cls(*_over_lcm(Fraction(x) for x in xs), Fraction(gamma), scope)

    A = property(lambda self: SymMat2(*(Fraction(x, self.den) for x in self.entries[:3])))
    B = property(lambda self: SymMat2(*(Fraction(x, self.den) for x in self.entries[3:])))

    def is_valid(self) -> bool:
        return _valid_ints(self.entries, self.gamma.numerator, self.scope)


@dataclass(frozen=True)
class SosVerdict:
    """IN/OUT verdict.  IN carries a verified rational certificate.  An
    OUT verdict at a numeric scope is backed by the separating dual
    functional that ``find_separating_functional`` returns."""

    status: str  # "IN" | "OUT"
    certificate: SosCertificate | None = None
    note = None  # the former irrational-gamma note; bench/queries.py and bench/worker.py read it


#: The OUT verdict, which carries nothing; verdicts are frozen and compare
#: by value, so every decision returns this one object.
_OUT = SosVerdict("OUT")


def _expansion(den: int, entries, gamma: Fraction, gen_ints) -> tuple[int, tuple[int, ...]]:
    """(D, xs): the block map (A, B, gamma) -> f, the one place it is
    written, on integers: the six block entries ``entries`` over den > 0,
    gamma = p/q and (m, m gen) = gen_ints of ``dualcone._gamma_gen_ints``
    at the scope (``_NO_GEN`` at gamma = 0) give f = xs / D, D = den q m."""
    a11, a12, a22, b11, b12, b22 = entries
    p, q = gamma.numerator, gamma.denominator
    m, (g4, g31, g22, g211, g1111) = gen_ints
    qm, pd = q * m, p * den
    return den * qm, (
        b22 * qm + pd * g4,
        2 * b12 * qm + pd * g31,
        (a22 - b22) * qm + pd * g22,
        (2 * a12 + b11 - 2 * b12) * qm + pd * g211,
        (a11 - b11) * qm + pd * g1111,
    )


def expand_certificate(cert: SosCertificate) -> SymFormP:
    """The exact coefficient vector of the block decomposition."""
    scope = cert.scope
    if scope is LIMIT:
        if cert.gamma != 0:
            raise ValueError("LIMIT certificates require gamma = 0")
    elif not isinstance(scope, int) or scope < 4:
        raise ValueError("certificate scope must be an integer >= 4 or LIMIT")
    den, xs = _expansion(cert.den, cert.entries, cert.gamma, _gamma_gen_ints(scope))
    return SymFormP._from_ints(4, den, xs, scope)


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
    d = 2 den, e the ``_entry_map`` of the form's numerators over den
    (``SymFormP.nums`` over ``SymFormP.den``), once per form object (``symfunc.per_form``):
    the class of gamma = 0, the block forms, the coefficient-sum tests and
    the limit witness of ``positivity`` all read them.  The entries are (c4,
    c31/2, c22 + c4, c211 + c31, c1111), so neither they nor e depend on n,
    and the sum of the last three, a22 + s + (a11 - u), is the coefficient
    sum."""
    return 2 * f.den, _entry_map(f.nums)


@per_form
def _block_polys(f: SymFormP) -> tuple[int, tuple[tuple[int, int], ...], tuple]:
    """The block entries that the matching equations fix, as integer linear
    forms in gamma over one positive scale: (S, ((C_i, G_i), ...), (m, m gen))
    with entry_i = (C_i + G_i gamma) / S for b22, b12, a22, s = 2 a12 + u
    and a11 - u (u = b11), once per form object (``symfunc.per_form``).

    With (d, e) of ``_gamma_zero_entries`` and (m, m gen) of
    ``dualcone._gamma_gen_ints`` (m = 2n^2), S = m d, C = m e and
    G = -(d / 2) ``_entry_map``(m gen): the entries at gamma are those of
    f - gamma gen.  Only the decisions at gamma > 0 build these forms: the
    ends of ``sos_membership``, ``_gamma_terms`` and the certificate at a
    gamma > 0, which checks its blocks with the (m, m gen) kept here, so n
    is squared once per form; gamma = 0 reads ``_gamma_zero_entries``
    alone.  The choice of u (``_smallest_u``) and the terms of
    ``_reduction_terms`` are homogeneous in the entries, so S changes no
    sign and no root in gamma, and the witnesses, built from the entries
    themselves, do not see it."""
    d, e = _gamma_zero_entries(f)
    m, gen = _gamma_gen_ints(f.scope)
    den = d // 2
    return m * d, tuple((m * c, -den * g) for c, g in zip(e, _entry_map(gen))), (m, gen)


def _reduction_terms(b22, b12, a22, s, a11_u) -> tuple:
    """(v, r, D, V, H): the vertex v = 2 a22 + s and r = 4 a22 (a11 - u)
    - s^2 of 4 det A = -u^2 + 2 v u + r, and the three terms of the
    reduction lemma, D = v b22 - b12^2, V = 4 det A at v and H = b22^2
    times 4 det A at the hook bound b12^2 / b22, from the block entries
    (b22, b12, a22, s, a11 - u) of ``_block_polys``, as integers at one
    gamma or as integer polynomials in gamma."""
    hook = b12 * b12
    v = a22 * 2 + s
    r = a22 * a11_u * 4 - s * s
    return v, r, v * b22 - hook, v * v + r, (v * b22 * 2 - hook) * hook + r * b22 * b22


def _smallest_u(b22, b12, a22, s, a11_u) -> tuple[int, int, int]:
    """(k, u, kind): the smallest candidate u (module docstring), from the
    block entries (b22, b12, a22, s, a11 - u), and the class of the blocks
    there (``_blocks_at_u``): 0 when they are not PSD, 2 when some u makes
    both blocks definite, else 1.

    With k = b22 when that is > 0, else 1, every candidate for u is an
    integer over the entries' scale times k: the lower bounds 0,
    -(a11 - u) k and, when b22 > 0, the hook bound b12^2 / b22 = b12^2 / k,
    whose largest is L, and the vertex v = (2 a22 + s) k of
    q(u) = -u^2 + 2 v u + r, 4 det A over the squared scale.  u is L when
    q(L) >= 0, else v.  Every value is homogeneous in the entries, so a
    common positive factor changes no class."""
    k = b22 if b22 > 0 else 1
    u = max(-a11_u * k, 0)
    if b22 > 0:
        u = max(u, b12 * b12)
    v = (2 * a22 + s) * k
    r = (4 * a22 * a11_u - s * s) * k * k
    q_low = (2 * v - u) * u + r
    strict = b22 > 0 and a22 > 0 and v * v + r > 0 and (q_low > 0 or v > u)
    if q_low < 0:
        u = v
    if strict:
        return k, u, 2
    blocks = _blocks_at_u((b22, b12, a22, s, a11_u), k, u)
    return k, u, int(_psd_ints(*blocks[:3]) and _psd_ints(*blocks[3:]))


def _blocks_at_u(e, k: int, u: int) -> tuple[int, ...]:
    """The blocks (a11, a12, a22, b11, b12, b22) at the u of
    ``_smallest_u`` on the entries e = (b22, b12, a22, s, a11 - u), over
    twice their scale times k."""
    b22, b12, a22, s, a11_u = e
    return (2 * (a11_u * k + u), s * k - u, 2 * a22 * k, 2 * u, 2 * b12 * k, 2 * b22 * k)


#: (m, m gen) for the block map at gamma = 0, whose generator term
#: vanishes: the gamma = 0 certificate is checked with no n in it.
_NO_GEN = (1, (0, 0, 0, 0, 0))


def _certificate(f: SymFormP, d: int, e, gamma: Fraction, gen_ints) -> SosCertificate | None:
    """The certificate at a rational gamma >= 0 from the block entries
    there, the integers e = (b22, b12, a22, s, a11 - u) over d > 0, with
    the smallest candidate u (``_smallest_u``), or None when its blocks are
    not PSD, and then no u makes them PSD at gamma: the entries-to-step
    part, whose step ``_checked`` turns into the certificate.  The
    decisions call it at gamma = p/q > 0, with e = C q + G p and d = S q
    of ``_block_polys`` (``_entries_at``); at gamma = 0 they read the step
    kept on the form (``_gamma_zero_certificate``), which gives the
    certificate this gives on the entries of ``_gamma_zero_entries``.

    e and d are first divided by their gcd, so that the products of
    ``_smallest_u`` do not carry a common scale, such as the n^2 of S q at
    an end of the gamma range."""
    h = gcd(d, *e)
    e = [x // h for x in e]
    return _checked(f, d // h, e, _smallest_u(*e), gamma, gen_ints)


def _checked(f: SymFormP, d: int, e, step, gamma: Fraction, gen_ints) -> SosCertificate | None:
    """The certificate of the step (k, u, kind) of ``_smallest_u`` on the
    entries e over d, or None when kind is 0, checked on its integers
    before it is built.  Its blocks (``_blocks_at_u``) are integers over
    2 d k, and the self-check reads exactly those, unreduced, as signs and
    cross-multiplied equalities do not need lowest terms: the validity of
    ``_valid_ints`` (both blocks PSD, gamma >= 0, gamma = 0 at LIMIT), and
    the block map ``_expansion`` with (m, m gen) = ``gen_ints``
    (``_NO_GEN`` at gamma = 0) sends them to f, each of the five
    coefficients compared with ``f.nums`` over ``f.den`` cross-multiplied.
    A certificate that fails raises AssertionError; one that passes is
    built once, and its constructor takes the one reduction."""
    k, u, kind = step
    if not kind:
        return None
    den, entries = 2 * d * k, _blocks_at_u(e, k, u)
    big_d, (x4, x31, x22, x211, x1111) = _expansion(den, entries, gamma, gen_ints)
    c4, c31, c22, c211, c1111 = f.nums
    fd = f.den
    if not (
        _valid_ints(entries, gamma.numerator, f.scope)
        and x4 * fd == c4 * big_d
        and x31 * fd == c31 * big_d
        and x22 * fd == c22 * big_d
        and x211 * fd == c211 * big_d
        and x1111 * fd == c1111 * big_d
    ):
        raise AssertionError("internal error: certificate failed verification")
    return SosCertificate(den, entries, gamma, f.scope)


def _entries_at(blocks, gamma: Fraction) -> tuple[int, list[int]]:
    """(d, e): the block entries at a rational gamma = p/q as the integers
    e = C q + G p over d = S q of the linear forms ``_block_polys``."""
    p, q = gamma.numerator, gamma.denominator
    return blocks[0] * q, [c * q + g * p for c, g in blocks[1]]


def _certified(cert: SosCertificate | None) -> SosVerdict:
    """The IN verdict of the certificate at a gamma known to be feasible;
    None there raises AssertionError."""
    if cert is None:
        raise AssertionError("internal error: no certificate at a feasible gamma")
    return SosVerdict("IN", certificate=cert)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@per_form
def _gamma_zero_step(f: SymFormP) -> tuple[int, int, int]:
    """The step (k, u, kind) of ``_smallest_u`` on the raw integers of
    ``_gamma_zero_entries``, which do not depend on n, nor does their
    size, once per form object (``symfunc.per_form``): its kind is the
    class of gamma = 0 (``_gamma_zero_class``), and its u gives the
    blocks of the gamma = 0 certificate (``_gamma_zero_certificate``), so
    no form runs ``_smallest_u`` twice at gamma = 0.  The step keeps u,
    not the six blocks, which only a certificate reads: a form object
    decided at gamma = 0 holds a few integers more, not a second tuple."""
    return _smallest_u(*_gamma_zero_entries(f)[1])


def _gamma_zero_class(f: SymFormP) -> int:
    """The class of gamma = 0, the kind of the step kept on the form
    object (``_gamma_zero_step``): 0 when no u makes both blocks PSD
    there, 2 when some u makes both definite, else 1.  Every gamma = 0
    decision, here and in ``positivity``, reads this class."""
    return _gamma_zero_step(f)[2]


def _gamma_zero_certificate(f: SymFormP) -> SosCertificate | None:
    """The gamma = 0 certificate, or None when the class of gamma = 0 is 0:
    ``_checked`` on the kept step and the raw entries over d = 2 den of
    ``_gamma_zero_entries``, whose blocks are over 2 d k, checked with no
    n in it (``_NO_GEN``).  The blocks and 2 d k scale alike with a common
    factor of d and the entries (``_smallest_u`` is homogeneous), and the
    certificate's lowest terms remove any common factor, so it is the one
    ``_certificate`` builds on the same entries after their gcd."""
    return _checked(f, *_gamma_zero_entries(f), _gamma_zero_step(f), _ZERO, _NO_GEN)


@per_form
def sos_membership_limit(f: SymFormP) -> SosVerdict:
    """Membership in the limit SOS cone (LIMIT scope; gamma = 0 forced).

    Decided once per form object (``symfunc.per_form``), so the verdict
    and its certificate that a caller and ``sos_boundary`` both read are
    built once.  gamma = 0 decides: the kind of the step kept on the form
    (``_gamma_zero_step``), which ``is_nonneg_limit`` has usually read
    already, and, when it is IN, the certificate built at that step's u
    (``_gamma_zero_certificate``), with no second ``_smallest_u``."""
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is not LIMIT:
        raise ValueError("use sos_membership for numeric scopes")
    if not _gamma_zero_class(f):
        return _OUT
    return _certified(_gamma_zero_certificate(f))


def _gamma_range(f: SymFormP) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The admissible gamma range [lo, hi] at the form's numeric scope n,
    where b22 and a22 are >= 0: lo = max(0, -2n^2 c4/(n-1)) and
    hi = 2n^2 (c4 + c22)/(n-2)^2, or None when it is empty and f is outside
    the cone.  Each end is an integer pair (numerator, denominator > 0),
    read on ``f.nums`` over ``f.den`` and not reduced, so no gcd is taken;
    a Fraction is made only where an end is certified."""
    n, den = f.scope, f.den
    c4, _, c22, _, _ = f.nums
    m = 2 * n * n
    lo = (-m * c4, den * (n - 1)) if c4 < 0 else (0, 1)
    hi = (m * (c4 + c22), den * (n - 2) ** 2)
    return None if lo[0] * hi[1] > hi[0] * lo[1] else (lo, hi)


@per_form
def _gamma_terms(f: SymFormP) -> tuple[tuple[int, ...], ...]:
    """D, V and 6 H of the reduction lemma as integer polynomials in gamma,
    constant term first, once per form object (``symfunc.per_form``):
    ``_reduction_terms`` on the linear forms of ``_block_polys`` at gamma =
    0, 1, 2, 3, by finite differences (deg D, V <= 1 and deg H <= 3)."""
    forms = _block_polys(f)[1]
    (d0, v0, h0), (d1, v1, h1), (_, _, h2), (_, _, h3) = (
        _reduction_terms(*(c + g * t for c, g in forms))[2:] for t in range(4)
    )
    e1, e2, e3 = h1 - h0, h2 - 2 * h1 + h0, h3 - 3 * h2 + 3 * h1 - h0
    return (d0, d1 - d0), (v0, v1 - v0), (6 * h0, 6 * e1 - 3 * e2 + 2 * e3, 3 * e2 - 3 * e3, e3)


def _sqrt_sign(x: int, y: int, d: int) -> int:
    """The sign of x + y sqrt(d), d >= 0, read in integers."""
    sx, sy, t = (x > 0) - (x < 0), (y > 0) - (y < 0), x * x - y * y * d
    return (sx or sy) if sx * sy >= 0 else sx * ((t > 0) - (t < 0))


def _j_ends(lo, hi, D, V) -> tuple[int, int, int, int]:
    """(an, ad, bn, bd): J = {D >= 0, V >= 0} in [lo, hi] is
    [an / ad, bn / bd] when that has interior, from the integer ends of
    ``_gamma_range`` and the linear D and V of ``_gamma_terms``."""
    (an, ad), (bn, bd) = lo, hi
    for c0, c1 in (D, V):
        if c1 > 0 and -c0 * ad > an * c1:
            an, ad = -c0, c1
        elif c1 < 0 and c0 * bd < -bn * c1:
            bn, bd = c0, -c1
        elif not c1 and c0 < 0:
            bn, bd = an, ad
    return an, ad, bn, bd


def _local_max(H, lo, hi) -> tuple[int, int, int, int, int | None]:
    """(x, y, z, d, top): r = (x + y sqrt(d)) / z, the local maximum of the
    cubic (or quadratic) H when it has one, and top, the sign of H at r
    when r is a local maximum in (lo, hi), else None (module docstring,
    step 2)."""
    h0, h1, h2, h3 = H
    x, y, z, d = (-h2, -1, 3 * h3, h2 * h2 - 3 * h1 * h3) if h3 else (-h1, 0, 2 * h2, 0)
    sz = 1 if z > 0 else -1
    if not (d > 0 if h3 else h2 < 0) or any(
        sz * _sqrt_sign(x * ed - z * en, y * ed, d) != side for (en, ed), side in ((lo, 1), (hi, -1))
    ):
        return x, y, z, d, None
    P = Q = 0  # z^3 H(r) = P + Q sqrt(d), by the homogeneous Horner sum
    for k, c in enumerate(reversed(H)):
        P, Q = P * x + Q * y * d + c * z**k, P * y + Q * x
    return x, y, z, d, sz * _sqrt_sign(P, Q, d)


def _open_gamma(f: SymFormP) -> Fraction | None:
    """A rational gamma in (lo, hi) where (D >= 0 and V >= 0) or H >= 0,
    else None, with both ends infeasible (module docstring, step 2).
    Candidates, in order: the simplest rational of J = {D >= 0, V >= 0}
    (``_j_ends``); the simplest between ends 2^-j apart, j = 1, 2, 4, ...,
    of the local maximum r = (x + y sqrt(d)) / z of H (``_local_max``); r
    where H(r) = 0.  H > 0 at an end would make the gammas next to it
    feasible, and so the end, as F is closed.  The ends are the integer
    pairs of ``_gamma_range``, and a candidate is tested on integers; a
    Fraction is made only for the gamma returned."""
    lo, hi = _gamma_range(f)
    D, V, H = _gamma_terms(f)
    an, ad, bn, bd = _j_ends(lo, hi, D, V)
    if an * bd < bn * ad:
        return Fraction(*_simplest_between_ints(an, ad, bn, bd))
    x, y, z, d, top = _local_max(H, lo, hi)
    sz, az = (1 if z > 0 else -1), abs(z)
    j = 1
    while top == 1:
        k = isqrt((d << 2 * j) // (z * z))  # k |z| / 2^j <= sqrt(d) < (k + 1) |z| / 2^j
        e0, e1 = sorted(sz * ((x << j) + y * i * az) for i in (k, k + 1))  # r's ends, over |z| 2^j
        if e0 > 0:
            p, q = _simplest_between_ints(e0, az << j, e1, az << j)
            if lo[0] * q < p * lo[1] and p * hi[1] < hi[0] * q and _zsign_ints(H, p, q) > 0:
                return Fraction(p, q)
        j *= 2
    return Fraction(x + y * isqrt(d), z) if top == 0 else None


@per_form
def sos_membership(f: SymFormP) -> SosVerdict:
    """Membership in the symmetric-SOS cone at the form's numeric scope.

    Decided once per form object (``symfunc.per_form``), so the verdict
    and its certificate that a caller, ``sos_boundary`` and
    ``find_separating_functional`` read are built once.  A feasible
    gamma = 0 gives the certificate built at the u of the step kept on
    the form (``_gamma_zero_certificate``), the step whose kind
    ``is_nonneg`` and ``is_strictly_positive`` read; only a gamma > 0 runs
    ``_certificate`` on the entries there.  The kept nonnegativity verdict
    is read through ``positivity.kept_nonneg``, looked up at call time."""
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.scope is LIMIT:
        raise ValueError("use sos_membership_limit for LIMIT-scope forms")
    if f.scope < 4:
        raise ValueError("scope must be at least 4")
    # a kept nonnegativity OUT decides (module docstring)
    nonneg = positivity.kept_nonneg(f)
    if nonneg is not None and nonneg.status == "OUT":
        return _OUT
    if _gamma_zero_class(f):
        # the feasible end lo = 0 of step 1 (module docstring)
        return _certified(_gamma_zero_certificate(f))
    gamma_range = _gamma_range(f)
    if gamma_range is None:
        return _OUT
    lo, hi = (Fraction(*end) for end in gamma_range)

    # a feasible end decides IN (step 1); gamma = 0 is known infeasible here
    blocks = _block_polys(f)
    for gamma in (lo, hi) if lo < hi else (lo,):
        cert = _certificate(f, *_entries_at(blocks, gamma), gamma, blocks[2]) if gamma else None
        if cert is not None:
            return SosVerdict("IN", certificate=cert)
    # both ends infeasible: step 2
    gamma = _open_gamma(f) if lo < hi else None
    if gamma is None:
        return _OUT
    return _certified(_certificate(f, *_entries_at(blocks, gamma), gamma, blocks[2]))


# ---------------------------------------------------------------------------
# boundary status
# ---------------------------------------------------------------------------


def _has_interior_gamma(f: SymFormP) -> bool:
    """Some gamma in (lo, hi), the interior of the admissible range of an
    SOS form, admits a u that makes both blocks definite: by the reduction
    lemma, (D > 0 and V > 0) or H > 0 there, read in signs (module
    docstring): J has interior and neither D nor V is 0 identically, or
    H > 0 at lo, at hi or at its local maximum in (lo, hi)."""
    lo, hi = _gamma_range(f)
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        return False
    D, V, H = _gamma_terms(f)
    an, ad, bn, bd = _j_ends(lo, hi, D, V)
    return (
        (an * bd < bn * ad and any(D) and any(V))
        or any(_zsign_ints(H, *end) > 0 for end in (lo, hi))
        or _local_max(H, lo, hi)[4] == 1
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

    The six block entries are read as the certificate keeps them, integers
    over its scale D, and the kernels as integer vectors over their scales
    s_k and s_j, each D or 1 (``_kernel_ints``).  Every value is quadratic
    in k, and in the j-branch also quadratic in j, so S = s_k^2, or
    s_k^2 s_j^2 when the j-branch sets lam, times n - 1 after the gamma
    step.  The candidate is unique up to these choices, so when it fails
    the verification in ``sos_boundary`` the form has no supporting
    functional.
    """
    numeric = cert.scope is not LIMIT
    d, (a11, a12, a22, b11, b12, b22) = cert.den, cert.entries
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
    interior is the image of definite blocks with gamma > 0.  Class 2 of
    gamma = 0 (``_gamma_zero_class``) is INTERIOR at every scope, before
    a verdict or a range is built; at LIMIT the other classes are OUTSIDE
    or BOUNDARY, and at a numeric n an SOS form is INTERIOR when the sign
    read of ``_has_interior_gamma`` says so.  The verdict is the one kept
    on the form (``sos_membership``, ``sos_membership_limit``), and a
    boundary form gets y from the face of its certificate
    (``_supporting_functional``), as integers over one positive scale, the
    form in which ``DualFunctional`` keeps it, and the three checks read
    those integers (y(f) = 0 as ``dualcone._pairing_ints``, and
    ``dualcone.dual_membership``).  The zero form raises ValueError.
    """
    if f.degree != 4:
        raise ValueError("decision implemented for degree 4")
    if f.is_zero():
        raise ValueError("boundary status of the zero form is undefined")
    if _gamma_zero_class(f) == 2:
        return "INTERIOR", None
    limit = f.scope is LIMIT
    verdict = sos_membership_limit(f) if limit else sos_membership(f)
    if verdict.status == "OUT":
        return "OUTSIDE", None
    if not limit and _has_interior_gamma(f):
        return "INTERIOR", None
    y = DualFunctional(*_supporting_functional(verdict.certificate))
    if not any(y.ys) or _pairing_ints(y, f) or not dual_membership(y, f.scope):
        raise AssertionError("internal error: supporting functional failed verification")
    return "BOUNDARY", y


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


def _separator(den: int, ys: tuple[int, ...], f: SymFormP) -> DualFunctional:
    """The functional ys / den, den > 0, once the pairing with f is < 0,
    read as the sign of ``dualcone._pairing_ints``, and
    ``dualcone.dual_membership`` holds on its integers; else
    AssertionError."""
    ell = DualFunctional(den, ys)
    if not (_pairing_ints(ell, f) < 0 and dual_membership(ell, f.scope)):
        raise AssertionError("internal error: separator failed verification")
    return ell


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
    rho sqrt(n-1), and w through those between dyadic ends below w_max;
    at the negative point (1, 0) at infinity (C0 < 0), u = j at w = 1.  A
    zero u or w is replaced by 2^-j, the ends are 2^-j apart for
    j = 1, 2, 4, ..., and the first (u, w) that passes is returned.  They
    are integer pairs u = un / ud, w = wn / wd, tested on integers, and the
    functional is (Z^2 + T^2 wd^2, (ud Z + T un wd) un wd, T^2 wd^2,
    T un^2 wd^2, un^4 wd^2) / (un^4 wd^2), Z = (2 un wd + ud wn) ud and
    T = un^2 + ud^2 (``_separator``).
    """
    n = f.scope
    C0, K, B, b22, a22 = _chart_quartic(f)
    top, bottom = (n - 2) ** 2, n - 1  # w_max^2 = top / bottom
    M = 4 * b22 * K - B * B
    vertex = C0 > 0 and M < 0 and M * M > 64 * b22 * b22 * C0 * a22  # G(T*) < 0
    if b22 > 0 and (a22 < 0 or (vertex and -M * B * B * bottom < 32 * b22**3 * C0 * top)):
        tn, td = (0, 1) if a22 < 0 else (-M, 8 * b22 * C0)
        # w = -B u / (2 b22) on the vertex line, with u's sign making w >= 0
        sign = -1 if B > 0 else 1

        def point(j: int) -> tuple[tuple[int, int], tuple[int, int]]:
            k = isqrt((tn << 2 * j) // td)  # k / 2^j <= sqrt(T) < (k + 1) / 2^j
            p, q = _simplest_between_ints(k, 1 << j, k + 1, 1 << j) if k else (1, 1 << j)
            return (sign * p, q), ((abs(B) * p, 2 * b22 * q) if B else (1, 1 << j))

    else:
        edge = binary_quartic_negative_point(
            [C0 * bottom**3, 0, K * bottom**2, B * (n - 2) * bottom, b22 * top + a22 * bottom]
        )
        if edge is None:
            return None
        rho, y = edge
        rn, rd = abs(rho.numerator), rho.denominator

        def point(j: int) -> tuple[tuple[int, int], tuple[int, int]]:
            if not y:
                return (j, 1), (1, 1)
            k = isqrt(bottom << 2 * j)  # k / 2^j <= sqrt(n-1) < (k + 1) / 2^j
            kw = isqrt((top << 2 * j) // bottom)  # kw / 2^j <= w_max
            p, q = _simplest_between_ints(rn * k, rd << j, rn * (k + 1), rd << j) if rn else (1, 1 << j)
            # w in [(kw - 2) / 2^j, (kw - 1) / 2^j], 0 when that is not > 0
            w = _simplest_between_ints(kw - 2, 1 << j, kw - 1, 1 << j) if kw > 2 else (0, 1)
            return (-p if rho < 0 else p, q), w

    j = 1
    while True:
        (un, ud), (wn, wd) = point(j)
        u2, d2, w2 = un * un, ud * ud, wd * wd
        # 0 < w, w^2 (n-1) < (n-2)^2 and ud^4 wd^2 P(u, w) < 0
        if 0 < wn and wn * wn * bottom < top * w2 and (
            ((C0 * u2 + K * d2) * u2 + a22 * d2 * d2) * w2 + (B * un * ud * wd + b22 * wn * d2) * wn * d2 < 0
        ):
            break
        j *= 2
    Z, T = (2 * un * wd + ud * wn) * ud, u2 + d2
    tw = T * w2
    ys = (Z * Z + T * tw, (ud * Z + T * un * wd) * un * wd, T * tw, tw * u2, u2 * u2 * w2)
    return _separator(ys[4], ys, f)


def find_separating_functional(f: SymFormP):
    """A rational dual functional ell with ell(f) < 0 that is nonnegative on
    every symmetric square at the form's scope n >= 4; None exactly when f
    is a symmetric sum of squares.

    Every returned functional is checked exactly, on integers over one
    denominator (``_separator``).  Raises ValueError for LIMIT scope.

    The two segment ends of step 2 pair with f to a22 and a22 + v b22 at
    v = (n-2)^2/(n-1), so they are tested as the signs of a22 and
    (n-1) a22 + (n-2)^2 b22 on the gamma = 0 entries.  Then, when f is not
    nonnegative at n, the point evaluation at the negative point of
    ``positivity.is_nonneg`` separates, built as integers over one common
    denominator (``dualcone._weighted_point_ints``).  The s-chart of step 3
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

    # the segment ends pair with f to a22 and a22 + v b22, read in signs on
    # the gamma = 0 entries
    b22, _, a22, _, _ = _gamma_zero_entries(f)[1]
    if a22 < 0:
        return _separator(1, (1, 0, 1, 0, 0), f)
    if (n - 1) * a22 + (n - 2) ** 2 * b22 < 0:
        return _separator(n - 1, (n - 1 + (n - 2) ** 2, 0, n - 1, 0, 0), f)

    # a negative point of f is a point evaluation pairing negatively with
    # it; is_nonneg is kept on the form object, so this is a read when the
    # caller has asked it already
    nonneg = positivity.is_nonneg(f)
    if nonneg.status == "OUT":
        return _separator(*_weighted_point_ints(*nonneg.witness), f)

    ell = _w_separator(f)
    if ell is not None:
        return ell
    # the verdict kept on the form object, a read when the caller has asked it
    if sos_membership(f).status == "OUT":
        raise AssertionError("internal error: no separator found for an SOS-OUT form")
    return None


# positivity imports this module, so it is bound last; the decisions look
# up ``positivity.kept_nonneg`` and ``positivity.is_nonneg`` at call time
from . import positivity  # noqa: E402
