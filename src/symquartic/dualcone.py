"""Linear functionals on symmetric quartics and the dual-cone machinery.

A functional is stored by its five values y_lambda on the normalized
power-sum basis.  It is nonnegative on every symmetric square exactly when
three blocks are PSD: two symmetric 2x2 matrices (the trivial and hook
components) and one scalar (the two-row component):

    M_triv = [[y_(2^2), y_(2,1^2)], [y_(2,1^2), y_(1^4)]]
    M_hook = [[y_(4)-y_(2^2), y_(3,1)-y_(2,1^2)],
              [y_(3,1)-y_(2,1^2), y_(2,1^2)-y_(1^4)]]
    M_tworow = (n^2/2) y_(1^4) - n^2 y_(2,1^2) + (2n-2) y_(3,1)
               + ((n^2-3n+3)/2) y_(2^2) + ((1-n)/2) y_(4)

Boundary functionals for strictly positive SOS forms come from a
two-generator kernel spanned by d p_1^2 + c p_2 (trivial type) and a hook
element with weights (b, a); annihilating the corresponding products
forces, up to scale,

    y_(2,1^2) = -d/c,   y_(2^2) = d^2/c^2,
    y_(3,1) = -(da - db - bc)/(ca),
    y_(4) = (a^2 d^2 - b^2 c^2 - b^2 cd)/(a^2 c^2),   y_(1^4) = 1.

(Solving the annihilation system from scratch is the source of truth
here; it makes both 2x2 blocks singular PSD, as a boundary functional
must be.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import SymMat2, UniPoly, psd2, rational_roots
from .symfunc import LIMIT, SymFormP, phi_alpha_coeffs

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class DualFunctional:
    """Values y_lambda = ell(p_lambda) in canonical partition order."""

    y4: Fraction
    y31: Fraction
    y22: Fraction
    y211: Fraction
    y1111: Fraction

    def __post_init__(self):
        for name in ("y4", "y31", "y22", "y211", "y1111"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.y4, self.y31, self.y22, self.y211, self.y1111)

    def scale(self, t) -> "DualFunctional":
        t = Fraction(t)
        return DualFunctional(*(t * y for y in self.as_tuple()))


def pair(ell: DualFunctional, f: SymFormP) -> Fraction:
    """The exact pairing sum_lambda c_lambda y_lambda."""
    if f.degree != 4:
        raise ValueError("pairing defined for degree-4 forms")
    return sum((c * y for c, y in zip(f.coeffs, ell.as_tuple())), _ZERO)


def point_eval_functional(v) -> DualFunctional:
    """The functional f -> f(v): y_lambda = p_lambda(v)."""
    v = [Fraction(x) for x in v]
    if not v:
        raise ValueError("point must have at least one coordinate")
    n = len(v)
    p = [Fraction(sum(x**i for x in v), n) for i in (1, 2, 3, 4)]
    return DualFunctional(p[3], p[2] * p[0], p[1] * p[1], p[1] * p[0] ** 2, p[0] ** 4)


def dual_blocks(ell: DualFunctional, n: int) -> tuple[SymMat2, SymMat2, Fraction]:
    """The trivial/hook 2x2 blocks and the scalar two-row block at size n."""
    if n < 4:
        raise ValueError("n must be at least 4")
    y4, y31, y22, y211, y1111 = ell.as_tuple()
    m_triv = SymMat2(y22, y211, y1111)
    m_hook = SymMat2(y4 - y22, y31 - y211, y211 - y1111)
    m_tworow = (
        Fraction(n * n, 2) * y1111
        - n * n * y211
        + (2 * n - 2) * y31
        + Fraction(n * n - 3 * n + 3, 2) * y22
        + Fraction(1 - n, 2) * y4
    )
    return m_triv, m_hook, m_tworow


def dual_membership(ell: DualFunctional, n: int) -> bool:
    """True iff ell is nonnegative on all symmetric squares at size n."""
    m_triv, m_hook, m_tworow = dual_blocks(ell, n)
    return psd2(m_triv) and psd2(m_hook) and m_tworow >= 0


# ---------------------------------------------------------------------------
# boundary functionals
# ---------------------------------------------------------------------------


def boundary_family_functional(a, b, c, d) -> DualFunctional:
    """The kernel-annihilating functional for parameters (a, b, c, d).

    Requires a != 0 and c != 0.  The returned functional pairs to zero
    with a^2 p_(4) + 2ab p_(3,1) + (c^2-a^2) p_(2^2)
    + (2cd+b^2-2ab) p_(2,1^2) + (d^2-b^2) p_(1^4) by construction; PSD-ness
    of its blocks depends on the parameters and must be checked separately.
    """
    a, b, c, d = (Fraction(t) for t in (a, b, c, d))
    if a == 0 or c == 0:
        raise ValueError("family functional requires a != 0 and c != 0")
    return DualFunctional(
        (a * a * d * d - b * b * c * c - b * b * c * d) / (a * a * c * c),
        -(d * a - d * b - b * c) / (c * a),
        d * d / (c * c),
        -d / c,
        _ONE,
    )


def kernel_system_rows(a, b, c, d) -> list[list[Fraction]]:
    """Coefficient rows (over y4, y31, y22, y211, y1111) of the four linear
    conditions that make ell annihilate every square built on the kernel
    generated by d p_1^2 + c p_2 and the (b, a)-weighted hook element."""
    a, b, c, d = (Fraction(t) for t in (a, b, c, d))
    z = _ZERO
    return [
        [z, z, z, c, d],  # trivial block row against (d, c), second coord
        [z, z, c, d, z],  # trivial block row, first coordinate
        [z, a, z, b - a, -b],  # hook block row, second coordinate
        [a, b, -a, -b, z],  # hook block row, first coordinate
    ]


def _nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the nullspace of a small rational matrix."""
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                fac = mat[r][col]
                mat[r] = [x - fac * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def special_functional() -> DualFunctional:
    """The functional spanning the annihilator of the degenerate kernel
    whose trivial-type generator is p_1^2 alone (the c = 0 case, relevant
    for odd sizes).  Computed from the linear system rather than quoted:
    the nullspace is one-dimensional and equals the span of
    (y4, y31, y22, y211, y1111) = (1, 0, 1, 0, 0), i.e. f -> c_(4) + c_(2^2).
    """
    basis = _nullspace(kernel_system_rows(1, 1, 0, 1))
    if len(basis) != 1:
        raise AssertionError("degenerate kernel annihilator is not a line")
    vec = basis[0]
    scale = 1 / vec[0]
    return DualFunctional(*(scale * x for x in vec))


# ---------------------------------------------------------------------------
# boundary certification
# ---------------------------------------------------------------------------


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The nonnegative rational square root of q, or None."""
    import math

    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _rational_projective_roots(h) -> list[tuple[Fraction, Fraction]]:
    """Rational projective zeros of a binary quartic (descending tuple)."""
    p = UniPoly(list(reversed([Fraction(x) for x in h])))
    if p.is_zero():
        return [(_ONE, _ZERO)]
    at_infinity = [(_ONE, _ZERO)] if h[0] == 0 else []
    return at_infinity + [(r, _ONE) for r in rational_roots(p)]


def _family_inversions(f: SymFormP) -> list[DualFunctional]:
    """Functionals obtained by matching f against the boundary family."""
    c4, c31, c22, c211, c1111 = f.coeffs
    a = _rational_sqrt(c4)
    if not a:
        return []
    b = c31 / (2 * a)
    croot = _rational_sqrt(c22 + c4)
    if not croot:
        return []
    out = []
    for c in (croot, -croot):
        d = (c211 - b * b + 2 * a * b) / (2 * c)
        if c1111 == d * d - b * b:
            out.append(boundary_family_functional(a, b, c, d))
    return out


def certify_boundary(f: SymFormP):
    """A dual functional with PSD blocks pairing to zero against f, or
    None when the search finds none (f then sits in the interior as far
    as this certificate family can tell).

    Requires f to be in the SOS cone at its numeric scope.  Searches
    two-value point evaluations first, then the kernel-annihilating
    family, then the degenerate-kernel functional for odd sizes.
    """
    from .sos import sos_membership

    if f.scope is LIMIT:
        raise ValueError("boundary certification requires a numeric scope")
    n = f.scope
    if sos_membership(f).status != "IN":
        raise ValueError("certify_boundary requires an SOS form")

    if sum(f.coeffs, _ZERO) == 0:
        return point_eval_functional((_ONE,) * n)
    cs = phi_alpha_coeffs(f)
    for k in range(1, n):
        alpha = Fraction(k, n)
        h = tuple(c(alpha) for c in cs)
        for x, y in _rational_projective_roots(h):
            v = (x,) * k + (y,) * (n - k)
            ell = point_eval_functional(v)
            if pair(ell, f) == 0 and dual_membership(ell, n):
                return ell

    for ell in _family_inversions(f):
        if pair(ell, f) == 0 and dual_membership(ell, n):
            return ell

    if n % 2 == 1:
        ell = special_functional()
        if pair(ell, f) == 0 and dual_membership(ell, n):
            return ell
    return None
