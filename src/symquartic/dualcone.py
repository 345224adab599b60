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

The paper's boundary functionals for strictly positive SOS forms come
from a two-generator kernel spanned by d p_1^2 + c p_2 (trivial type) and
a hook element with weights (b, a); annihilating the corresponding
products forces, up to scale,

    y_(2,1^2) = -d/c,   y_(2^2) = d^2/c^2,
    y_(3,1) = -(da - db - bc)/(ca),
    y_(4) = (a^2 d^2 - b^2 c^2 - b^2 cd)/(a^2 c^2),   y_(1^4) = 1

(``boundary_family_functional``), which makes both 2x2 blocks singular.
Deciding whether a given form is on the boundary, with a supporting
functional when it is, is ``sos.sos_boundary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import SymMat2, psd2
from .symfunc import LIMIT, SymFormP

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


def _power_mean_functional(p1, p2, p3, p4) -> DualFunctional:
    """y_lambda = p_lambda, the products of the given power means."""
    return DualFunctional(p4, p3 * p1, p2 * p2, p2 * p1 * p1, p1**4)


def point_eval_functional(v) -> DualFunctional:
    """The functional f -> f(v): y_lambda = p_lambda(v)."""
    v = [Fraction(x) for x in v]
    if not v:
        raise ValueError("point must have at least one coordinate")
    n = len(v)
    return _power_mean_functional(*(Fraction(sum(x**i for x in v), n) for i in (1, 2, 3, 4)))


def weighted_point_functional(weights, point) -> DualFunctional:
    """The functional f -> Phi_f(w, x, y) of a nonnegativity witness
    ((w1, w2), (x, y)): y_lambda = p_lambda with p_i = w1 x^i + w2 y^i.

    For w1 = k/n, w2 = 1 - w1 this is the evaluation at the point with k
    coordinates x and n - k coordinates y, so it lies in the dual cone at
    size n."""
    (w1, w2), (x, y) = weights, point
    return _power_mean_functional(*(w1 * x**i + w2 * y**i for i in (1, 2, 3, 4)))


def _square_blocks(ell: DualFunctional) -> tuple[SymMat2, SymMat2]:
    """The trivial and hook 2x2 blocks, which do not depend on n."""
    y4, y31, y22, y211, y1111 = ell.as_tuple()
    return SymMat2(y22, y211, y1111), SymMat2(y4 - y22, y31 - y211, y211 - y1111)


def _gamma_gen_ints(scope) -> tuple[int, tuple[int, ...]]:
    """(m, m gen): the scalar-block generator gen at a numeric scope n, or
    LIMIT, as integers over m = 2n^2 (m = 2 at LIMIT), in canonical order;
    written once here, and divided out by ``gamma_gen_coeffs``."""
    if scope is LIMIT:
        return 2, (0, 0, 1, -2, 1)
    n = scope
    nn = n * n
    return 2 * nn, (1 - n, 4 * n - 4, nn - 3 * n + 3, -2 * nn, nn)


def gamma_gen_coeffs(scope) -> tuple[Fraction, ...]:
    """Canonical-order coefficients of the scalar-block generator of the
    SOS cone at a numeric scope n, or LIMIT; a functional pairs with it to
    its two-row block over n^2."""
    m, gen = _gamma_gen_ints(scope)
    return tuple(Fraction(g, m) for g in gen)


def dual_blocks(ell: DualFunctional, n: int) -> tuple[SymMat2, SymMat2, Fraction]:
    """The trivial/hook 2x2 blocks and the scalar two-row block at size n,
    n^2 times the pairing of ell with the scalar-block generator."""
    if n < 4:
        raise ValueError("n must be at least 4")
    m_triv, m_hook = _square_blocks(ell)
    gen = gamma_gen_coeffs(n)
    m_tworow = n * n * sum((g * y for g, y in zip(gen, ell.as_tuple())), _ZERO)
    return m_triv, m_hook, m_tworow


def dual_membership(ell: DualFunctional, n) -> bool:
    """True iff ell is nonnegative on all symmetric squares at size n; for
    n = LIMIT, on the limit SOS cone, where the two-row block drops out:
    divided by n^2 it tends to (1/2) (1, -1) M_triv (1, -1)^T >= 0."""
    if n is LIMIT:
        return all(psd2(m) for m in _square_blocks(ell))
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

