"""Linear functionals on symmetric quartics and the dual-cone machinery.

A functional is given by its five values y_lambda on the normalized
power-sum basis, kept as five integers over one positive scale in lowest
terms (``DualFunctional``), the same representation as a form's
``SymFormP.den`` and ``SymFormP.nums``; so the pairing and the dual-cone
test read integers, and Fractions are made only where values are read
out.  A functional is nonnegative on every symmetric square exactly when
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

from .algebra import SymMat2, _lowest_terms, _over_lcm
from .symfunc import LIMIT, SymFormP


@dataclass(frozen=True, init=False)
class DualFunctional:
    """Values y_lambda = ell(p_lambda) in canonical partition order, as the
    integers ``ys`` over the scale ``den``, in lowest terms: den > 0 and
    gcd(den, *ys) = 1, which the constructor makes so.  So equal
    functionals are equal objects with equal hashes.  ``from_values``
    builds one from rational values, and ``y4`` ... ``y1111`` and
    ``as_tuple`` read them back as Fractions."""

    den: int
    ys: tuple[int, ...]

    def __init__(self, den: int, ys):
        """The functional ys / den, taken to lowest terms once by
        ``algebra._lowest_terms`` (ValueError on den <= 0 or a count other
        than five), and stored past the frozen ``__setattr__``."""
        den, ys = _lowest_terms(den, ys, 5)
        self.__dict__.update(den=den, ys=ys)

    @classmethod
    def from_values(cls, *values) -> "DualFunctional":
        """The functional with the rational values (y4, y31, y22, y211,
        y1111); each goes through ``Fraction()``."""
        return cls(*_over_lcm(Fraction(y) for y in values))

    y4, y31, y22, y211, y1111 = (property(lambda self, i=i: Fraction(self.ys[i], self.den)) for i in range(5))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(y, self.den) for y in self.ys)


def _pairing_ints(ell: DualFunctional, f: SymFormP) -> int:
    """The numerator of the pairing of ell with the degree-4 form f over
    the positive ``f.den * ell.den``, which has its sign: the integer that
    ``sos`` compares with 0, with no Fraction made."""
    return sum(c * y for c, y in zip(f.nums, ell.ys))


def pair(ell: DualFunctional, f: SymFormP) -> Fraction:
    """The exact pairing sum_lambda c_lambda y_lambda, read on the integers
    of both: ``_pairing_ints`` over ``f.den * ell.den``."""
    if f.degree != 4:
        raise ValueError("pairing defined for degree-4 forms")
    return Fraction(_pairing_ints(ell, f), f.den * ell.den)


def point_eval_functional(v) -> DualFunctional:
    """The functional f -> f(v): y_lambda = p_lambda(v)."""
    v = [Fraction(x) for x in v]
    if not v:
        raise ValueError("point must have at least one coordinate")
    n = len(v)
    p1, p2, p3, p4 = (Fraction(sum(x**i for x in v), n) for i in (1, 2, 3, 4))
    return DualFunctional.from_values(p4, p3 * p1, p2 * p2, p2 * p1 * p1, p1**4)


def _weighted_point_ints(weights, point) -> tuple[int, tuple[int, ...]]:
    """(den, ys): the functional f -> Phi_f(w, x, y) of a nonnegativity
    witness ((w1, w2), (x, y)), y_lambda = p_lambda with
    p_i = w1 x^i + w2 y^i, as the integers ys over one positive den, in
    canonical order.

    For w1 = k/n, w2 = 1 - w1 this is the evaluation at the point with k
    coordinates x and n - k coordinates y, so it lies in the dual cone at
    size n.  With w1 = R/N, w2 = T/N over the lcm N of the weights'
    denominators and x = A/D, y = C/D over that of the point's,
    p_i = P_i / (N D^i) for P_i = R A^i + T C^i, so y_lambda has the
    denominator N^len(lambda) D^4 and den = N^4 D^4."""
    big_n, (r, t) = _over_lcm(map(Fraction, weights))
    big_d, (a, c) = _over_lcm(map(Fraction, point))
    p1, p2, p3, p4 = (r * a**i + t * c**i for i in (1, 2, 3, 4))
    nn = big_n * big_n
    ys = (p4 * nn * big_n, p3 * p1 * nn, p2 * p2 * nn, p2 * p1 * p1 * big_n, p1**4)
    return (nn * big_d * big_d) ** 2, ys


def _psd_ints(m11: int, m12: int, m22: int) -> bool:
    """``algebra.psd2`` of [[m11, m12], [m12, m22]], on integers."""
    return m11 >= 0 and m22 >= 0 and m11 * m22 >= m12 * m12


def _square_blocks(ys) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The trivial and hook 2x2 blocks (m11, m12, m22), which do not depend
    on n, of the values ys over a positive scale, over the same scale."""
    y4, y31, y22, y211, y1111 = ys
    return (y22, y211, y1111), (y4 - y22, y31 - y211, y211 - y1111)


def _gamma_gen_ints(scope) -> tuple[int, tuple[int, ...]]:
    """(m, m gen): the scalar-block generator gen at a numeric scope n, or
    LIMIT, as integers over m = 2n^2 (m = 2 at LIMIT), in canonical order;
    written once here, and read by ``dual_blocks``, ``dual_membership``,
    ``sos.expand_certificate`` and, at the symbol n, by
    ``specht.gamma_generator_p_coeffs``.  A functional pairs with gen to
    its two-row block over n^2."""
    if scope is LIMIT:
        return 2, (0, 0, 1, -2, 1)
    n = scope
    nn = n * n
    return 2 * nn, (1 - n, 4 * n - 4, nn - 3 * n + 3, -2 * nn, nn)


def _tworow_ints(ys, n) -> int:
    """The two-row block at size n of the values ys over a positive scale,
    times twice that scale: ys paired with m gen, m = 2n^2."""
    return sum(g * y for g, y in zip(_gamma_gen_ints(n)[1], ys))


def dual_blocks(ell: DualFunctional, n: int) -> tuple[SymMat2, SymMat2, Fraction]:
    """The trivial/hook 2x2 blocks and the scalar two-row block at size n,
    n^2 times the pairing of ell with the scalar-block generator."""
    if n < 4:
        raise ValueError("n must be at least 4")
    den = ell.den
    m_triv, m_hook = (SymMat2(*(Fraction(x, den) for x in m)) for m in _square_blocks(ell.ys))
    return m_triv, m_hook, Fraction(_tworow_ints(ell.ys, n), 2 * den)


def dual_membership(ell: DualFunctional, n) -> bool:
    """True iff ell is nonnegative on all symmetric squares at size n; for
    n = LIMIT, on the limit SOS cone, where the two-row block drops out:
    divided by n^2 it tends to (1/2) (1, -1) M_triv (1, -1)^T >= 0.

    Read on the integers ``ell.ys``: the blocks of ``dual_blocks`` times
    ``ell.den``, and the two-row block times 2 ``ell.den``; positive
    factors leave every sign alone."""
    if n is not LIMIT and n < 4:
        raise ValueError("n must be at least 4")
    m_triv, m_hook = _square_blocks(ell.ys)
    return _psd_ints(*m_triv) and _psd_ints(*m_hook) and (n is LIMIT or _tworow_ints(ell.ys, n) >= 0)


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
    return DualFunctional.from_values(
        (a * a * d * d - b * b * c * c - b * b * c * d) / (a * a * c * c),
        -(d * a - d * b - b * c) / (c * a),
        d * d / (c * c),
        -d / c,
        1,
    )

