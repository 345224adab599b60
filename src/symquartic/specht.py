"""Specht polynomials, brute-force symmetrization, and the degree-4
symmetry-adapted blocks.

The symmetrization operator Sym averages a polynomial over all variable
permutations.  For a single monomial the average is exactly the weighted
monomial basis element of its exponent shape, so brute-force symmetrization
works monomial-by-monomial with no factorial-size enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import MultiPoly, RatFunc
from .partitions import Partition, is_partition
from .symfunc import (
    LIMIT,
    SymFormP,
    SymFuncM,
    form_from_dict,
    p_to_m,
)

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Tableaux and Specht polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tableau:
    """A Young tableau: rows of distinct integers filling {1, ..., n}."""

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = tuple(self.shape)
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        if not is_partition(shape):
            raise ValueError("invalid shape")
        if tuple(len(r) for r in rows) != shape:
            raise ValueError("row lengths do not match the shape")
        n = sum(shape)
        entries = [e for r in rows for e in r]
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n, each once")

    @property
    def n(self) -> int:
        return sum(self.shape)

    def columns(self) -> list[tuple[int, ...]]:
        width = self.shape[0] if self.shape else 0
        return [
            tuple(row[j] for row in self.rows if len(row) > j)
            for j in range(width)
        ]


def specht_polynomial(t: Tableau) -> MultiPoly:
    """The Specht polynomial: the product over columns of the Vandermonde
    determinant prod_{j<l} (x_{C(j)} - x_{C(l)}) of the column entries."""
    n = t.n
    out = MultiPoly.const(1, n)
    for col in t.columns():
        for i in range(len(col)):
            for j in range(i + 1, len(col)):
                a, b = col[i] - 1, col[j] - 1
                out = out * (MultiPoly.var(a, n) - MultiPoly.var(b, n))
    return out


# ---------------------------------------------------------------------------
# Brute-force symmetrization
# ---------------------------------------------------------------------------


def brute_symmetrize(p: MultiPoly, n: int) -> SymFuncM:
    """Sym(p) over the symmetric group on n variables, in the m basis.

    Works per monomial: the orbit average of a monomial with positive
    exponent shape mu is exactly m_mu^{(n)}.  Cost is linear in the number
    of terms; n is capped at 8 as a safety bound.
    """
    if n > 8:
        raise ValueError("too large for brute force")
    if p.nvars > n:
        raise ValueError("polynomial uses more variables than n")
    terms: dict[Partition, RatFunc] = {}
    for expo, c in p.terms.items():
        shape = tuple(sorted((e for e in expo if e > 0), reverse=True))
        terms[shape] = terms.get(shape, RatFunc(0)) + RatFunc(c)
    return SymFuncM(terms)


# ---------------------------------------------------------------------------
# The degree-4 blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QBlocks:
    """The three symmetry-adapted degree-4 blocks.

    ``block_triv`` (1x1), ``block_hook`` (2x2, symmetric) and ``block_22``
    (1x1), each entry a symmetric function of degree <= 4 in the m basis
    with coefficients in Q(n) (constants when scope is LIMIT).
    """

    block_triv: SymFuncM
    block_hook: tuple[tuple[SymFuncM, SymFuncM], tuple[SymFuncM, SymFuncM]]
    block_22: SymFuncM
    scope: object


def _p_expr(coeffs: dict, degree: int) -> SymFuncM:
    """A p-basis combination (numeric coefficients) expanded in the m basis."""
    # build per-degree forms then add
    total = SymFuncM()
    by_degree: dict[int, dict] = {}
    for parts, c in coeffs.items():
        by_degree.setdefault(sum(parts), {})[tuple(parts)] = c
    for deg, cs in by_degree.items():
        total = total + p_to_m(form_from_dict(deg, cs, max(deg, 4)))
    return total


def _limit_syfm(f: SymFuncM) -> SymFuncM:
    """Entrywise n -> infinity limit, as a constant-coefficient SymFuncM."""
    return SymFuncM({p: RatFunc(v) for p, v in f.limit().items()})


def gamma_generator_p_coeffs(n_sym: RatFunc | None = None) -> dict:
    """The p-coefficients of the scalar-block generator
    (1/2) p_(1^4) - p_(2,1^2) + ((n^2-3n+3)/(2n^2)) p_(2^2)
    + ((2n-2)/n^2) p_(3,1) + ((1-n)/(2n^2)) p_(4)
    as RatFunc values in the symbol n."""
    n = RatFunc.t()
    return {
        (4,): (1 - n) / (2 * n * n),
        (3, 1): (2 * n - 2) / (n * n),
        (2, 2): (n * n - 3 * n + 3) / (2 * n * n),
        (2, 1, 1): RatFunc(-1),
        (1, 1, 1, 1): RatFunc(Fraction(1, 2)),
    }


def _p_expr_ratfunc(coeffs: dict) -> SymFuncM:
    """A p-basis combination with RatFunc coefficients, in the m basis."""
    from .symfunc import _p_lambda_in_m

    total = SymFuncM()
    for parts, c in coeffs.items():
        total = total + _p_lambda_in_m(tuple(parts)).scale(c)
    return total


def q_blocks(scope) -> QBlocks:
    """The closed-form blocks Q_n^{(n)}, Q_n^{(n-1,1)}, Q_n^{(n-2,2)}.

    For numeric n >= 4:
      * trivial block: 1
      * hook block: (2n/(n-1)) [[p2 - p_(1,1), p3 - p_(2,1)],
                                [p3 - p_(2,1), p4 - p_(2,2)]]
      * (n-2,2) block: (8 n^3 / ((n-1)(n-2)(n-3))) times the scalar-block
        generator combination.

    For LIMIT, the entrywise coefficient limits.  Raises for numeric n < 4
    (the (n-2,2) prefactor has poles at n = 1, 2, 3).
    """
    if scope is not LIMIT:
        if not isinstance(scope, int) or scope < 4:
            raise ValueError("q_blocks requires n >= 4 or LIMIT")
    n = RatFunc.t()
    hook_scale = (2 * n) / (n - 1)
    e11 = _p_expr({(2,): 1, (1, 1): -1}, 2).scale(hook_scale)
    e12 = _p_expr({(3,): 1, (2, 1): -1}, 3).scale(hook_scale)
    e22 = _p_expr({(4,): 1, (2, 2): -1}, 4).scale(hook_scale)
    scale22 = (8 * n * n * n) / ((n - 1) * (n - 2) * (n - 3))
    b22 = _p_expr_ratfunc(gamma_generator_p_coeffs()).scale(scale22)
    triv = SymFuncM({(): RatFunc(1)})
    if scope is LIMIT:
        return QBlocks(
            _limit_syfm(triv),
            (
                (_limit_syfm(e11), _limit_syfm(e12)),
                (_limit_syfm(e12), _limit_syfm(e22)),
            ),
            _limit_syfm(b22),
            LIMIT,
        )
    return QBlocks(triv, ((e11, e12), (e12, e22)), b22, scope)


# ---------------------------------------------------------------------------
# Sigma'-subcone generators
# ---------------------------------------------------------------------------


def sigma_prime_generators(n: int) -> list[SymFormP]:
    """Degree-4 generators of the symmetric-square subcone, as p-vectors.

    The list contains p_{mu1} p_{mu2} for mu1, mu2 |- 2 and
    (p_{a+b} - p_a p_b) p_{mu1} p_{mu2} for a, b in {1, 2} with
    mu_i |- 2 - a resp. 2 - b.  Their span has full rank 5.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    gens = [
        # p_{mu1} p_{mu2}, mu1, mu2 |- 2
        form_from_dict(4, {(2, 2): 1}, n),              # p2 * p2
        form_from_dict(4, {(2, 1, 1): 1}, n),           # p2 * p1^2
        form_from_dict(4, {(1, 1, 1, 1): 1}, n),        # p1^2 * p1^2
        # (p_{a+b} - p_a p_b) p_{mu1} p_{mu2}
        form_from_dict(4, {(2, 1, 1): 1, (1, 1, 1, 1): -1}, n),  # a=b=1
        form_from_dict(4, {(3, 1): 1, (2, 1, 1): -1}, n),        # a=1, b=2
        form_from_dict(4, {(4,): 1, (2, 2): -1}, n),             # a=b=2
    ]
    return gens


def sigma_prime_rank(n: int = 4) -> int:
    """Exact rank (Gaussian elimination over Q) of the generator vectors."""
    rows = [list(g.coeffs) for g in sigma_prime_generators(n)]
    rank = 0
    ncols = 5
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
