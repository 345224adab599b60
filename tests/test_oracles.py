"""One oracle per public decision, written from the definitions.

Each oracle below computes what a decision means with ``Fraction`` and
sympy, and this module imports from ``symquartic`` only names in
``symquartic.__all__`` (``test_oracles_use_only_public_names``).  So a
refactor of ``src/`` is checked against the definitions, with no copy of
the code it replaces.  Each public decision has one check against its
oracle here (``check_*``), run by one seeded Hypothesis test and by two
tables of named forms, one test per decision and form: the degenerate
families (``DEGENERATE``) and forms that ``sos_membership`` decides inside
its gamma-range (``OPEN_GAMMA``), which random forms rarely reach.

- Phi and binary quartics.  Phi_f^alpha(x, y) is f at the measure with
  weight alpha at x and 1 - alpha at y: the power sums are
  p_i = alpha x^i + (1 - alpha) y^i (``phi``).  A binary quartic h is
  nonnegative iff h(1, 0) >= 0 and h(x, 1) is zero or has a positive
  leading coefficient and no real root of odd multiplicity, and positive
  iff h(1, 0) > 0 and h(x, 1) has no real root (sympy's ``sqf_list`` and
  ``count_roots``).
- Nonnegativity at n, by the half-degree principle (Timofte 2003;
  Blekherman & Riener, arXiv:1205.3102): f >= 0 iff Phi^(k/n) >= 0 for
  every k = 0..n, and f > 0 iff its coefficient sum is > 0 and
  Phi^(k/n) > 0 for k = 1..n-1.  For n <= 16 every weight is tested.  For
  larger n the alpha-cells decide (``alpha_cells``): both properties of
  Phi^alpha are constant between the roots in (0, 1) of the leading
  coefficient in x of Phi^alpha(x, 1) and of the discriminant in x of its
  squarefree part, so one rational sample decides each open cell, and a
  grid weight at a cut is a rational cut, tested directly.
- The limit cone: Phi^alpha >= 0 at alpha = 0, 1 and at every open-cell
  sample.  The set where Phi^alpha >= 0 is closed, so a cut between two
  passing cells passes too.
- The SOS cones, from the block map of the ``sos`` module docstring,
  written here with sympy (``block_map``): f is in Sigma_n iff some
  gamma >= 0 and u = b11 make both 2x2 blocks PSD (gamma = 0 at LIMIT).
  Solved for the other entries, the PSD conditions are polynomials in
  (gamma, u) of degree <= 1 in u, but for the one concave quadratic
  det A; so at a fixed gamma some u passes iff a root of a linear
  condition or the vertex of det A passes (``_u_candidates``).  Along
  gamma the answer then changes only at the roots of the conditions
  evaluated at those candidates (``_gamma_cuts``), so gamma = 0, one
  sample per open gamma-cell and every cut decide it; a cut is a sympy
  root, and conditions are signed there exactly.
- Boundary status: BOUNDARY needs a functional y != 0 with y(f) = 0 in
  the dual cone, by the Fraction blocks of the ``dualcone`` docstring;
  INTERIOR needs f - 2^-j q in the cone for some j, where
  q = p_(4) + p_(2,1^2) is the image of identity blocks, an interior
  point.
- Separators: the pairing sum_lambda c_lambda y_lambda is < 0, the dual
  blocks are >= 0, and there is none exactly when the SOS oracle says IN.
"""

import ast
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, lcm, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import symquartic
from symquartic import (
    LIMIT,
    PARTITIONS_4,
    SymFormP,
    boundary_status_limit,
    find_separating_functional,
    is_nonneg,
    is_nonneg_limit,
    is_strictly_positive,
    phi_alpha_coeffs,
    restrict_alpha,
    second_case_form,
    sos_boundary,
    sos_membership,
    sos_membership_limit,
)

_X, _ALPHA, _GAMMA, _N = sympy.symbols("x alpha gamma n")


def _rational(c):
    return sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)


def _fraction(r) -> Fraction:
    return Fraction(int(sympy.Rational(r).p), int(sympy.Rational(r).q))


# ---------------------------------------------------------------------------
# Phi and binary quartics
# ---------------------------------------------------------------------------


def phi(f: SymFormP, alpha) -> tuple[Fraction, ...]:
    """Phi_f(alpha, 1 - alpha, x, y) from the power sums
    p_i = alpha x^i + (1 - alpha) y^i, p_lambda the product over the parts
    of lambda: five coefficients, entry i that of x^(4-i) y^i.  With
    alpha = a/N and f = nums/den, it sums in integers
    N^4 den Phi = sum_lambda num_lambda N^(4 - len(lambda)) prod (a x^i + (N - a) y^i)."""
    alpha = Fraction(alpha)
    a, N = alpha.numerator, alpha.denominator
    den = lcm(*(c.denominator for c in f.coeffs))
    total = [0] * 5  # ascending x-degree
    for parts, c in zip(PARTITIONS_4, f.coeffs):
        product = [c.numerator * (den // c.denominator) * N ** (4 - len(parts))]
        for part in parts:
            new = [0] * (len(product) + part)
            for i, v in enumerate(product):
                new[i] += v * (N - a)
                new[i + part] += v * a
            product = new
        total = [t + v for t, v in zip(total, product)]
    return tuple(Fraction(t, den * N**4) for t in reversed(total))


def value(h, x, y) -> Fraction:
    """The binary quartic h at (x, y)."""
    return sum((c * x ** (4 - i) * y**i for i, c in enumerate(h)), Fraction(0))


def _canonical(h) -> tuple[int, ...]:
    """h as a primitive integer vector, the least of its four images under
    (x, y) -> (y, x) and (x, y) -> (-x, y): a positive multiple of h up to
    those symmetries of R^2, so it has the same two properties."""
    h = [Fraction(c) for c in h]
    den = lcm(*(c.denominator for c in h))
    z = [c.numerator * (den // c.denominator) for c in h]
    g = gcd(*z) or 1
    z = tuple(c // g for c in z)
    mirrored = tuple(-c if i % 2 else c for i, c in enumerate(z))
    return min(z, z[::-1], mirrored, mirrored[::-1])


#: points (x, 2) read first: a negative value there settles h >= 0, and a
#: value <= 0 settles h > 0, with no root counted
_PROBES = tuple(range(-4, 5))


@lru_cache(maxsize=None)
def _quartic_properties(z) -> tuple[bool, bool]:
    """(h >= 0, h > 0) for a primitive integer quartic z (``_canonical``)."""
    values = [value(z, x, 2) for x in _PROBES]
    if z[0] < 0 or min(values) < 0:
        return False, False
    p = sympy.Poly(z, _X, domain="ZZ")  # h(x, 1)
    if p.is_zero:
        return True, False
    odd_real = any(m % 2 and q.count_roots() for q, m in p.sqf_list()[1])
    nonneg = p.LC() > 0 and not odd_real
    positive = nonneg and z[0] > 0 and min(values) > 0 and p.count_roots() == 0
    return nonneg, positive


def quartic_nonneg(h) -> bool:
    """h >= 0 on R^2: h(1, 0) >= 0, and h(x, 1) is zero or has a positive
    leading coefficient and no real root of odd multiplicity."""
    return _quartic_properties(_canonical(h))[0]


def quartic_positive(h) -> bool:
    """h > 0 on R^2 minus the origin: h(1, 0) > 0 and no real root of
    h(x, 1)."""
    return _quartic_properties(_canonical(h))[1]


# ---------------------------------------------------------------------------
# exact real roots: points when rational, else isolating intervals
# ---------------------------------------------------------------------------


def _eval(p, x):
    """The polynomial of ascending coefficients p at x."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Root:
    """A real root of the irreducible rational polynomial ``poly``
    (ascending coefficients): the point lo = hi when rational, else inside
    the open interval (lo, hi) with rational ends, refined by bisection."""

    def __init__(self, poly, lo, hi):
        self.poly, self.lo, self.hi = poly, Fraction(lo), Fraction(hi)

    def refine(self):
        if self.lo != self.hi:
            mid = (self.lo + self.hi) / 2
            if _sign(_eval(self.poly, mid)) == _sign(_eval(self.poly, self.lo)):
                self.lo = mid
            else:
                self.hi = mid

    def cmp(self, x) -> int:
        """The sign of root - x, for a rational x."""
        while self.lo < x < self.hi:
            self.refine()
        if self.lo == self.hi:
            return _sign(self.lo - x)
        return -1 if self.hi <= x else 1

    def floor_times(self, n: int) -> int:
        """floor(root * n); for an irrational root the interval is refined
        until floor(lo n) = floor(hi n), which then is that floor."""
        while floor(self.lo * n) != floor(self.hi * n):
            self.refine()
        return floor(self.lo * n)

    def sign_of(self, p) -> int:
        """The sign of the rational polynomial p (ascending) at the root:
        0 iff the irreducible ``poly`` divides p, else read off an interval
        evaluation of p on (lo, hi), refined until it excludes 0."""
        if self.lo == self.hi:
            return _sign(_eval(p, self.lo))
        if not any(_remainder(p, self.poly)):
            return 0
        while True:
            lo, hi = _interval_eval(p, self.lo, self.hi)
            if lo > 0 or hi < 0:
                return _sign(lo)
            self.refine()


def _remainder(p, m):
    """The remainder of p by m, ascending coefficients, m of degree >= 1."""
    r = list(p)
    while len(r) >= len(m):
        q = r[-1] / m[-1]
        shift = len(r) - len(m)
        for i, c in enumerate(m):
            r[shift + i] -= q * c
        r.pop()
    return r


def _interval_eval(p, lo, hi):
    """Bounds on the polynomial p (ascending) over [lo, hi], by Horner in
    interval arithmetic."""
    a = b = Fraction(0)
    for c in reversed(p):
        ends = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(ends) + c, max(ends) + c
    return a, b


def _coefficients(poly) -> list[Fraction]:
    """The ascending Fraction coefficients of a univariate sympy Poly."""
    return [_fraction(c) for c in reversed(poly.all_coeffs())]


@lru_cache(maxsize=None)
def _irreducible_factors(poly: tuple) -> tuple:
    """The irreducible factors of positive degree, over Q, of the nonzero
    polynomial with these ascending coefficients, each as a primitive
    ascending tuple (sympy's ``factor_list``)."""
    p = sympy.Poly([_rational(c) for c in reversed(poly)], _X, domain="QQ")
    out = []
    for q, _ in p.factor_list()[1]:
        if q.degree() > 0:
            cs = _coefficients(q)
            out.append(tuple(c / cs[-1] for c in cs))
    return tuple(out)


def roots_in(polys, lo, hi=None) -> list[Root]:
    """The distinct real roots in the open interval (lo, hi) (hi None: no
    upper end) of the nonzero rational polynomials ``polys`` (ascending),
    ascending, with isolating intervals strictly apart and strictly inside
    (lo, hi).  A rational root is a point; the roots of an irreducible
    factor of degree >= 2 are irrational, isolated by sympy's
    ``intervals``."""
    factors = {q for p in polys for q in _irreducible_factors(tuple(p))}
    roots = []
    for q in factors:
        if len(q) == 2:
            r = -q[0] / q[1]
            if lo < r and (hi is None or r < hi):
                roots.append(Root(q, r, r))
            continue
        poly = sympy.Poly([_rational(c) for c in reversed(q)], _X, domain="QQ")
        sup = None if hi is None else _rational(hi)
        for (a, b), _ in poly.intervals(inf=_rational(lo), sup=sup):
            roots.append(Root(q, _fraction(a), _fraction(b)))
    while True:
        roots.sort(key=lambda r: r.lo)
        loose = {r for r in roots if r.lo != r.hi and (r.lo <= lo or (hi is not None and r.hi >= hi))}
        loose.update(r for pair in zip(roots, roots[1:]) if pair[0].hi >= pair[1].lo for r in pair)
        if not loose:
            return roots
        for r in loose:
            r.refine()


def cell_samples(roots, lo, hi=None) -> list[Fraction]:
    """One rational in each open cell that the roots cut (lo, hi) into,
    left to right; the last cell of an unbounded interval gets 1 past the
    last root."""
    ends = [Fraction(lo)] + [x for r in roots for x in (r.lo, r.hi)]
    ends.append(Fraction(hi) if hi is not None else ends[-1] + 2)
    return [(a + b) / 2 for a, b in zip(ends[::2], ends[1::2])]


# ---------------------------------------------------------------------------
# nonnegativity at n and in the limit
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def alpha_cells(coeffs) -> tuple[list[Root], list[Fraction]]:
    """The cuts of (0, 1) for the alpha-cells of the quartic with these
    coefficients, and one sample per open cell.

    The cuts are the roots of the leading coefficient in x of
    P = Phi^alpha(x, 1), a polynomial in (x, alpha), and of the
    discriminant in x of its squarefree part S.  Between them S has a fixed
    degree in x and simple roots, no two of its factors share a root, and
    the leading coefficient keeps its sign, so the real roots of each
    factor of P, their multiplicities and the sign of P at infinity are
    constant: so are both binary-quartic properties of Phi^alpha."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    power_sum = [sympy.Poly(_ALPHA * _X**i + 1 - _ALPHA, _X, _ALPHA, domain="ZZ") for i in range(5)]
    P = sympy.Poly(0, _X, _ALPHA, domain="ZZ")  # den Phi^alpha(x, 1)
    for c, parts in zip(coeffs, PARTITIONS_4):
        P += prod((power_sum[i] for i in parts), start=power_sum[0] * int(Fraction(c) * den))
    if P.is_zero:
        return [], [Fraction(1, 2)]
    top = P.degree(_X)
    cut = sympy.Poly(sum(c * _ALPHA**j for (i, j), c in P.terms() if i == top), _ALPHA, domain="ZZ")
    S = P.sqf_part()
    if S.degree(_X) > 0:
        cut *= S.discriminant()
    assert not cut.is_zero
    roots = roots_in([_coefficients(cut)] if cut.degree() > 0 else [], 0, 1)
    return roots, cell_samples(roots, 0, 1)


def _grid_regions(f: SymFormP):
    """(k, h) for the first grid weight k/n of each open alpha-cell that
    holds one, with Phi at that cell's sample, and for each rational cut
    at a grid weight k/n, with Phi there; in increasing order of k."""
    n = f.scope
    roots, samples = alpha_cells(f.coeffs)
    zero, one = Root((0, 1), 0, 0), Root((-1, 1), 1, 1)
    for left, right, sample in zip([zero, *roots], [*roots, one], samples):
        k = left.floor_times(n) + 1
        if right.cmp(Fraction(k, n)) > 0:
            yield k, phi(f, sample)
        if right.lo == right.hi and right is not one and (right.lo * n).denominator == 1:
            yield int(right.lo * n), phi(f, right.lo)


def first_failing_weight(f: SymFormP):
    """The least k in 0..n with Phi^(k/n) not nonnegative, or None."""
    n = f.scope
    if n <= 16:
        return next((k for k in range(n + 1) if not quartic_nonneg(phi(f, Fraction(k, n)))), None)
    if sum(f.coeffs) < 0:  # Phi^0 is the coefficient sum times y^4
        return 0
    return next((k for k, h in _grid_regions(f) if not quartic_nonneg(h)), None)


def strictly_positive(f: SymFormP) -> bool:
    """f > 0 away from the origin: a positive coefficient sum (the weights
    0 and 1) and Phi^(k/n) > 0 at every interior grid weight."""
    n = f.scope
    if sum(f.coeffs) <= 0:
        return False
    if n <= 16:
        return all(quartic_positive(phi(f, Fraction(k, n))) for k in range(1, n))
    return all(quartic_positive(h) for _, h in _grid_regions(f))


def limit_nonneg(f: SymFormP) -> bool:
    """Phi^alpha >= 0 for every alpha in [0, 1]."""
    return sum(f.coeffs) >= 0 and all(quartic_nonneg(phi(f, s)) for s in alpha_cells(f.coeffs)[1])


# ---------------------------------------------------------------------------
# the SOS cones
# ---------------------------------------------------------------------------

#: the block entries a11, a12, a22, b11, b12, b22, then gamma
_ENTRIES = sympy.symbols("a11 a12 a22 b11 b12 b22")
_P = sympy.symbols("p4 p31 p22 p211 p1111")  # canonical order


def _block_map_expr(numeric: bool):
    """The five coefficients of the block map of the ``sos`` module
    docstring, as sympy expressions in the entries, gamma and n (at a
    numeric scope) or with the limit generator."""
    a11, a12, a22, b11, b12, b22 = _ENTRIES
    p4, p31, p22, p211, p1111 = _P
    f = (
        a11 * p1111 + 2 * a12 * p211 + a22 * p22
        + b11 * (p211 - p1111) + 2 * b12 * (p31 - p211) + b22 * (p4 - p22)
    )
    if numeric:
        n = _N
        f += _GAMMA * (
            p1111 / 2 - p211 + (n**2 - 3 * n + 3) / (2 * n**2) * p22
            + (2 * n - 2) / n**2 * p31 + (1 - n) / (2 * n**2) * p4
        )
    else:  # the generator degenerates to (1/2) (p_2 - p_1^2)^2
        f += _GAMMA * (p22 / 2 - p211 + p1111 / 2)
    return [sympy.expand(f).coeff(p) for p in _P]


@lru_cache(maxsize=None)
def _solved_entries(numeric: bool):
    """Every block entry as an affine expression in the coefficients c,
    gamma and u = b11, from the block map solved for a11, a12, a22, b12
    and b22."""
    cs = sympy.symbols("c0:5")
    a11, a12, a22, b11, b12, b22 = _ENTRIES
    exprs = _block_map_expr(numeric)
    solved = sympy.solve([e - c for e, c in zip(exprs, cs)], [a11, a12, a22, b12, b22], dict=True)[0]
    return cs, [solved.get(e, e) for e in _ENTRIES]


def _at_scope(expr, scope) -> Fraction:
    """A rational function of n (a constant at LIMIT) at the scope, from
    its integer numerator and denominator polynomials in n, so that a huge
    n costs Python integers only."""
    num, den = (sympy.Poly(p, _N).all_coeffs() for p in sympy.fraction(sympy.cancel(sympy.together(expr))))
    if scope is LIMIT:
        assert len(num) == len(den) == 1
        return Fraction(int(num[0]), int(den[0]))
    return Fraction(_eval([int(c) for c in reversed(num)], scope)) / _eval([int(c) for c in reversed(den)], scope)


@lru_cache(maxsize=None)
def block_map(scope) -> tuple:
    """The block map at a scope as Fraction rows: coefficient i of the form
    is row i dotted with (a11, a12, a22, b11, b12, b22, gamma)."""
    exprs = _block_map_expr(scope is not LIMIT)
    return tuple(tuple(_at_scope(e.coeff(v), scope) for v in (*_ENTRIES, _GAMMA)) for e in exprs)


def expand(entries, gamma, scope) -> tuple[Fraction, ...]:
    """The coefficients that the block map sends the six entries and gamma
    to, in Fractions."""
    vector = [Fraction(x) for x in (*entries, gamma)]
    return tuple(sum((m * x for m, x in zip(row, vector)), Fraction(0)) for row in block_map(scope))


@lru_cache(maxsize=None)
def _entry_rows(scope) -> tuple:
    """For each entry, its Fraction coefficients on (c0, ..., c4, gamma, u)
    at a scope."""
    cs, entries = _solved_entries(scope is not LIMIT)
    variables = (*cs, _GAMMA, _ENTRIES[3])
    return tuple(tuple(_at_scope(sympy.expand(e).coeff(v), scope) for v in variables) for e in entries)


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _add(p, q, s=1):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += s * b
    return out


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


@lru_cache(maxsize=None)
def psd_conditions(coeffs, scope) -> tuple:
    """The PSD conditions of both blocks, a11, a22, det A, b11, b22 and
    det B, for the form with these coefficients: each a tuple over the
    powers of u = b11 of its coefficients, polynomials in gamma as
    ascending Fraction tuples.  Entries are affine in (gamma, u), kept as
    {(u-power, gamma-power): coefficient}."""

    def times(p, q):
        out = {}
        for (i, j), x in p.items():
            for (k, l), y in q.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + x * y
        return out

    def minus(p, q):
        return {key: p.get(key, 0) - q.get(key, 0) for key in p.keys() | q.keys()}

    def nested(p):
        rows = [_trim([p.get((i, j), Fraction(0)) for j in range(3)]) for i in range(3)]
        return tuple(tuple(row) for row in _trim(rows))

    entries = [
        {(0, 0): sum((k * c for k, c in zip(row, coeffs)), Fraction(0)), (0, 1): row[5], (1, 0): row[6]}
        for row in _entry_rows(scope)
    ]
    a11, a12, a22, b11, b12, b22 = entries
    determinants = (minus(times(a11, a22), times(a12, a12)), minus(times(b11, b22), times(b12, b12)))
    return tuple(nested(c) for c in (a11, a22, determinants[0], b11, b22, determinants[1]))


def _u_candidates(conditions):
    """The candidate u of each gamma, as (N, D) polynomials in gamma with
    u = N / D: the root of every condition of degree 1 in u, and the
    vertex of the one condition of degree 2, det A, which is concave in u
    with a constant leading coefficient.  The u that pass every condition
    at a gamma form an interval; if it is not empty, its left end is a
    root of a linear condition, or else the left root of det A, and then
    its right end is a linear root or the right root of det A, with the
    vertex between them: so some candidate passes."""
    quadratic = [c for c in conditions if len(c) == 3]
    assert len(quadratic) == 1 and len(quadratic[0][2]) == 1 and quadratic[0][2][0] < 0
    (q0, q1, q2), = quadratic
    linear = [(_add([], c[0], -1), list(c[1])) for c in conditions if len(c) == 2]
    return linear + [(_add([], q1, -1), [2 * q2[0]])]


def _at_candidate(condition, candidate):
    """(R, d): the condition at u = N / D is R / D^d, R a polynomial in
    gamma."""
    N, D = candidate
    d = len(condition) - 1
    R = []
    for j, g in enumerate(condition):
        term = list(g)
        for _ in range(j):
            term = _mul(term, N)
        for _ in range(d - j):
            term = _mul(term, D)
        R = _add(R, term)
    return _trim(R), d


def _passing_us(conditions, gamma) -> list[Fraction]:
    """The candidates u at the rational gamma that pass every condition
    there."""
    at = [[_eval(g, gamma) for g in c] for c in conditions]
    us = [_eval(N, gamma) / _eval(D, gamma) for N, D in _u_candidates(conditions) if _eval(D, gamma)]
    return [u for u in us if all(_eval(c, u) >= 0 for c in at)]


def _feasible_at_root(conditions, root) -> bool:
    """Some candidate u passes every condition at an irrational gamma,
    each condition at u = N / D signed exactly as R / D^d."""
    for candidate in _u_candidates(conditions):
        d_sign = root.sign_of(candidate[1])
        if d_sign == 0:
            continue  # the linear condition is constant in u at this gamma
        if all(root.sign_of(R) * d_sign**d >= 0 for R, d in (_at_candidate(c, candidate) for c in conditions)):
            return True
    return False


def _gamma_cuts(conditions) -> list:
    """The polynomials in gamma at whose roots the answer of
    ``_passing_us`` can change: every condition at every candidate, and
    every candidate's denominator."""
    polys = [_at_candidate(c, k)[0] for c in conditions for k in _u_candidates(conditions)]
    polys += [k[1] for k in _u_candidates(conditions)]
    return [p for p in polys if len(p) > 1]


@lru_cache(maxsize=None)
def sos_member(coeffs, scope) -> bool:
    """The form is in the SOS cone at its scope: gamma = 0, then one sample
    per open gamma-cell of (0, oo), then every cut, the irrational ones
    signed exactly (``Root.sign_of``)."""
    conditions = psd_conditions(coeffs, scope)
    if _passing_us(conditions, Fraction(0)):
        return True
    if scope is LIMIT:
        return False
    roots = roots_in(_gamma_cuts(conditions), 0)
    rational = [r.lo for r in roots if r.lo == r.hi]
    if any(_passing_us(conditions, g) for g in cell_samples(roots, 0) + rational):
        return True
    return any(_feasible_at_root(conditions, r) for r in roots if r.lo != r.hi)


def in_cone(f: SymFormP) -> bool:
    return sos_member(f.coeffs, f.scope)


def feasible_at_gamma(f: SymFormP, gamma) -> bool:
    """Some u makes both blocks PSD at this rational gamma."""
    return bool(_passing_us(psd_conditions(f.coeffs, f.scope), Fraction(gamma)))


def least_passing_u(f: SymFormP, gamma):
    """The least candidate u (``_u_candidates``) that makes both blocks
    PSD at this rational gamma, None when none does."""
    return min(_passing_us(psd_conditions(f.coeffs, f.scope), Fraction(gamma)), default=None)


def gamma_range(f: SymFormP):
    """(lo, hi): the gamma >= 0 where b22 >= 0 and a22 >= 0, the two
    conditions free of u, both affine in gamma; None when empty."""
    lo, hi = Fraction(0), None
    for c in psd_conditions(f.coeffs, f.scope):
        if len(c) == 1:
            g0, g1 = (list(c[0]) + [Fraction(0)] * 2)[:2]
            if g1 > 0:
                lo = max(lo, -g0 / g1)
            elif g1 < 0:
                hi = -g0 / g1 if hi is None else min(hi, -g0 / g1)
            elif g0 < 0:
                return None
    return None if hi is not None and lo > hi else (lo, hi)


def psd(m11, m12, m22) -> bool:
    return m11 >= 0 and m22 >= 0 and m11 * m22 >= m12 * m12


def check_certificate(cert, f: SymFormP) -> None:
    """Both blocks PSD, gamma >= 0 (0 at LIMIT), and the block map sends
    the certificate to f."""
    A, B = cert.A, cert.B
    assert psd(A.m11, A.m12, A.m22) and psd(B.m11, B.m12, B.m22)
    assert cert.gamma >= 0 and (f.scope is not LIMIT or cert.gamma == 0) and cert.scope == f.scope
    entries = (A.m11, A.m12, A.m22, B.m11, B.m12, B.m22)
    assert expand(entries, cert.gamma, f.scope) == f.coeffs


# ---------------------------------------------------------------------------
# dual cone, boundary, separators
# ---------------------------------------------------------------------------


def pairing(y, f: SymFormP) -> Fraction:
    return sum((c * v for c, v in zip(f.coeffs, y.as_tuple())), Fraction(0))


def dual_blocks_of(y, scope):
    """The trivial and hook blocks (m11, m12, m22) and, at a numeric n, the
    two-row scalar of the functional y (the ``dualcone`` docstring)."""
    y4, y31, y22, y211, y1111 = y.as_tuple()
    triv, hook = (y22, y211, y1111), (y4 - y22, y31 - y211, y211 - y1111)
    if scope is LIMIT:
        return triv, hook, None
    n = scope
    tworow = (
        Fraction(n * n, 2) * y1111 - n * n * y211 + (2 * n - 2) * y31
        + Fraction(n * n - 3 * n + 3, 2) * y22 + Fraction(1 - n, 2) * y4
    )
    return triv, hook, tworow


def in_dual_cone(y, scope) -> bool:
    """Both 2x2 blocks PSD and the two-row block >= 0 (none at LIMIT)."""
    triv, hook, tworow = dual_blocks_of(y, scope)
    return psd(*triv) and psd(*hook) and (tworow is None or tworow >= 0)


def supports(y, f: SymFormP) -> bool:
    """y != 0, y(f) = 0 and y in the dual cone: y supports the cone at f."""
    return any(y.as_tuple()) and pairing(y, f) == 0 and in_dual_cone(y, f.scope)


#: identity blocks at gamma = 0: p_(4) + p_(2,1^2), an interior point
_IDENTITY_IMAGE = expand((1, 0, 1, 1, 0, 1), 0, LIMIT)


def interior(f: SymFormP) -> bool:
    """f - 2^-j q is in the cone for some j = 1, 2, 4, ..., 256: the
    delta >= 0 with f - delta q in the cone form an interval [0, delta_max],
    so this finds one whenever delta_max >= 2^-256."""
    for j in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        lowered = tuple(c - q / 2**j for c, q in zip(f.coeffs, _IDENTITY_IMAGE))
        if sos_member(lowered, f.scope):
            return True
    return False


def check_boundary(status, y, f: SymFormP) -> None:
    if not in_cone(f):
        assert (status, y) == ("OUTSIDE", None)
    elif status == "BOUNDARY":
        assert supports(y, f)
    else:
        assert (status, y) == ("INTERIOR", None) and interior(f)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_FINITE = st.sampled_from((*range(4, 17), 10**6, 10**40))

#: forms whose Phi^alpha degenerates: an identically zero
#: alpha-discriminant, an identically zero leading coefficient, a double
#: zero of Phi^(1/2) at (1, -1) (the second case), example 6.10 and
#: Choi-Lam, whose gamma-range is one point
DEGENERATE = {
    "window_1": (2, 0, 9, -23, 12),
    "lc_zero_1": (0, 1, -1, 0, 0),
    "second_case_1": second_case_form(1, (1, 0, 1)).coeffs,
    "second_case_2": second_case_form(2, (2, 1, 2)).coeffs,
    "example_6_10": (1, Fraction(-13, 5), 0, Fraction(179, 100), Fraction(-51, 400)),
    "choi_lam": (8, Fraction(-160, 3), -8, 128, Fraction(-128, 3)),
}


def _lowered(coeffs, j):
    return tuple(Fraction(c) - q / 2**j for c, q in zip(coeffs, _IDENTITY_IMAGE))


#: (n, coeffs) of forms that sos_membership decides inside its gamma-range,
#: both ends infeasible: block-map images of rank-one blocks whose feasible
#: gammas lie inside the range (rank_one_*), two feasible at gamma = 1/3
#: alone (single_gamma_*), each lowered by 2^-j q, which keeps it in the
#: cone at another gamma or moves it out, and a boundary form lowered by
#: 2^-4 p_(1^4), outside the cone, whose D is a negative constant in gamma
#: (zero_slope_n8)
_OPEN_GAMMA_PINS = {
    name: (n, tuple(map(Fraction, coeffs)))
    for name, (n, coeffs) in {
        "rank_one_n5": (5, ("127/60", "98/15", "-421/240", "-109/24", "-5/48")),
        "rank_one_n6": (6, ("7/144", "13/72", "59/240", "-181/80", "323/80")),
        "rank_one_n7": (7, ("44/49", "167/49", "-965/2352", "-73/24", "7/48")),
        "single_gamma_n5a": (5, ("73/75", "158/75", "-131/150", "-26/15", "1/6")),
        "single_gamma_n5b": (5, ("94/225", "-92/75", "407/900", "1/5", "1/6")),
    }.items()
}
OPEN_GAMMA = {
    **_OPEN_GAMMA_PINS,
    **{f"{name}_lowered_{j}": (n, _lowered(coeffs, j))
       for name, (n, coeffs) in _OPEN_GAMMA_PINS.items() for j in (10, 30)},
    "zero_slope_n8": (8, (1, -2, Fraction(-3, 4), Fraction(3, 2), Fraction(19, 16))),
}


@st.composite
def forms(draw, scopes):
    """Box forms, near-boundary forms (the block map of rank-one blocks,
    one coefficient lowered by 0 or 1/1024), segment forms (the image of
    rank-one or definite blocks moved by +-2^-k towards a box form) and
    the degenerate forms, at a scope drawn from ``scopes``."""
    scope = draw(scopes)
    kind = draw(st.sampled_from(("box", "near", "segment", "degenerate")))
    if kind == "box":
        return SymFormP(4, draw(st.tuples(*[_small] * 5)), scope)
    if kind == "degenerate":
        return SymFormP(4, draw(st.sampled_from(tuple(DEGENERATE.values()))), scope)
    gamma = 0 if scope is LIMIT else draw(st.fractions(min_value=0, max_value=4, max_denominator=6))
    a, b, c, d, t = (draw(_small) for _ in range(5))
    if kind == "near":
        coeffs = list(expand((a * a, a * b, b * b, c * c, c * d, d * d), gamma, scope))
        coeffs[draw(st.integers(0, 4))] -= draw(st.sampled_from((0, Fraction(1, 1024))))
        return SymFormP(4, tuple(coeffs), scope)
    r = draw(st.sampled_from((0, t * t)))
    g = expand((a * a + t * t, a * b, b * b + r, c * c + r, c * d, d * d), gamma, scope)
    h = draw(st.tuples(*[_small] * 5))
    step = draw(st.sampled_from((1, -1))) * Fraction(1, 2 ** draw(st.integers(1, 40)))
    return SymFormP(4, tuple(x + step * (y - x) for x, y in zip(g, h)), scope)


# ---------------------------------------------------------------------------
# the decisions against their oracles
# ---------------------------------------------------------------------------


def check_is_nonneg(f):
    """The first failing grid weight, and Phi < 0 at the witness."""
    k = first_failing_weight(f)
    verdict = is_nonneg(f)
    assert verdict.status == ("IN" if k is None else "OUT")
    if k is not None:
        n = f.scope
        weights, (x, y) = verdict.witness
        assert weights == (Fraction(k, n), Fraction(n - k, n))
        assert value(phi(f, weights[0]), x, y) < 0


def check_is_strictly_positive(f):
    assert is_strictly_positive(f) == strictly_positive(f)


def check_is_nonneg_limit(f):
    """The verdict, Phi < 0 at an OUT witness, and the limit cones agree
    (the degree-4 theorem)."""
    member = limit_nonneg(f)
    verdict = is_nonneg_limit(f)
    assert verdict.status == ("IN" if member else "OUT")
    if not member:
        (alpha, beta), (x, y) = verdict.witness
        assert 0 <= alpha <= 1 and alpha + beta == 1
        assert value(phi(f, alpha), x, y) < 0
    assert member == in_cone(f)


def check_boundary_status_limit(f):
    if not f.is_zero():
        verdict = boundary_status_limit(f)
        check_boundary(verdict.status, verdict.witness, f)


def check_sos_membership(f):
    verdict = sos_membership(f)
    assert verdict.status == ("IN" if in_cone(f) else "OUT")
    if verdict.status == "IN":
        check_certificate(verdict.certificate, f)


def check_sos_membership_limit(f):
    verdict = sos_membership_limit(f)
    assert verdict.status == ("IN" if in_cone(f) else "OUT")
    if verdict.status == "IN":
        check_certificate(verdict.certificate, f)


def check_sos_boundary(f):
    if not f.is_zero():
        check_boundary(*sos_boundary(f), f)


def check_find_separating_functional(f):
    y = find_separating_functional(f)
    if in_cone(f):
        assert y is None
    else:
        assert y is not None and pairing(y, f) < 0 and in_dual_cone(y, f.scope)


#: each decision's check, and the scopes at which the degenerate forms are
#: checked
DECISIONS = {
    "is_nonneg": (check_is_nonneg, (6, 16, 10**6, 10**6 + 1)),
    "is_strictly_positive": (check_is_strictly_positive, (9, 16, 10**6, 10**6 + 1)),
    "is_nonneg_limit": (check_is_nonneg_limit, (LIMIT,)),
    "boundary_status_limit": (check_boundary_status_limit, (LIMIT,)),
    "sos_membership": (check_sos_membership, (5, 16, 10**40)),
    "sos_membership_limit": (check_sos_membership_limit, (LIMIT,)),
    "sos_boundary": (check_sos_boundary, (5, 10**6)),
    "find_separating_functional": (check_find_separating_functional, (4, 16, 10**40)),
}
FINITE_DECISIONS = [name for name, (_, scopes) in DECISIONS.items() if LIMIT not in scopes]


@seed(4001)
@given(forms(_FINITE))
@settings(max_examples=60, deadline=None)
def test_is_nonneg(f):
    check_is_nonneg(f)


@seed(4002)
@given(forms(_FINITE))
@settings(max_examples=60, deadline=None)
def test_is_strictly_positive(f):
    check_is_strictly_positive(f)


@seed(4003)
@given(forms(st.just(LIMIT)))
@settings(max_examples=60, deadline=None)
def test_is_nonneg_limit(f):
    check_is_nonneg_limit(f)


@seed(4004)
@given(forms(st.just(LIMIT)))
@settings(max_examples=60, deadline=None)
def test_boundary_status_limit(f):
    check_boundary_status_limit(f)


@seed(4005)
@given(forms(_FINITE))
@settings(max_examples=60, deadline=None)
def test_sos_membership(f):
    check_sos_membership(f)


@seed(4006)
@given(forms(st.just(LIMIT)))
@settings(max_examples=60, deadline=None)
def test_sos_membership_limit(f):
    check_sos_membership_limit(f)


@seed(4007)
@given(forms(_FINITE))
@settings(max_examples=40, deadline=None)
def test_sos_boundary(f):
    check_sos_boundary(f)


@seed(4008)
@given(forms(_FINITE))
@settings(max_examples=60, deadline=None)
def test_find_separating_functional(f):
    check_find_separating_functional(f)


@pytest.mark.parametrize("name", list(DEGENERATE))
@pytest.mark.parametrize("decision", list(DECISIONS))
def test_degenerate_forms(decision, name):
    """Each degenerate form, at each of the decision's scopes."""
    check, scopes = DECISIONS[decision]
    for scope in scopes:
        check(SymFormP(4, DEGENERATE[name], scope))


@pytest.mark.parametrize("name", list(OPEN_GAMMA))
@pytest.mark.parametrize("decision", FINITE_DECISIONS)
def test_open_gamma_forms(decision, name):
    """Each form decided inside its gamma-range, at its own scope."""
    n, coeffs = OPEN_GAMMA[name]
    DECISIONS[decision][0](SymFormP(4, coeffs, n))


@seed(4009)
@given(st.tuples(*[_small] * 5), st.fractions(0, 1, max_denominator=50))
@settings(max_examples=40, deadline=None)
def test_phi_alpha_coeffs_and_restrict_alpha(coeffs, beta):
    """The alpha-coefficients have degree <= 4, so equal to Phi at the
    eight alpha = k/7 they are Phi; ``restrict_alpha`` is Phi there and at
    a drawn alpha."""
    f = SymFormP(4, coeffs, LIMIT)
    cs = phi_alpha_coeffs(f)
    assert all(c.degree <= 4 for c in cs)
    for alpha in (*(Fraction(k, 7) for k in range(8)), beta):
        assert tuple(c(alpha) for c in cs) == phi(f, alpha) == restrict_alpha(f, alpha)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

#: names that a later simplification of ``src/`` may delete (ROADMAP item 4)
DELETION_TARGETS = {
    "AlgebraicField",
    "count_real_roots",
    "count_roots_open",
    "yun_decomposition",
    "squarefree_part_field",
    "resultant",
    "irreducible_factors",
    "simplest_rational_between",
}


def symquartic_names(source: str) -> set[str]:
    """What a module takes from symquartic: "module:name" for each name
    imported from a symquartic module, each symquartic submodule imported,
    and each attribute read on the package."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "symquartic":
            names.update(f"{node.module}:{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(f"{a.name}:" for a in node.names if a.name.startswith("symquartic."))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "symquartic":
            names.add(f"symquartic:{node.attr}")
    return names


def test_oracles_use_only_public_names():
    """This module imports from symquartic only names in
    ``symquartic.__all__``: no underscore name, no submodule such as
    ``symquartic.algebra``, and none of the deletion targets."""
    names = symquartic_names(Path(__file__).read_text())
    allowed = {f"symquartic:{name}" for name in (*symquartic.__all__, "__all__")}
    assert names and names <= allowed, sorted(names - allowed)
    assert not {name.split(":")[1] for name in names} & DELETION_TARGETS
