"""Acceptance suite: one high-level criterion per test, each printing a
single PASS/FAIL line with its runtime (run pytest with -s to see them)."""

import random
import time
from fractions import Fraction

from symquartic.algebra import RatFunc
from symquartic.cli import (
    _repro_choi_lam,
    _repro_example_6_10,
    _repro_limit_equality,
    _repro_q_blocks,
)
from symquartic.dualcone import dual_membership, pair
from symquartic.identities import (
    BoundaryParams,
    boundary_family_form,
    verify_disc_factorization,
)
from symquartic.partitions import partitions_of
from symquartic.positivity import is_nonneg, is_strictly_positive
from symquartic.sos import find_separating_functional
from symquartic.specht import q_blocks, sigma_prime_rank
from symquartic.symfunc import (
    LIMIT,
    SymFormP,
    SymFuncM,
    evaluate,
    m_to_p,
    p_to_m,
    restrict_alpha,
)

from conftest import constant_value, random_form


def report(name, budget, started):
    elapsed = time.monotonic() - started
    print(f"{name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget


def test_a1_extremal_quartic_separation():
    t0 = time.monotonic()
    good, lines = _repro_choi_lam()
    assert good, "\n".join(lines)
    report("A1 separation of the extremal quartic", 5, t0)


def test_a2_boundary_family_golden_example():
    t0 = time.monotonic()
    good, lines = _repro_example_6_10()
    assert good, "\n".join(lines)
    f = boundary_family_form(BoundaryParams(1, Fraction(-13, 10), 1, Fraction(-5, 4)))

    # the zeros of the limit form sit at irrational weights, so every
    # finite restriction is strictly positive
    for n in range(4, 51):
        assert is_strictly_positive(f.with_scope(n))
        assert is_nonneg(f.with_scope(n)).status == "IN"
    report("A2 boundary-family golden example", 60, t0)


def test_a3_discriminant_factorization():
    t0 = time.monotonic()
    rng = random.Random(20260825)
    checked = 0
    while checked < 100:
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        d = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if a == 0 or (c == 0 and d == 0) or c + d == 0:
            continue
        assert verify_disc_factorization(BoundaryParams(a, b, c, d))
        checked += 1
    report("A3 discriminant factorization on 100 random parameters", 60, t0)


def test_a4_symmetrized_blocks_brute_force():
    t0 = time.monotonic()
    good, lines = _repro_q_blocks()
    assert good, "\n".join(lines)
    report("A4 symmetrized blocks match brute force", 60, t0)


def test_a5_limit_blocks():
    t0 = time.monotonic()
    qb_lim = q_blocks(LIMIT)
    qb_sym = q_blocks(4)
    for i in range(2):
        for j in range(2):
            assert qb_lim.block_hook[i][j].terms == {
                p: RatFunc(v)
                for p, v in qb_sym.block_hook[i][j].limit().items()
                if v
            }
    assert qb_lim.block_22.terms == {
        p: RatFunc(v) for p, v in qb_sym.block_22.limit().items() if v
    }
    target = p_to_m(
        SymFormP(4, (0, 0, Fraction(1, 2), Fraction(-1), Fraction(1, 2)), LIMIT)
    ).limit()
    t_items = {p: v for p, v in target.items() if v}
    l_items = {p: constant_value(v) for p, v in qb_lim.block_22.terms.items() if v}
    assert set(t_items) == set(l_items)
    ratios = {l_items[p] / t_items[p] for p in t_items}
    assert len(ratios) == 1 and ratios.pop() > 0
    report("A5 limit blocks are entrywise limits", 5, t0)


def test_a6_limit_cone_equality_sample():
    t0 = time.monotonic()
    good, lines = _repro_limit_equality()
    assert good, "\n".join(lines)
    report("A6 limit-cone witnesses verified on 500 sampled forms", 300, t0)


def test_a7_cone_inclusions():
    t0 = time.monotonic()
    from symquartic.sos import sos_membership as sos

    rng = random.Random(424242)
    for _ in range(100):
        f8 = random_form(rng, 8)
        f4 = f8.with_scope(4)
        if is_nonneg(f8).status == "IN":
            assert is_nonneg(f4).status == "IN"
        if sos(f8).status == "IN":
            assert sos(f4).status == "IN"
        for n in (4, 5, 6, 8):
            fn = f8.with_scope(n)
            if sos(fn).status == "IN":
                assert is_nonneg(fn).status == "IN"
            else:
                ell = find_separating_functional(fn)
                assert ell is not None
                assert pair(ell, fn) < 0 and dual_membership(ell, n)
    report("A7 cone inclusions on 100 random forms", 60, t0)


def test_a8_generator_full_rank():
    t0 = time.monotonic()
    for n in (4, 5, 6, 7, 8):
        assert sigma_prime_rank(n) == 5
    report("A8 square generators span full dimension", 1, t0)


def test_a9_round_trips_and_substitution():
    t0 = time.monotonic()
    rng = random.Random(31337)
    for n in range(4, 11):
        coeffs = tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(5))
        f = SymFormP(4, coeffs, n)
        assert m_to_p(p_to_m(f), n) == f
    for k in (1, 2, 3, 4):
        for mu in partitions_of(k):
            for n in (4, 7, 10):
                g = SymFuncM({mu: RatFunc(1)})
                assert p_to_m(m_to_p(g, n)).specialize(n) == g.specialize(n)
    for n in range(4, 9):
        for lam in partitions_of(4):
            f = SymFormP(4, tuple(1 if nu == lam else 0 for nu in partitions_of(4)), n)
            for theta1 in range(n + 1):
                h = restrict_alpha(f, Fraction(theta1, n))
                x, y = Fraction(3, 2), Fraction(-2, 3)
                lhs = sum(c * x ** (4 - i) * y**i for i, c in enumerate(h))
                assert lhs == evaluate(f, (x,) * theta1 + (y,) * (n - theta1))
    report("A9 basis round trips and weight-substitution identity", 30, t0)
