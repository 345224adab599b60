import random
from fractions import Fraction

import pytest

from symquartic.algebra import MultiPoly, RatFunc
from symquartic.specht import (
    Tableau,
    brute_symmetrize,
    gamma_generator_p_coeffs,
    q_blocks,
    sigma_prime_generators,
    sigma_prime_rank,
    specht_polynomial,
)
from symquartic.symfunc import LIMIT, form_from_dict, p_to_m

from conftest import constant_value


def var(i, n, power=1):
    return MultiPoly.var(i, n, power)


class TestTableau:
    def test_valid(self):
        t = Tableau((2, 2), ((1, 3), (2, 4)))
        assert t.n == 4
        assert t.columns() == [(1, 2), (3, 4)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            Tableau((2, 2), ((1, 2), (3,)))
        with pytest.raises(ValueError):
            Tableau((2, 1), ((1, 2), (2,)))
        with pytest.raises(ValueError):
            Tableau((1, 2), ((1,), (2, 3)))


class TestSpechtPolynomial:
    def test_hook_column(self):
        t = Tableau((3, 1), ((1, 3, 4), (2,)))
        assert specht_polynomial(t) == var(0, 4) - var(1, 4)

    def test_two_row_shape(self):
        t = Tableau((2, 2), ((1, 2), (3, 4)))
        expected = (var(0, 4) - var(2, 4)) * (var(1, 4) - var(3, 4))
        assert specht_polynomial(t) == expected

    def test_one_row_is_constant(self):
        t = Tableau((4,), ((1, 2, 3, 4),))
        assert specht_polynomial(t) == MultiPoly.const(1, 4)


class TestBruteSymmetrize:
    def test_single_square(self):
        g = brute_symmetrize(var(0, 4, 2), 4)
        assert g.specialize(4) == {(2,): Fraction(1)}

    def test_antisymmetric_vanishes(self):
        for n in (4, 5):
            g = brute_symmetrize(var(0, n) - var(1, n), n)
            assert g.is_zero()

    def test_swap_difference_squared(self):
        # Sym((x1 - x2)^2) = (2n/(n-1)) (p_2 - p_(1,1))
        for n in (4, 5, 6):
            d = var(0, n) - var(1, n)
            lhs = brute_symmetrize(d * d, n).specialize(n)
            rhs = (
                p_to_m(form_from_dict(2, {(2,): 1, (1, 1): -1}, n))
                .scale(RatFunc(Fraction(2 * n, n - 1)))
                .specialize(n)
            )
            assert lhs == rhs

    def test_idempotent_and_invariant(self):
        rng = random.Random(2)
        n = 5
        p = MultiPoly(n)
        for _ in range(6):
            expo = [0] * n
            for _ in range(4):
                expo[rng.randrange(n)] += 1
            p = p + MultiPoly(n, {tuple(expo): Fraction(rng.randint(-5, 5), 2)})
        swapped = MultiPoly(
            n,
            {
                (e[1], e[0]) + e[2:]: c
                for e, c in p.terms.items()
            },
        )
        assert brute_symmetrize(p, n).specialize(n) == brute_symmetrize(swapped, n).specialize(n)

    def test_cross_representation_orthogonality(self):
        # product of symmetry-basis elements from non-isomorphic components
        # symmetrizes to zero
        for n in (4, 5, 6):
            hook = var(0, n) - var(1, n)
            tworow = (var(0, n) - var(2, n)) * (var(1, n) - var(3, n))
            assert brute_symmetrize(hook * tworow, n).is_zero()
            p1 = MultiPoly(n)
            for i in range(n):
                p1 = p1 + var(i, n)
            assert brute_symmetrize(hook * p1 * p1, n).is_zero()

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            brute_symmetrize(var(0, 9), 9)


class TestQBlocks:
    def test_trivial_block_is_one(self):
        qb = q_blocks(5)
        assert qb.block_triv.specialize(5) == {(): Fraction(1)}

    def test_hook_entry_closed_form_n4(self):
        qb = q_blocks(4)
        expected = (
            p_to_m(form_from_dict(2, {(2,): 1, (1, 1): -1}, 4))
            .scale(RatFunc(Fraction(8, 3)))
            .specialize(4)
        )
        assert qb.block_hook[0][0].specialize(4) == expected

    def test_limit_two_row_block_scaling(self):
        qb = q_blocks(LIMIT)
        target = p_to_m(
            form_from_dict(
                4,
                {(1, 1, 1, 1): Fraction(1, 2), (2, 1, 1): -1, (2, 2): Fraction(1, 2)},
                LIMIT,
            )
        )
        lim22 = qb.block_22
        # equal up to a positive scalar
        t_items = {p: v for p, v in target.limit().items() if v}
        l_items = {p: constant_value(v) for p, v in lim22.terms.items() if v}
        assert set(t_items) == set(l_items)
        ratios = {l_items[p] / t_items[p] for p in t_items}
        assert len(ratios) == 1
        assert ratios.pop() > 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            q_blocks(3)

    def test_matches_brute_force(self):
        for n in (4, 5, 6):
            qb = q_blocks(n)
            g1 = var(0, n) - var(1, n)
            g2 = var(0, n, 2) - var(1, n, 2)
            prods = {(0, 0): g1 * g1, (0, 1): g1 * g2, (1, 1): g2 * g2}
            for (i, j), prod in prods.items():
                assert (
                    brute_symmetrize(prod, n).specialize(n)
                    == qb.block_hook[i][j].specialize(n)
                )
            rows = (tuple([1, 3] + list(range(5, n + 1))), (2, 4))
            sp = specht_polynomial(Tableau((n - 2, 2), rows))
            assert brute_symmetrize(sp * sp, n).specialize(n) == qb.block_22.specialize(n)

    def test_limit_is_entrywise_limit_of_finite_n(self):
        qb_lim = q_blocks(LIMIT)
        qb_sym = q_blocks(4)  # RatFunc entries in the symbol n
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


class TestSigmaPrime:
    def test_contains_expected_generators(self):
        gens = sigma_prime_generators(4)
        vectors = [tuple(g.coeffs) for g in gens]
        assert (0, 0, 1, 0, 0) in vectors  # p_2 p_2
        assert (1, 0, -1, 0, 0) in vectors  # p_4 - p_2 p_2

    def test_full_rank(self):
        for n in (4, 5, 8):
            assert sigma_prime_rank(n) == 5


class TestGammaGenerator:
    def test_p_coefficients_at_n4(self):
        coeffs = gamma_generator_p_coeffs()
        at4 = {parts: c.at(Fraction(4)) for parts, c in coeffs.items()}
        assert at4 == {
            (4,): Fraction(-3, 32),
            (3, 1): Fraction(3, 8),
            (2, 2): Fraction(7, 32),
            (2, 1, 1): Fraction(-1),
            (1, 1, 1, 1): Fraction(1, 2),
        }
