import math

import numpy
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from artlab import (
    InvalidInputError,
    UnitSet,
    crt_combine,
    euler_phi,
    factorize,
    jacobi_symbol,
    power_subgroup,
    unit_group_generators,
)
from artlab.modarith import is_prime, power_roots, primes_in


def naive_trial_division(m):
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1).factors == ()

    def test_twelve_by_hand(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_9999_against_trial_division_oracle(self):
        assert naive_trial_division(9999) == ((3, 2), (11, 1), (101, 1))
        assert factorize(9999).factors == ((3, 2), (11, 1), (101, 1))

    def test_rejects_zero_and_oversized(self):
        with pytest.raises(InvalidInputError):
            factorize(0)
        with pytest.raises(InvalidInputError):
            factorize((1 << 48) + 1)

    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=200)
    def test_matches_naive_oracle(self, m):
        assert factorize(m).factors == naive_trial_division(m)

    def test_large_semiprime(self):
        p, q = 1_000_003, 999_983
        assert factorize(p * q).factors == ((q, 1), (p, 1))


class TestUnitGroupGenerators:
    def test_nine_has_primitive_root_two(self):
        # independent order computation: 2 has order 6 = phi(9) mod 9
        assert sorted(pow(2, i, 9) for i in range(6)) == [1, 2, 4, 5, 7, 8]
        assert unit_group_generators(9) == [2]

    def test_eight_canonical_pair(self):
        assert unit_group_generators(8) == [7, 5]

    def test_trivial_moduli(self):
        assert unit_group_generators(1) == []
        assert unit_group_generators(2) == []

    def test_four(self):
        assert unit_group_generators(4) == [3]

    @pytest.mark.parametrize("m", list(range(1, 150)) + [256, 360, 1024, 1998, 2000])
    def test_closure_of_generators_is_unit_group(self, m):
        gens = unit_group_generators(m)
        closure = {1 % m}
        frontier = [1 % m]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = (cur * g) % m
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
        assert tuple(sorted(closure)) == power_subgroup(m, 1).elements

    def test_full_range_up_to_2000(self):
        for m in range(1, 2001):
            gens = unit_group_generators(m)
            assert all(math.gcd(g, m) == 1 for g in gens)
            # group order check is cheaper than full closure: product of
            # per-generator orders covers phi(m) iff the generators generate
            closure = {1 % m}
            frontier = [1 % m]
            while frontier:
                cur = frontier.pop()
                for g in gens:
                    nxt = (cur * g) % m
                    if nxt not in closure:
                        closure.add(nxt)
                        frontier.append(nxt)
            assert len(closure) == (euler_phi(m) if m > 1 else 1)


class TestPowerSubgroup:
    def test_squares_mod_16(self):
        assert power_subgroup(16, 2).elements == (1, 9)

    def test_cubes_mod_7(self):
        assert power_subgroup(7, 3).elements == (1, 6)

    def test_e_one_is_all_units(self):
        assert power_subgroup(11, 1).elements == tuple(range(1, 11))

    def test_modulus_one_uses_zero_for_the_unit(self):
        assert power_subgroup(1, 5).elements == (0,)

    @pytest.mark.parametrize("m", [1, 2, 7, 12, 16, 45])
    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_membership_matches_elements(self, m, e):
        s = power_subgroup(m, e)
        assert all((x in s) == (x in s.elements) for x in range(m))

    @given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150)
    def test_closed_under_multiplication_and_has_one(self, m, e):
        s = set(power_subgroup(m, e).elements)
        assert 1 in s
        assert all(math.gcd(x, m) == 1 for x in s)
        assert all((a * b) % m in s for a in s for b in s)

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 6])
    def test_roots_are_the_least_roots(self, e):
        for m in range(1, 200):
            s = power_subgroup(m, e)
            assert s.elements == tuple(sorted(power_roots(m, e))) and s.roots == power_roots(m, e)
            least = {}
            for u in range(m - 1, -1, -1):
                if math.gcd(u, m) == 1:
                    least[pow(u, e, m)] = u  # 0 stands for the unit mod 1
            assert s.roots == least, (m, e)

    @pytest.mark.parametrize("e", range(1, 9))
    def test_sets_hold_the_unit_set_invariants(self, e):
        # power_subgroup skips UnitSet's checks: its loop keeps only units
        for m in range(1, 2000):
            units = numpy.flatnonzero(numpy.gcd(numpy.arange(m), m) == 1)
            powers = numpy.ones_like(units)
            for _ in range(e):
                powers = powers * units % m
            # sorted, distinct, and the e-th powers of the units, so units themselves
            elements = power_subgroup(m, e).elements
            assert elements == tuple(numpy.unique(powers).tolist()) and 1 % m in elements, m

    @pytest.mark.parametrize("m,elements", [(6, (5, 1)), (6, (1, 1, 5)), (6, (1, 2)),
                                            (6, (5,)), (6, (1, 7)), (1, (1,))])
    def test_direct_construction_still_validates(self, m, elements):
        with pytest.raises(InvalidInputError):
            UnitSet(m, elements)

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=300)
    def test_unit_count_is_euler_phi(self, m):
        expected = euler_phi(m) if m > 1 else 1
        assert len(power_subgroup(m, 1).elements) == expected


class TestCrtCombine:
    def test_two_congruences(self):
        assert crt_combine([(3, 4), (1, 3)]) == 7

    def test_single(self):
        assert crt_combine([(0, 5)]) == 0

    def test_all_ones(self):
        assert crt_combine([(1, 2), (1, 3), (1, 5)]) == 1

    def test_non_coprime_names_the_pair(self):
        with pytest.raises(InvalidInputError, match="4 and 6"):
            crt_combine([(1, 4), (3, 6)])

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_reduction_inverts_combination(self, residues):
        moduli = [3, 8, 25, 77][:len(residues)]
        parts = [(r % m, m) for r, m in zip(residues, moduli)]
        x = crt_combine(parts)
        assert 0 <= x < math.prod(moduli)
        for r, m in parts:
            assert x % m == r


class TestJacobiSymbol:
    def test_minus_one_mod_23(self):
        assert jacobi_symbol(-1, 23) == -1

    def test_minus_three_mod_19(self):
        squares = {pow(x, 2, 19) for x in range(1, 19)}
        assert (-3) % 19 in squares
        assert jacobi_symbol(-3, 19) == 1

    def test_shared_factor_gives_zero(self):
        assert jacobi_symbol(0, 9) == 0
        assert jacobi_symbol(6, 9) == 0

    def test_rejects_even_modulus(self):
        with pytest.raises(InvalidInputError):
            jacobi_symbol(3, 10)

    def test_agrees_with_exhaustive_squares_for_primes_to_500(self):
        for p in primes_in(3, 500):
            squares = {pow(x, 2, p) for x in range(1, p)}
            for a in range(p):
                expected = 0 if a % p == 0 else (1 if a in squares else -1)
                assert jacobi_symbol(a, p) == expected, (a, p)

    def test_multiplicativity_in_modulus(self):
        for a in range(-20, 21):
            assert jacobi_symbol(a, 15) == jacobi_symbol(a, 3) * jacobi_symbol(a, 5)


class TestPrimesHelpers:
    def test_is_prime_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_primes_in_window(self):
        assert primes_in(23, 31) == [23, 29, 31]
        assert primes_in(24, 28) == []
        assert primes_in(10, 5) == []


class TestSympyOracle:
    @given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=200)
    def test_primes_in_matches_primerange(self, lo, hi):
        assert primes_in(lo, hi) == list(sympy.primerange(lo, hi + 1))

    @given(st.integers(min_value=1, max_value=10 ** 10))
    @settings(max_examples=300)
    def test_factorize_matches_factorint(self, m):
        assert factorize(m).factors == tuple(sorted(sympy.factorint(m).items()))

    @given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 6).map(lambda h: 2 * h + 1))
    @settings(max_examples=300)
    def test_jacobi_symbol_matches_sympy(self, a, m):
        assert jacobi_symbol(a, m) == sympy.jacobi_symbol(a, m)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=300)
    def test_euler_phi_matches_totient(self, m):
        assert euler_phi(m) == sympy.totient(m)

    @given(st.sampled_from(primes_in(3, 1000)), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200)
    def test_odd_prime_power_generator_is_primitive_root(self, p, k):
        q = p ** k
        (g,) = unit_group_generators(q)
        assert sympy.n_order(g, q) == sympy.totient(q)
