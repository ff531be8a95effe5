import math
import re
import time
from pathlib import Path

import pytest

import artlab.lemma2 as lemma2
from artlab import (
    InvalidInputError,
    PairWitness,
    ResourceCapError,
    count_fermat_points,
    crt_combine,
    exists_pair,
    failure_scan,
    power_subgroup,
    prime_power_witness,
    weil_threshold_prime,
)
from artlab.modarith import factorize, primes_in


def brute_force_pair(m, e):
    """Independent oracle: full double loop over the e-th power subgroup."""
    powers = sorted({pow(u, e, m) for u in range(1, m) if math.gcd(u, m) == 1})
    one = 1 % m
    best = None
    for x in powers:
        for y in powers:
            if x != one and y != one and (x + y - 2) % m == 0:
                if best is None or (x, y) < best:
                    best = (x, y)
    return best


class TestPairWitness:
    def test_witness_cannot_exist_invalid(self):
        with pytest.raises(InvalidInputError):
            PairWitness(8, 1, 3, 5)  # 3 + 5 = 8 = 0 mod 8
        with pytest.raises(InvalidInputError):
            PairWitness(8, 1, 1, 1)  # trivial components
        with pytest.raises(InvalidInputError):
            PairWitness(8, 1, 4, 6)  # not units
        with pytest.raises(InvalidInputError):
            PairWitness(16, 2, 9, 9, u=5, v=4)  # 4^2 = 0 mod 16, not 9

    def test_valid_witness_with_roots(self):
        w = PairWitness(16, 2, 9, 9, u=3, v=5)
        assert (w.x + w.y) % 16 == 2


class TestExistsPair:
    def test_mod_4(self):
        w = exists_pair(4, 1)
        assert (w.x, w.y) == (3, 3)

    def test_mod_6_has_none(self):
        assert exists_pair(6, 1) is None

    def test_squares_mod_16(self):
        w = exists_pair(16, 2)
        assert (w.x, w.y) == (9, 9)
        assert pow(w.u, 2, 16) == 9 and pow(w.v, 2, 16) == 9

    def test_mod_3_only_partner_of_two_is_zero(self):
        assert exists_pair(3, 1) is None

    def test_modulus_one_and_two(self):
        assert exists_pair(1, 1) is None
        assert exists_pair(2, 1) is None

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_lexicographic_minimality_against_oracle(self, e):
        for m in range(1, 61):
            w = exists_pair(m, e)
            expected = brute_force_pair(m, e)
            if expected is None:
                assert w is None, (m, e)
            else:
                assert w is not None and (w.x, w.y) == expected, (m, e)

    @pytest.mark.parametrize("e", range(1, 9))
    def test_roots_match_the_root_search(self, e, monkeypatch):
        # the roots come from power_subgroup's own loop; `_root_of` searches again
        seen = []
        monkeypatch.setattr(lemma2, "power_subgroup",
                            lambda m, e: seen.append(power_subgroup(m, e)) or seen[-1])
        for m in range(1, 1500):
            w = exists_pair(m, e)
            powers = seen.pop() if seen else power_subgroup(m, e)  # e = 1 lists no powers
            expected = None
            for x in powers.elements:
                y = (2 - x) % m
                if x != 1 % m and y != 1 % m and y in powers:
                    expected = (x, y, lemma2._root_of(m, e, x), lemma2._root_of(m, e, y))
                    break
            assert (None if w is None else (w.x, w.y, w.u, w.v)) == expected, m


class TestFailureScan:
    def test_e1_to_100(self):
        assert failure_scan(1, 100).failures == (1, 2, 3, 6)

    def test_e2_to_17(self):
        assert failure_scan(2, 17).failures == (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15)

    def test_trivial_range(self):
        assert failure_scan(1, 1).failures == (1,)

    def test_monotone_prefix(self):
        full = failure_scan(2, 40).failures
        short = failure_scan(2, 17).failures
        assert tuple(m for m in full if m <= 17) == short

    @pytest.mark.parametrize("e, max_m", [(1, 3000), (2, 1000), (3, 1000), (4, 800),
                                          (5, 800), (6, 800), (12, 600), (24, 1100),
                                          (30, 600)])
    def test_matches_exhaustive_search(self, e, max_m):
        # the scan searches prime powers only; the oracle searches every m
        expected = tuple(m for m in range(1, max_m + 1) if exists_pair(m, e) is None)
        assert failure_scan(e, max_m).failures == expected

    def test_crt_consistency(self):
        # a pair at one prime-power part lifts to the whole modulus
        for e in (1, 2, 3):
            exists = {m: exists_pair(m, e) is not None for m in range(1, 1001)}
            for m in range(2, 1001):
                parts = []
                mm = m
                p = 2
                while p * p <= mm:
                    if mm % p == 0:
                        pk = 1
                        while mm % p == 0:
                            mm //= p
                            pk *= p
                        parts.append(pk)
                    p += 1
                if mm > 1:
                    parts.append(mm)
                if any(exists[pk] for pk in parts):
                    assert exists[m], (m, e)

    def test_lifted_witness_is_checkable(self):
        # explicit CRT lift: pair mod 25 placed against 1 mod 3
        w = exists_pair(25, 1)
        x = crt_combine([(w.x, 25), (1, 3)])
        y = crt_combine([(w.y, 25), (1, 3)])
        lifted = PairWitness(75, 1, x, y)  # construction validates
        assert exists_pair(75, 1) is not None
        assert (lifted.x + lifted.y) % 75 == 2


def _valuation(e, p):
    v = 0
    while e % p ** (v + 1) == 0:
        v += 1
    return v


def _hensel_threshold(p, e):
    """Lemma (c)'s bound for p | 2e: p^k has a pair for every k at or above it."""
    return _valuation(e, p) + (3 if p == 2 else 2)


class TestFailureScanLemmas:
    """The three lemmas `failure_scan` rests on, each against `exists_pair`."""

    @pytest.mark.parametrize("e", range(1, 13))
    def test_a_one_plus_p_pairs_mod_odd_prime_powers(self, e):
        for p in primes_in(3, 59):
            if e % p == 0:
                continue
            for k in (2, 3):
                q = p ** k
                # roots from Hensel: u -> u^e is a bijection of 1 + pZ mod p^k,
                # a group of order p^(k-1), with inverse u -> u^(1/e mod p^(k-1))
                inv = pow(e, -1, p ** (k - 1))
                x, y = 1 + p, (1 - p) % q
                PairWitness(q, e, x, y, u=pow(x, inv, q), v=pow(y, inv, q))
                if q < 10 ** 4:  # the exhaustive search is O(q) per call
                    assert exists_pair(q, e) is not None, (q, e)

    @pytest.mark.parametrize("e", [3, 4, 5, 6])
    def test_b_every_prime_past_the_weil_bound_has_a_pair(self, e):
        bound = lemma2._weil_bound(e)
        assert bound < 3000
        for p in primes_in(bound + 1, 3000):
            assert exists_pair(p, e) is not None, (p, e)

    @pytest.mark.parametrize("e", [4, 6, 8, 12, 24])
    def test_b_prime_primes_past_the_bound_of_the_gcd_have_a_pair(self, e):
        # (b'): mod p the e-th powers are the gcd(e, p - 1)-th powers
        covered = [p for p in primes_in(3, 2999)
                   if (2 * e) % p and p > lemma2._weil_bound(math.gcd(e, p - 1))]
        assert covered, e
        for p in covered:
            assert exists_pair(p, e) is not None, (p, e)

    def test_b_weil_bound_values(self):
        assert [lemma2._weil_bound(e) for e in range(1, 7)] == [11, 11, 36, 100, 225, 529]
        # the bound is exact in the inequality it rests on
        for e in range(3, 25):
            g, s = (e - 1) * (e - 2) // 2, math.isqrt(lemma2._weil_bound(e))
            assert s * s - 2 * g * s + 1 - e > e * e + 2 * e

    @pytest.mark.parametrize("e", range(1, 13))
    def test_c_powers_of_primes_dividing_2e(self, e):
        for p in (p for p in (2, 3, 5, 7, 11) if (2 * e) % p == 0):
            top = _hensel_threshold(p, e)
            step = p ** (top - 1)  # p^(v+1), or 2^(v+2) for p = 2
            for k in range(1, top + 2):
                q = p ** k
                w = exists_pair(q, e)
                if k >= top:
                    # the lemma's pair: both e-th powers, and nontrivial mod p^k
                    powers = power_subgroup(q, e)
                    assert (1 + step) in powers and (1 - step) % q in powers, (q, e)
                    assert w is not None, (q, e)
                # on both sides of the threshold the scan agrees with the oracle
                assert (q in failure_scan(e, q).failures) == (w is None), (q, e)

    def test_c_threshold_is_sharp_for_powers_of_two(self):
        # e = 8 fails up to 2^5 = 32, just below the threshold 2^(3+3)
        assert [k for k in range(1, 7) if exists_pair(2 ** k, 8) is None] == [1, 2, 3, 4, 5]

    def test_prime_test_matches_exhaustive_search(self):
        for e in range(1, 13):
            for p in primes_in(3, 400):
                if (2 * e) % p:
                    assert lemma2._prime_has_pair(p, e) == (exists_pair(p, e) is not None), (p, e)

    def test_prime_test_matches_fermat_counts(self):
        # Independent of the search: of the N solutions of u^e + v^e = 2 mod p,
        # g^2 have u^e = v^e = 1 and, when 2 is an e-th power, g each have
        # u = 0 or v = 0 (g = gcd(e, p - 1)); every other one gives a pair.
        for e in range(1, 13):
            for p in primes_in(3, 1999):
                if (2 * e) % p:
                    g = math.gcd(e, p - 1)
                    trivial = g * g + 2 * g * (pow(2, (p - 1) // g, p) == 1)
                    has_pair = count_fermat_points(e, p) > trivial
                    assert lemma2._prime_has_pair(p, e) == has_pair, (p, e)


def _failing_prime_powers(e):
    """{prime: failing powers of it} from a scan to B(e), where every failure is."""
    failing = {}
    for m in failure_scan(e, lemma2._weil_bound(e)).failures:
        factors = factorize(m).factors
        if len(factors) == 1:
            failing.setdefault(factors[0][0], []).append(m)
    return failing


def _c_of(failing):
    """C(e): the product of the largest failing power of each prime."""
    return math.prod(max(powers) for powers in failing.values())


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


class TestReadmeConstantTable:
    def test_rows_for_e_up_to_6(self):
        rows = re.findall(r"^  \| (\d+) \| ([\d,]+) \| [^|]*?\| ([\d, ]+) \| ([\d,]+) \|$",
                          _readme(), re.MULTILINE)
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6]
        for e, bound, powers, constant in rows:
            e = int(e)
            failing = _failing_prime_powers(e)
            assert int(bound.replace(",", "")) == lemma2._weil_bound(e), e
            listed = {int(q) for q in powers.split(", ")}
            assert listed == {q for qs in failing.values() for q in qs}, e
            assert int(constant.replace(",", "")) == _c_of(failing), e

    def test_e12_sentence(self):
        sentence = re.search(r"For e = 12 the scan sieves the ([\d,]+) primes up to ([\d,]+)"
                             r" and\s+searches only the (\d+) with `p ≤ B\(gcd\(12, p − 1\)\)`,"
                             r"\s+plus the powers [^;]*; (\d+) of these prime powers fail, and"
                             r"\s+C\(12\) has (\d+)\s+digits", _readme())
        assert sentence, "README: the e = 12 sentence is missing"
        primes, bound, searched, count, digits = (int(x.replace(",", ""))
                                                  for x in sentence.groups())
        assert bound == lemma2._weil_bound(12)
        assert primes == len(primes_in(2, bound))
        assert searched == sum(1 for p in primes_in(2, bound)
                               if 24 % p and p <= lemma2._weil_bound(math.gcd(12, p - 1)))
        failing = _failing_prime_powers(12)
        assert count == sum(map(len, failing.values()))
        assert digits == len(str(_c_of(failing)))


class TestScanSearchesFinitelyMany:
    @pytest.mark.parametrize("e", [1, 2, 6, 12])
    def test_sieve_and_searches_stay_below_the_lemma_bounds(self, e, monkeypatch):
        sieved, searched = [], []
        sieve, search = lemma2.primes_in, lemma2.exists_pair
        monkeypatch.setattr(lemma2, "primes_in", lambda lo, hi: sieved.append(hi) or sieve(lo, hi))
        monkeypatch.setattr(lemma2, "exists_pair", lambda m, e: searched.append(m) or search(m, e))
        t0 = time.perf_counter()
        failure_scan(e, 10 ** 7)
        assert time.perf_counter() - t0 < 3.0
        assert sieved and max(sieved) <= lemma2._weil_bound(e)
        allowed = {p ** k for p in (2, 3, 5, 7, 11) if (2 * e) % p == 0
                   for k in range(1, _hensel_threshold(p, e))}
        assert 4 in searched and set(searched) <= allowed, searched

    @pytest.mark.parametrize("e", [6, 12, 24])
    def test_prime_searches_stay_below_the_bound_of_the_gcd(self, e, monkeypatch):
        searched = []
        search = lemma2._prime_has_pair
        monkeypatch.setattr(lemma2, "_prime_has_pair",
                            lambda p, e: searched.append(p) or search(p, e))
        failure_scan(e, 10 ** 7)
        assert searched
        for p in searched:
            assert (2 * e) % p and p <= lemma2._weil_bound(math.gcd(e, p - 1)), (p, e)

    def test_work_does_not_grow_with_e(self):
        e = 10 ** 12 + 39
        t0 = time.perf_counter()
        failures = failure_scan(e, 100).failures
        assert time.perf_counter() - t0 < 1.0
        assert failures == tuple(m for m in range(1, 101) if exists_pair(m, e) is None)


class TestPrimePowerWitness:
    def test_5_squared_e1(self):
        w = prime_power_witness(5, 2, 1)
        assert (w.candidate_x, w.candidate_y) == (6, 21)
        assert w.identity_x and w.identity_y and not w.used_fallback
        assert (w.witness.x, w.witness.y) == (6, 21)

    def test_16_e2(self):
        w = prime_power_witness(2, 4, 2)
        assert (w.candidate_x, w.candidate_y) == (9, 9)
        assert w.identity_x and w.identity_y and not w.used_fallback

    def test_9_e3_falls_back_to_empty(self):
        w = prime_power_witness(3, 2, 3)
        assert (w.candidate_x, w.candidate_y) == (4, 7)
        assert not w.identity_x  # (1+1)^3 = 8 != 4 mod 9
        assert w.used_fallback and w.witness is None
        assert power_subgroup(9, 3).elements == (1, 8)  # 4 is not a cube

    def test_requires_prime_and_n_at_least_two(self):
        with pytest.raises(InvalidInputError):
            prime_power_witness(6, 2, 1)
        with pytest.raises(InvalidInputError):
            prime_power_witness(5, 1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_witness_presence_matches_exhaustive_search(self, p, n, e):
        w = prime_power_witness(p, n, e)
        assert (w.witness is not None) == (exists_pair(p ** n, e) is not None)

    def test_candidate_formula_matches_by_hand(self):
        # p=7, n=3, e=2: k=0, step = 7^2 = 49, x = 99, y = 2 - 99 mod 343
        w = prime_power_witness(7, 3, 2)
        assert w.k == 0
        assert w.candidate_x == 99 and w.candidate_y == (2 - 99) % 343


class TestFermatCounts:
    def test_linear_case_is_p(self):
        assert count_fermat_points(1, 13) == 13

    def test_squares_mod_5(self):
        assert count_fermat_points(2, 5) == 4

    def test_cubes_mod_7(self):
        assert count_fermat_points(3, 7) == 9

    def test_against_quadratic_oracle(self):
        for p in primes_in(2, 100):
            for e in range(1, 6):
                expected = sum(
                    1 for x in range(p) for y in range(p)
                    if (pow(x, e, p) + pow(y, e, p)) % p == 2 % p)
                assert count_fermat_points(e, p) == expected, (e, p)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            count_fermat_points(2, 10)
        with pytest.raises(ResourceCapError):
            count_fermat_points(2, 10 ** 6 + 3)


class TestWeilThreshold:
    def test_e2_bound_100(self):
        t = weil_threshold_prime(2, 100)
        assert t.largest == 7
        # exhaustive counting also admits p = 3 (count 4 <= 8)
        assert t.primes == (2, 3, 5, 7)

    def test_e1_count_is_exactly_p(self):
        t = weil_threshold_prime(1, 100)
        assert t.largest == 3 and t.primes == (2, 3)

    def test_tiny_bound(self):
        assert weil_threshold_prime(2, 2).largest == 2

    def test_weil_cutoff_reported_for_cubics(self):
        t = weil_threshold_prime(3, 50)
        assert t.weil_cutoff is not None
        p = t.weil_cutoff
        genus = 1
        assert p + 1 - 2 * genus * math.isqrt(p) - 3 > 15
        assert all(q <= t.weil_cutoff or count_fermat_points(3, q) > 15
                   for q in t.primes)

    def test_no_cutoff_for_low_exponent(self):
        assert weil_threshold_prime(2, 20).weil_cutoff is None

    def test_bound_past_the_count_bound_refused_before_counting(self):
        # counting the 78,498 primes below 10**6 first would take hours
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            weil_threshold_prime(2, 1_000_003)
        assert time.perf_counter() - start < 1
