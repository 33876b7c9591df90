"""Tests for the exact arithmetic primitives."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oddperfect.arith import (
    DETERMINISTIC_PRIME_BOUND,
    Factorization,
    binomial,
    factorize,
    is_prime,
    isqrt_exact,
    primality_is_proven,
    primes_upto,
    sigma,
    sigma_prime_power,
    vp,
)
from oddperfect.errors import FactorBoundError

from _oracles import (
    is_prime_trial,
    pascal_binomial,
    sigma_divisor_sum,
    square_root_scan,
    v2_int,
)


class TestIsPrime:
    def test_small_cases(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)
        assert not is_prime(22021)  # 19^2 * 61

    def test_matches_trial_division_up_to_10k(self):
        for n in range(10_000):
            assert is_prime(n) == is_prime_trial(n), n

    def test_random_larger_values(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(2, 10**6)
            assert is_prime(n) == is_prime_trial(n), n

    def test_strong_pseudoprimes_are_rejected(self):
        # smallest strong pseudoprimes to bases 2 / 2,3 / 2,3,5 / 2,3,5,7;
        # each sits exactly on a witness-ladder boundary
        for n in (2047, 3277, 4033, 1373653, 25326001, 3215031751):
            assert not is_prime(n), n
            assert not is_prime_trial(n) if n < 10**7 else True

    def test_deterministic_bound_documented(self):
        assert DETERMINISTIC_PRIME_BOUND == 3_317_044_064_679_887_385_961_981
        assert primality_is_proven(DETERMINISTIC_PRIME_BOUND - 1)
        assert not primality_is_proven(DETERMINISTIC_PRIME_BOUND)

    def test_large_known_primes(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))


class TestPrimesUpto:
    def test_boundaries(self):
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_100k(self):
        assert len(primes_upto(100_000)) == 9592


class TestFactorize:
    def test_spec_values(self):
        assert factorize(672).factors == ((2, 5), (3, 1), (7, 1))
        assert factorize(8128).factors == ((2, 6), (127, 1))
        assert factorize(1).factors == ()

    def test_reconstructs_value(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(1, 10**9)
            f = factorize(n)
            assert f.value == n

    def test_prime_input(self):
        assert factorize(999983).factors == ((999983, 1),)
        assert factorize(2_038_074_743).factors == ((2_038_074_743, 1),)

    def test_large_prime_cofactor(self):
        p = 10**12 + 39  # prime
        assert factorize(6 * p).factors == ((2, 1), (3, 1), (p, 1))

    def test_semiprime_below_bound_squared(self):
        assert factorize(999979 * 999983).factors == ((999979, 1), (999983, 1))

    def test_composite_cofactor_beyond_bound_raises(self):
        n = 1_000_003 * 1_000_033 * 1_000_037
        with pytest.raises(FactorBoundError):
            factorize(n)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestFactorizationType:
    def test_rejects_descending_primes(self):
        with pytest.raises(ValueError):
            Factorization(((5, 1), (3, 1)))

    def test_rejects_composite_entry(self):
        with pytest.raises(ValueError):
            Factorization(((4, 1),))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            Factorization(((3, 0),))

    def test_iteration_and_len(self):
        f = Factorization(((2, 3), (7, 1)))
        assert list(f) == [(2, 3), (7, 1)]
        assert len(f) == 2
        assert f.value == 56


class TestSigma:
    def test_spec_values(self):
        assert sigma(factorize(6)) == 12
        assert sigma(factorize(672)) == 2016
        assert sigma(factorize(21)) == 32

    def test_matches_divisor_sum_to_10k(self):
        for n in range(1, 10_001):
            assert sigma(factorize(n)) == sigma_divisor_sum(n), n

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(5)
        checked = 0
        while checked < 100:
            a = rng.randrange(2, 10**6)
            b = rng.randrange(2, 10**6)
            if math.gcd(a, b) != 1:
                continue
            assert sigma(factorize(a * b)) == sigma(factorize(a)) * sigma(factorize(b))
            checked += 1


class TestSigmaPrimePower:
    def test_spec_values(self):
        assert sigma_prime_power(7, 3) == 400
        assert sigma_prime_power(17, 1) == 18
        assert sigma_prime_power(97, 0) == 1

    def test_matches_power_sum(self):
        for q in (2, 3, 5, 13, 101):
            for a in range(9):
                assert sigma_prime_power(q, a) == sum(q**i for i in range(a + 1))

    def test_parity_law(self):
        # for odd q: sigma(q^a) odd exactly when a is even
        for q in (3, 5, 7, 11, 4999):
            for a in range(1, 12):
                assert (sigma_prime_power(q, a) % 2 == 1) == (a % 2 == 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigma_prime_power(1, 3)
        with pytest.raises(ValueError):
            sigma_prime_power(7, -1)


class TestIsqrtExact:
    def test_spec_values(self):
        assert isqrt_exact(400) == 20
        assert isqrt_exact(0) == 0
        assert isqrt_exact(18) is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            isqrt_exact(-1)

    @given(st.integers(min_value=0, max_value=2**256))
    def test_round_trip_on_squares(self, n):
        assert isqrt_exact(n * n) == n

    @given(st.integers(min_value=0, max_value=10**12))
    def test_agrees_with_bisection_oracle(self, n):
        assert isqrt_exact(n) == square_root_scan(n)


class TestVp:
    def test_spec_values(self):
        assert vp(2, 12) == 2
        assert vp(2, Fraction(3, 8)) == -3
        assert vp(2, 20) == 2

    def test_odd_prime_base(self):
        assert vp(3, 81) == 4
        assert vp(5, Fraction(7, 125)) == -3

    def test_matches_naive_v2(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randrange(1, 10**9)
            assert vp(2, n) == v2_int(n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            vp(2, 0)
        with pytest.raises(ValueError):
            vp(2, Fraction(0))

    def test_composite_base_rejected(self):
        with pytest.raises(ValueError):
            vp(4, 8)

    @given(
        st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)).filter(bool),
        st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)).filter(bool),
    )
    def test_valuation_is_additive(self, x, y):
        assert vp(2, x * y) == vp(2, x) + vp(2, y)


class TestBinomial:
    def test_spec_values(self):
        assert binomial(5, 2) == 10
        assert binomial(7, 0) == 1
        assert binomial(10, 4) == 210
        assert binomial(3, 9) == 0

    def test_matches_pascal_recurrence(self):
        for n in range(25):
            for k in range(30):
                assert binomial(n, k) == pascal_binomial(n, k), (n, k)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)


class TestGcd:
    def test_spec_values(self):
        assert math.gcd(13**2 - 1, 13**2 + 1) == 2
        assert math.gcd(0, 7) == 7
        assert math.gcd(12, 18) == 6

    def test_power_neighbours(self):
        # gcd(q^m - 1, q^m + 1) = 2 for odd q
        for q in (3, 5, 999):
            for m in (1, 2, 7, 50):
                assert math.gcd(q**m - 1, q**m + 1) == 2
