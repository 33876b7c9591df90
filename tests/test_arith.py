"""Tests for the exact arithmetic primitives."""
from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oddperfect import arith
from oddperfect.arith import (
    DETERMINISTIC_PRIME_BOUND,
    Factorization,
    factorize,
    is_prime,
    isqrt_exact,
    primality_is_proven,
    primes_between,
    primes_upto,
    sigma,
    sigma_prime_power,
    v2,
)
from oddperfect.errors import FactorBoundError

from _oracles import (
    factor_trial,
    is_prime_by_witnesses,
    is_prime_trial,
    primes_in,
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
        # the three smallest strong pseudoprimes to base 2, then the smallest
        # to bases 2,3 / 2,3,5 / 2,3,5,7; 2047, 1373653 and 25326001 are the
        # first numbers past the rung whose witnesses they fool
        for n in (2047, 3277, 4033, 1373653, 25326001, 3215031751):
            assert not is_prime(n), n
            assert not is_prime_trial(n) if n < 10**7 else True

    def test_witness_counts_never_decrease_along_the_ladder(self):
        counts = [len(witnesses) for _, witnesses in arith._MR_LADDER]
        assert counts == sorted(counts)
        limits = [limit for limit, _ in arith._MR_LADDER]
        assert limits == sorted(set(limits))

    def test_deterministic_bound_documented(self):
        assert DETERMINISTIC_PRIME_BOUND == 3_317_044_064_679_887_385_961_981
        assert primality_is_proven(DETERMINISTIC_PRIME_BOUND - 1)
        assert not primality_is_proven(DETERMINISTIC_PRIME_BOUND)

    def test_large_known_primes(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))


class TestIsPrimeWitnessOracle:
    """is_prime against its per-witness reference, is_prime_by_witnesses."""

    @staticmethod
    def _agree(numbers):
        for n in numbers:
            expected = is_prime_by_witnesses(n, arith._MR_LADDER, arith.PROBABLE_PRIME_WITNESSES)
            assert is_prime(n) == expected, n

    def test_either_side_of_every_rung(self):
        self._agree(limit + k for limit, _ in arith._MR_LADDER for k in range(-2, 3))

    def test_random_numbers_on_every_rung(self):
        rng = random.Random(13)
        limits = [limit for limit, _ in arith._MR_LADDER]
        rungs = zip([2, *limits], [*limits, 10**30])
        self._agree(rng.randrange(lo, hi) for lo, hi in rungs for _ in range(2000))

    def test_first_inputs_past_the_gcd_screen(self):
        primes = primes_in(41, 1000)
        self._agree(primes)
        low = primes_in(41, 200)
        self._agree(p * q for p in low for q in low if p <= q)

    def test_every_witness_as_n(self):
        witnesses = {a for _, rung in arith._MR_LADDER for a in rung}
        self._agree(sorted(witnesses | set(arith.PROBABLE_PRIME_WITNESSES)))


class TestPrimesUpto:
    def test_boundaries(self):
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_100k(self):
        assert len(primes_upto(100_000)) == 9592

    def test_every_limit_below_2000(self):
        for limit in range(2000):
            primes = primes_upto(limit)
            assert type(primes) is list and all(type(p) is int for p in primes)
            assert primes == primes_in(0, limit), limit
            assert primes_between(0, limit).tolist() == primes_in(0, limit), limit
            assert primes_between(limit, 1999).tolist() == primes_in(limit, 1999), limit


class TestPrimesBetween:
    @pytest.mark.parametrize("segment", [7, 64])
    def test_squares_and_segment_boundaries(self, monkeypatch, segment):
        monkeypatch.setattr(arith, "_SIEVE_SEGMENT", segment)
        ends = {p * p + d for p in (2, 3, 5, 7, 31, 97, 1009) for d in (-1, 0, 1)}
        ends |= {k * segment + d for k in (1, 2, 5) for d in (-1, 0, 1)}
        for lo in sorted(ends):
            for hi in (lo, lo + 1, lo + segment - 1, lo + segment, lo + segment + 1,
                       lo + 3 * segment):
                assert primes_between(lo, hi).tolist() == primes_in(lo, hi), (lo, hi)

    def test_default_segment_boundary(self):
        segment = arith._SIEVE_SEGMENT
        for lo in (2, 1_000_003):
            for hi in (lo + segment - 1, lo + segment, lo + segment + 1):
                assert primes_between(lo, hi).tolist() == primes_in(lo, hi), (lo, hi)

    def test_empty_and_degenerate_intervals(self):
        assert primes_between(-10, 1).tolist() == []
        assert primes_between(-10, 10).tolist() == [2, 3, 5, 7]
        assert primes_between(1, 2).tolist() == [2]
        assert primes_between(2, 2).tolist() == [2]
        assert primes_between(24, 28).tolist() == []
        assert primes_between(11, 10).tolist() == []
        assert primes_between(10**9, 3).tolist() == []
        assert primes_between(5, -5).dtype == primes_between(5, 7).dtype == "int64"

    @settings(deadline=None)
    @given(st.integers(min_value=-5, max_value=10**7), st.integers(min_value=-5, max_value=3000),
           st.integers(min_value=64, max_value=4096))
    def test_matches_plain_sieve(self, lo, width, segment):
        with mock.patch.object(arith, "_SIEVE_SEGMENT", segment):
            assert primes_between(lo, lo + width).tolist() == primes_in(lo, lo + width)


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

    def test_composite_cofactor_beyond_trial_bound_splits(self):
        n = 1_000_003 * 1_000_033 * 1_000_037
        assert factorize(n).factors == ((1_000_003, 1), (1_000_033, 1), (1_000_037, 1))

    def test_composite_cofactor_beyond_bound_raises(self, monkeypatch):
        # only rho's step cap is left to stop factorize
        monkeypatch.setattr(arith, "_RHO_STEPS", 1)
        with pytest.raises(FactorBoundError):
            factorize(1_000_003 * 1_000_033 * 1_000_037)

    def test_step_cap_bounds_the_cycle_length(self, monkeypatch):
        m = 1_000_003 * 1_000_033 * 1_000_037  # x^2 + 1 splits it at cycle length 256
        monkeypatch.setattr(arith, "_RHO_STEPS", 256)
        assert arith._brent(m, 1) == 1_000_033
        monkeypatch.setattr(arith, "_RHO_STEPS", 128)
        assert arith._brent(m, 1) is None

    def test_overshooting_batch_is_walked_again(self):
        # the batch that meets 198391 also meets m's other prime; one gcd per
        # step over that batch separates them
        assert arith._brent(198391 * 204233, 1) in (198391, 204233)

    def test_next_constant_after_rho_closes_on_m(self):
        # the x^2 + 1 walk finds 65537 and 65537^2 at the same step; x^2 + 3 does not
        assert arith._brent(65537**2, 1) is None
        assert factorize(65537**2).factors == ((65537, 2),)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            factorize(0)


def _prime_from(n: int) -> int:
    return next(filter(is_prime_trial, itertools.count(n)))


class TestFactorizeOracle:
    """factorize against plain trial division, on each of its paths."""

    def test_semiprimes_beyond_trial_bound(self):
        rng = random.Random(41)
        for _ in range(8):
            p, q = (_prime_from(rng.randrange(arith._TRIAL_BOUND, 10**6)) for _ in range(2))
            assert dict(factorize(p * q)) == factor_trial(p * q), (p, q)

    def test_prime_powers_just_above_trial_bound(self):
        for p in (65537, 65539, 65543):  # the first primes above 2^16
            for e in (2, 3):
                assert dict(factorize(p**e)) == factor_trial(p**e) == {p: e}

    def test_carmichael_numbers(self):
        for n in (561, 41041, 825265, 321197185):
            assert dict(factorize(n)) == factor_trial(n), n

    def test_one_and_powers_of_two(self):
        assert dict(factorize(1)) == factor_trial(1) == {}
        for e in range(1, 80):
            assert dict(factorize(2**e)) == factor_trial(2**e) == {2: e}

    def test_random_odd_numbers(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randrange(0, 5 * 10**11) * 2 + 1
            assert dict(factorize(n)) == factor_trial(n), n


def _check_against_oracle(n: int) -> None:
    f = factorize(n)
    assert dict(f) == factor_trial(n), n
    # the public constructor, which proves every prime again, accepts it
    assert Factorization(f.factors) == f, n


class TestFactorizeTrustedPath:
    """factorize skips the constructor's checks: its output at the edges of
    the trial blocks and groups and of the trial bound, against the oracle."""

    def test_block_and_group_edges(self):
        primes = primes_in(0, 2000)
        edges = [primes[i] for i in (31, 32, 255, 256)]  # 32nd/33rd, 256th/257th
        assert edges == [131, 137, 1619, 1621]
        for p, q in itertools.combinations_with_replacement(edges, 2):
            for cofactor in (1, 3, 65537, 4_294_967_311):
                _check_against_oracle(p * q * cofactor)

    def test_trial_bound_edge(self):
        below, above = 65521, 65537  # the primes either side of 2^16
        assert below == max(primes_in(65000, 1 << 16)) and above == _prime_from(1 << 16)
        for n in (below * above, below**2, above**2, 3 * below * above):
            _check_against_oracle(n)

    def test_prime_cofactor_either_side_of_bound_squared(self):
        below, above = 4_294_967_291, 4_294_967_311  # the primes either side of 2^32
        assert is_prime_trial(below) and is_prime_trial(above)
        for p in (below, above):
            for small in (1, 3, 131 * 137, 65521):
                _check_against_oracle(small * p)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=10**8 - 1))
    def test_matches_oracle_below_10_8(self, n):
        _check_against_oracle(n)


class TestFactorizeProvesOnce:
    def _count(self, monkeypatch) -> list[int]:
        seen: list[int] = []

        def counting(m: int) -> bool:
            seen.append(m)
            return is_prime(m)

        monkeypatch.setattr(arith, "is_prime", counting)
        return seen

    def test_two_calls_for_a_large_prime_cofactor(self, monkeypatch):
        # one rejects n, one accepts the cofactor left after 3, 5 and 7
        seen = self._count(monkeypatch)
        factorize(3 * 5 * 7 * 999_999_999_989)
        assert seen == [3 * 5 * 7 * 999_999_999_989, 999_999_999_989]

    def test_no_call_proves_a_trial_prime(self, monkeypatch):
        seen = self._count(monkeypatch)
        rng = random.Random(59)
        for _ in range(2000):
            n = rng.randrange(1, 10**12)
            del seen[:]
            factorize(n)
            assert all(m >= arith._TRIAL_BOUND for m in seen if m != n), n


class TestFactorizeSympy:
    """An optional second opinion on inputs too large for trial division."""

    def test_products_of_two_31_bit_primes(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(47)
        for _ in range(6):
            p, q = (sympy.nextprime(rng.randrange(1 << 30, 1 << 31)) for _ in range(2))
            assert dict(factorize(p * q)) == sympy.factorint(p * q), (p, q)

    def test_random_below_10_18(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(53)
        for _ in range(150):
            n = rng.randrange(1, 10**18)
            assert dict(factorize(n)) == sympy.factorint(n), n


class TestFactorizeIsLazy:
    def test_import_builds_no_trial_table(self):
        code = (
            "import oddperfect, oddperfect.arith as a\n"
            "print(a._trial_blocks.cache_info().currsize)\n"
            "oddperfect.factorize(91)\n"
            "print(a._trial_blocks.cache_info().currsize)\n"
        )
        src = str(Path(arith.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.split() == ["0", "1"]


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


class TestV2:
    def test_spec_values(self):
        assert v2(12) == v2(20) == 2
        assert v2(1) == v2(-7) == 0
        assert v2(-(2**100)) == 100

    def test_matches_naive_v2(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randrange(1, 10**9) << rng.randrange(0, 80)
            assert v2(n) == v2(-n) == v2_int(n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            v2(0)

    @given(st.integers().filter(bool), st.integers().filter(bool))
    def test_valuation_is_additive(self, x, y):
        assert v2(x * y) == v2(x) + v2(y)


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
