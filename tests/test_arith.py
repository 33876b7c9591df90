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

import numpy as np
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
    strong_probable_prime,
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
        # the three smallest strong pseudoprimes to base 2, which the
        # smallest-prime-factor table answers, then the smallest to bases
        # 2,3 / 2,3,5 / 2,3,5,7; the rungs (31, 73) and (2, 7, 61) that
        # cover the first two use other witnesses
        for n in (2047, 3277, 4033, 1373653, 25326001, 3215031751):
            assert not is_prime(n), n
            assert not is_prime_trial(n) if n < 10**7 else True

    def test_witness_counts_never_decrease_along_the_ladder(self):
        counts = [len(witnesses) for _, witnesses in arith._MR_LADDER]
        assert counts == sorted(set(counts))
        limits = [limit for limit, _ in arith._MR_LADDER]
        assert limits == sorted(set(limits))

    def test_either_side_of_the_deleted_rungs(self):
        # the limits of (2, 3) and (2, 3, 5), which the rungs above now cover
        for n in (m + k for m in (1_373_653, 25_326_001) for k in range(-2, 3)):
            assert is_prime(n) == is_prime_trial(n), n

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


class TestSmallestPrimeFactorTable:
    """The table behind is_prime and factorize below _TABLE_BOUND."""

    def test_every_odd_entry_against_the_sieve_oracle(self):
        bound = arith._TABLE_BOUND
        table = np.asarray(arith._spf_table()).astype(np.int64)
        n = np.arange(1, bound, 2)
        prime = np.zeros(bound, dtype=bool)
        prime[primes_in(0, bound - 1)] = True
        assert table[0] == 0  # n = 1
        assert np.array_equal(table[1:] == 0, prime[n[1:]])
        # a composite's entry p is a prime divisor, and its cofactor has no
        # prime factor below p; by induction over n, p is the least
        p, m = table[table > 0], n[table > 0]
        assert prime[p].all() and (m % p == 0).all()
        cofactor = m // p
        least = table[cofactor >> 1]
        assert (np.where(least == 0, cofactor, least) >= p).all()

    def test_factorize_against_trial_division(self):
        bound = arith._TABLE_BOUND
        rng = random.Random(61)
        numbers = [rng.randrange(1, bound) for _ in range(20_000)]
        numbers += range(1, 3001)
        numbers += (bound + k for k in range(-64, 65))
        for n in numbers:
            assert dict(factorize(n)) == factor_trial(n), n

    def test_base_2_strong_pseudoprimes_read_composite(self):
        for n in (2047, 3277, 4033):
            assert strong_probable_prime(n, 2), n
            assert arith._spf_table()[n >> 1] != 0 and not is_prime(n), n
            assert dict(factorize(n)) == factor_trial(n), n


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
        # at 10^9 the base primes above 256 cross out by scatter on both sides
        for lo in (2, 1_000_003, 10**9 - segment // 2):
            for hi in (lo + segment - 1, lo + segment, lo + segment + 1):
                assert primes_between(lo, hi).tolist() == primes_in(lo, hi), (lo, hi)

    def test_base_primes_either_side_of_256(self):
        # 251 is the last base prime crossed out by a slice, 257 the first by scatter
        for p in (251, 257, 263, 269):
            for d in (-1, 0, 1):
                for lo in (2, p * p - 1000, p * p + d):
                    hi = p * p + d
                    assert primes_between(lo, hi).tolist() == primes_in(lo, hi), (lo, hi)
        for lo, hi in ((62_000, 70_000), (251 * 251, 257 * 257), (2, 257 * 257 + 300)):
            assert primes_between(lo, hi).tolist() == primes_in(lo, hi), (lo, hi)

    def test_large_base_primes_without_a_multiple(self):
        # most base primes up to 31 622 have no multiple in 100 numbers at 10^9,
        # and most up to 63 245 none in a segment of 7 numbers at 4e9
        for lo, width in ((10**9, 100), (4 * 10**9 + 7, 30), (10**9 + 9, 0)):
            assert primes_between(lo, lo + width).tolist() == primes_in(lo, lo + width)
        with mock.patch.object(arith, "_SIEVE_SEGMENT", 7):
            lo = 4 * 10**9 - 50
            assert primes_between(lo, lo + 100).tolist() == primes_in(lo, lo + 100)

    def test_base_primes_reach_the_root_and_no_further(self, monkeypatch):
        # primes_between looks up _base_primes as a module global; its first
        # call names the bit count it sieves below
        real, asked = arith._base_primes, []

        def spy(bits):
            asked.append(bits)
            return real(bits)

        monkeypatch.setattr(arith, "_base_primes", spy)
        for hi, bits in ((1 << 48, 24), ((1 << 48) - 1, 24), (4, 2), (24, 2), (25, 3)):
            asked.clear()
            primes_between(hi - 200, hi)
            assert asked[0] == bits, hi
        for hi in range(2, 18):
            for lo in range(hi + 1):
                assert primes_between(lo, hi).tolist() == primes_in(lo, hi), (lo, hi)
        for hi in ((1 << 32) - 1, (1 << 32) + 1):
            assert primes_between(hi - 1000, hi).tolist() == primes_in(hi - 1000, hi), hi

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
    the trial groups, the table and the trial bound, against the oracle."""

    def test_block_and_group_edges(self):
        primes = primes_in(0, 2000)
        # 32nd/33rd and 256th/257th: the first group's edge, and primes inside it
        edges = [primes[i] for i in (31, 32, 255, 256)]
        assert edges == [131, 137, 1619, 1621]
        for p, q in itertools.combinations_with_replacement(edges, 2):
            for cofactor in (1, 3, 65537, 4_294_967_311):
                _check_against_oracle(p * q * cofactor)

    def test_group_gcd_at_or_above_the_table_bound(self):
        # 1009 * 1013 * 1019 >= 2^20: the group's primes are scanned until the
        # gcd drops below the table bound, and the table splits the rest
        for n in (1009 * 1013 * 1019 * 65537, 3 * 1009 * 1013 * 1019 * 65537, 3 * 1021 * 1031,
                  1621 * 1627 * 1637, 3 * 5 * 7 * 11 * 13 * 17 * 4_294_967_311):
            _check_against_oracle(n)

    def test_cofactor_either_side_of_the_table_bound_after_a_hit(self):
        below, above = 1_048_573, 1_048_583  # the primes either side of 2^20
        assert below == max(primes_in(1_048_000, 1 << 20)) and above == _prime_from(1 << 20)
        for p in (below, above):
            for small in (3, 3**3 * 5 * 7**2, 1621 * 1627, 3 * 1621, 65521):
                _check_against_oracle(small * p)
        # the table's chain finishes a cofactor that a hit takes below 2^20
        _check_against_oracle(3**3 * 5 * 7**2 * 11 * 13 * 1621)

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

    def test_a_prime_cofactor_ends_trial_before_rho(self, monkeypatch):
        # after the hit in the first group, is_prime accepts the cofactor at
        # the second; trial never runs out of groups, and rho is never called
        monkeypatch.setattr(arith, "_rho_factors", None)  # a call would raise TypeError
        p = 999_999_999_989
        assert factorize(3 * 5 * 7 * p).factors == ((3, 1), (5, 1), (7, 1), (p, 1))

    def test_no_call_for_a_cofactor_below_the_next_least_square(self, monkeypatch):
        # the cofactor 1048583 left after 3 is above the table bound but below
        # 1621^2, the next group's least prime squared: it is prime unproven
        seen = self._count(monkeypatch)
        assert factorize(3 * 1_048_583).factors == ((3, 1), (1_048_583, 1))
        assert seen == [3 * 1_048_583]


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
        # import builds neither table; a factorize below _TABLE_BOUND builds
        # only the smallest-prime-factor table, one above it the trial groups
        # too
        code = (
            "import oddperfect, oddperfect.arith as a\n"
            "def built():\n"
            "    print(a._spf_table.cache_info().currsize, a._trial_groups.cache_info().currsize)\n"
            "built()\n"
            "oddperfect.factorize(91)\n"
            "built()\n"
            "oddperfect.factorize(a._TABLE_BOUND + 1)\n"
            "built()\n"
        )
        src = str(Path(arith.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.splitlines() == ["0 0", "1 0", "1 1"]


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
