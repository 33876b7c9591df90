"""Tests for abundancy, multiperfect enumeration, and structure classifiers."""
from __future__ import annotations

import json
import random

import pytest

from oddperfect import arith, classify
from oddperfect.arith import factorize
from oddperfect.classify import (
    abundancy,
    chenluo_check,
    classify_report,
    dhp_decompose,
    dhp_scan,
    enumerate_multiperfect,
    euler_form,
    odd_multiperfect_upto,
    omega_bound_product,
    sigma_table,
)
from oddperfect.search import canonical_json
from _oracles import sigma_divisor_sum, v2_int


class TestAbundancy:
    def test_perfect_and_triperfect(self):
        assert abundancy(6) == (12, 2)
        assert abundancy(672) == (2016, 3)

    def test_deficient_number(self):
        assert abundancy(10) == (18, None)

    def test_unit(self):
        assert abundancy(1) == (1, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            abundancy(0)


class TestSigmaTable:
    def test_matches_divisor_sum(self):
        table = sigma_table(3000)
        for n in range(1, 3001):
            assert int(table[n]) == sigma_divisor_sum(n), n

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            sigma_table(0)


class TestEnumerateMultiperfect:
    def test_to_one_thousand(self):
        assert enumerate_multiperfect(1000) == [
            (1, 1), (6, 2), (28, 2), (120, 3), (496, 2), (672, 3),
        ]

    def test_tiny_limit(self):
        assert enumerate_multiperfect(5) == [(1, 1)]

    def test_to_one_million(self):
        assert enumerate_multiperfect(10**6) == [
            (1, 1), (6, 2), (28, 2), (120, 3), (496, 2), (672, 3),
            (8128, 2), (30240, 4), (32760, 4), (523776, 3),
        ]


class TestOddSegmentedScan:
    def test_agrees_with_full_enumeration(self):
        odd_full = [(n, k) for n, k in enumerate_multiperfect(10**5) if n % 2]
        assert odd_multiperfect_upto(10**5) == odd_full == [(1, 1)]

    def test_segment_size_does_not_matter(self, monkeypatch):
        full, odd = enumerate_multiperfect(5000), odd_multiperfect_upto(5000)
        monkeypatch.setattr(classify, "_SEGMENT", 64)
        assert enumerate_multiperfect(5000) == full
        assert odd_multiperfect_upto(5000) == odd

    @pytest.mark.parametrize("step", [1, 2])
    def test_segment_values_match_divisor_sums(self, step):
        lo, hi = 1234, 3457  # deliberately unaligned ends
        seg = classify._sigma_segment(lo, hi, step)
        for n in range(lo, hi):
            if step == 1 or n % 2:
                assert int(seg[n - lo]) == sigma_divisor_sum(n), n

    def test_no_odd_multiperfect_below_hundred_million(self):
        # emptiness scan, not a theorem: no odd n <= 10^8 except 1 has
        # integer abundancy
        assert odd_multiperfect_upto(10**8) == [(1, 1)]


class TestDhpDecompose:
    def test_triperfect_672(self):
        assert dhp_decompose(672) == (21, 2, 5)

    def test_even_perfect_28(self):
        assert dhp_decompose(28) == (4, 7, 1)

    def test_triperfect_120_has_none(self):
        assert dhp_decompose(120) is None

    def test_smallest_perfect(self):
        assert dhp_decompose(6) == (2, 3, 1)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            dhp_decompose(1)

    def test_decomposition_invariants(self):
        for n in (6, 28, 496, 672, 8128):
            m, q, alpha = dhp_decompose(n)
            assert m * q**alpha == n
            assert m % q != 0
            assert sigma_divisor_sum(m) == q**alpha

    def test_every_even_perfect_decomposes(self):
        # 2^(p-1) (2^p - 1) for p in 2, 3, 5, 7, 13: all below 10^8
        for p in (2, 3, 5, 7, 13):
            n = 2 ** (p - 1) * (2**p - 1)
            assert dhp_decompose(n) is not None, n


class TestDhpScan:
    def test_desk_scale(self):
        assert dhp_scan(100) == [6, 28]
        assert dhp_scan(5) == []

    def test_to_one_million(self):
        assert dhp_scan(10**6) == [6, 28, 496, 672, 8128]


class TestEulerForm:
    def test_constructed_instance(self):
        assert euler_form(45) == (3, 5, 1)

    def test_all_even_exponents(self):
        assert euler_form(225) is None

    def test_wrong_residue(self):
        assert euler_form(63) is None  # 7 = 3 mod 4

    def test_unit(self):
        assert euler_form(1) is None

    def test_even_input_rejected(self):
        with pytest.raises(ValueError):
            euler_form(10)

    def test_round_trip(self):
        rng = random.Random(13)
        qs = [5, 13, 17, 29]
        for _ in range(50):
            q = rng.choice(qs)
            alpha = rng.choice([1, 5, 9])
            n0 = rng.choice([1, 3, 7, 9, 21, 33])
            if n0 % q == 0:
                continue
            assert euler_form(n0**2 * q**alpha) == (n0, q, alpha)


class TestChenLuo:
    def test_single_prime(self):
        record = chenluo_check(3)
        assert record.v2_sigma == 2
        assert record.s == 1
        assert record.terms == ((3, 1, 1, 0),)

    def test_even_exponent_contributes_nothing(self):
        record = chenluo_check(9)
        assert record.v2_sigma == 0
        assert record.s == 0
        assert record.terms == ()

    def test_two_primes(self):
        record = chenluo_check(15)
        assert record.v2_sigma == 3
        assert record.s == 2

    def test_even_input_rejected(self):
        with pytest.raises(ValueError):
            chenluo_check(8)

    def test_budget_equals_direct_valuation(self):
        rng = random.Random(41)
        for _ in range(500):
            n = rng.randrange(1, 10**7) * 2 + 1
            record = chenluo_check(n)
            assert record.v2_sigma == v2_int(sigma_divisor_sum(n))
            assert record.s + sum(t[2] + t[3] for t in record.terms) == record.v2_sigma

    def test_never_raises_on_small_sweep(self):
        for n in range(3, 30_001, 2):
            chenluo_check(n)  # ConsistencyError here would fail the test

    def test_no_primality_tests_beyond_factorize(self, monkeypatch):
        # the ledger's 2-adic valuations must not re-prove their base 2
        n = 3**5 * 7 * 11**3
        is_prime = arith.is_prime
        calls = []

        def counted(m):
            calls.append(m)
            return is_prime(m)

        factorize(n)  # build the trial-division table outside the count
        monkeypatch.setattr(arith, "is_prime", counted)
        factorize(n)
        expected = len(calls)
        calls.clear()
        chenluo_check(n)
        assert len(calls) == expected

    def test_json_round_trip(self):
        data = chenluo_check(15).as_dict()
        assert data["s"] == 2
        assert {t["p"] for t in data["terms"]} == {3, 5}
        json.dumps(data)


class TestOmegaBoundProduct:
    def test_first_eight_odd_primes(self):
        assert omega_bound_product(8) == 36163554870725919

    def test_small_counts(self):
        assert omega_bound_product(1) == 13  # sigma(3^2)
        assert omega_bound_product(2) == 13 * 31

    def test_strictly_increasing(self):
        values = [omega_bound_product(c) for c in range(1, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            omega_bound_product(0)
        with pytest.raises(ValueError):
            omega_bound_product(1001)


class TestClassifyReport:
    def test_triperfect_report(self):
        report = classify_report(672)
        assert report.k == 3
        assert report.dhp == (21, 2, 5)
        assert report.euler_form is None
        assert report.chenluo is None  # even n

    def test_odd_report(self):
        report = classify_report(45)
        assert report.k is None
        assert report.euler_form == (3, 5, 1)
        assert report.chenluo is not None

    def test_unit_report(self):
        report = classify_report(1)
        assert report.k == 1
        assert report.dhp is None and report.chenluo is None

    def test_json_shape(self):
        data = json.loads(canonical_json(classify_report(672).as_dict()))
        assert set(data) == {"n", "sigma", "k", "euler_form", "dhp", "chenluo"}
        assert data["dhp"] == {"m": 21, "q": 2, "alpha": 5}

    def test_factorizes_n_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(classify, "factorize", counted)
        for n in (3 * 999999999989, 672, 45, 1):
            calls.clear()
            classify_report(n)
            assert calls == [n]

    def test_probable_prime_factor_recorded(self):
        # 2^89 - 1 and 3 * (2^89 - 1) rest on a strong-probable-prime verdict
        for n in (2**89 - 1, 3 * (2**89 - 1)):
            assert classify_report(n).as_dict()["primality"] == "probable"
        assert "primality" not in classify_report(2**61 - 1).as_dict()
