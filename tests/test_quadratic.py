"""Tests for the quadratic-order arithmetic and proof certificates."""
from __future__ import annotations

import json
import random

import pytest

import oddperfect.quadratic
from oddperfect.arith import primes_upto
from oddperfect.errors import ConsistencyError
from oddperfect.quadratic import (
    QuadInt,
    identity_sweep,
    ratio_identity_check,
    trace_expansion,
    two_adic_certificate,
)
from oddperfect.search import canonical_json
from _oracles import certificate_ledger, certificate_rational, divides, is_prime_trial


class TestQuadIntRing:
    def test_conjugate_product_is_q(self):
        # (1 + sqrt(d))(1 - sqrt(d)) = 1 - d = q for d = 1 - q
        z = QuadInt(-12, 1, 1) * QuadInt(-12, 1, -1)
        assert z == QuadInt(-12, 13, 0)

    def test_multiplication_by_hand(self):
        assert QuadInt(-4, 1, 2) * QuadInt(-4, 3, 1) == QuadInt(-4, -5, 7)

    def test_one_is_identity(self):
        x = QuadInt(-8, 5, -3)
        assert x * QuadInt(-8, 1, 0) == x
        assert x * 1 == x

    def test_int_coercion(self):
        x = QuadInt(-4, 2, 3)
        assert 2 * x == x * 2 == QuadInt(-4, 4, 6)
        assert 1 + x == QuadInt(-4, 3, 3)
        assert x - 2 == QuadInt(-4, 0, 3)
        assert 7 - x == QuadInt(-4, 5, -3)
        assert -x == QuadInt(-4, -2, -3)

    def test_mismatched_parameter_errors(self):
        with pytest.raises(ValueError):
            QuadInt(-4, 1, 0) + QuadInt(-8, 1, 0)
        with pytest.raises(ValueError):
            QuadInt(-4, 1, 0) * QuadInt(-12, 1, 0)

    def test_nonnegative_d_rejected(self):
        with pytest.raises(ValueError):
            QuadInt(4, 1, 1)
        with pytest.raises(ValueError):
            QuadInt(0, 1, 1)

    def test_norm_examples(self):
        assert QuadInt(-12, 1, 1).norm() == 13
        assert QuadInt(-4, 1, 1).norm() == 5
        assert QuadInt(-4, 0, 0).norm() == 0

    def test_norm_multiplicative(self):
        rng = random.Random(31)
        for d in (-4, -8, -12, -16, -100):
            for _ in range(100):
                x = QuadInt(d, rng.randrange(-99, 100), rng.randrange(-99, 100))
                y = QuadInt(d, rng.randrange(-99, 100), rng.randrange(-99, 100))
                assert (x * y).norm() == x.norm() * y.norm()

    def test_norm_nonnegative(self):
        rng = random.Random(17)
        for _ in range(200):
            x = QuadInt(-rng.randrange(1, 500), rng.randrange(-50, 50), rng.randrange(-50, 50))
            assert x.norm() >= 0

    def test_trace_examples(self):
        assert QuadInt(-12, 1, 1).trace() == 2
        assert (QuadInt(-4, 1, 1) ** 2).trace() == -6
        x = QuadInt(-8, 3, 7)
        assert x.conjugate().trace() == x.trace()

    def test_pow_examples(self):
        one_plus = QuadInt(-12, 1, 1)
        assert one_plus**0 == QuadInt(-12, 1, 0)
        assert one_plus**2 == QuadInt(-12, -11, 2)
        assert (one_plus**5).norm() == 371293  # 13^5

    def test_pow_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            QuadInt(-4, 1, 1) ** -1

    def test_conjugate_product_matches_split_form(self):
        # (1 + b sqrt(d))(1 - b sqrt(d)) = 1 - d b^2 = 1 + (q-1) n1^2
        for q in (5, 13, 29):
            d = 1 - q
            for n1 in range(1, 9):
                z = QuadInt(d, 1, n1) * QuadInt(d, 1, -n1)
                assert z == QuadInt(d, 1 + (q - 1) * n1**2, 0)


class TestDivides:
    def test_rational_integer_divisor(self):
        q = QuadInt(-12, 13, 0)
        assert divides(q, QuadInt(-12, 13, 13))
        assert not divides(q, QuadInt(-12, 1, 1))

    def test_constructed_multiple(self):
        x = QuadInt(-12, 1, 1)
        assert divides(x, x * QuadInt(-12, 2, 3))

    def test_divides_accepts_int_argument(self):
        assert divides(QuadInt(-12, 1, 1), 13)  # norm(1 + sqrt(-12)) = 13

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divides(QuadInt(-4, 0, 0), QuadInt(-4, 2, 0))

    def test_q_never_divides_powers_of_one_plus_root(self):
        # primes above q are not divisible by q itself
        for q in primes_upto(60)[1:]:
            d = 1 - q
            x = QuadInt(d, 1, 1)
            power = QuadInt(d, 1, 0)
            for _ in range(20):
                power = power * x
                assert not divides(QuadInt(d, q, 0), power)


class TestTraceExpansion:
    def test_base_cases(self):
        assert trace_expansion(1, -999) == 2
        assert trace_expansion(2, -4) == 2 + 2 * (-4)

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            trace_expansion(0, -4)

    def test_matches_power_trace_for_both_signs(self):
        for q in primes_upto(200):
            d = 1 - q
            if d >= 0:
                continue
            plus, minus = QuadInt(d, 1, 1), QuadInt(d, 1, -1)
            for m in range(1, 61):
                expected = trace_expansion(m, d)
                assert (plus**m).trace() == expected, (q, m)
                assert (minus**m).trace() == expected, (q, m)


class TestRatioIdentity:
    def test_hand_checked_cases(self):
        assert ratio_identity_check(4, 2)  # both sides 1/6
        assert ratio_identity_check(6, 2)  # both sides 1
        assert ratio_identity_check(10, 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ratio_identity_check(3, 2)
        with pytest.raises(ValueError):
            ratio_identity_check(10, 1)
        with pytest.raises(ValueError):
            ratio_identity_check(10, 6)

    def test_full_sweep_to_200(self):
        for m in range(4, 201):
            for i in range(2, m // 2 + 1):
                assert ratio_identity_check(m, i), (m, i)


class TestIdentitySweep:
    def test_counts_every_pair(self):
        # 4 primes <= 10 times m = 1..4; m = 4..8 has 1+1+2+2+3 pairs (m, i)
        assert identity_sweep(m_max=4, q_max=10, ratio_m_max=8) == {
            "trace_expansion": (16, 0),
            "ratio_identity": (9, 0),
        }

    def test_counts_failures(self, monkeypatch):
        # a trace 2a is even, so an odd closed form fails every pair
        monkeypatch.setattr(oddperfect.quadratic, "trace_expansion", lambda m, d: 1)
        assert identity_sweep(m_max=4, q_max=10, ratio_m_max=3) == {
            "trace_expansion": (16, 16),
            "ratio_identity": (0, 0),
        }

    @pytest.mark.parametrize("bounds", [(-1, 10, 8), (4, -1, 8), (4, 10, -1)])
    def test_negative_bound_rejected(self, bounds):
        with pytest.raises(ValueError):
            identity_sweep(*bounds)


class TestTwoAdicCertificate:
    def test_empty_sum_case(self):
        report = two_adic_certificate(13, 3)
        assert report.summands == ()
        assert report.v2_total == 0
        assert report.passed

    def test_single_term_case(self):
        # S = 1 + (1/3)(-12/2) = -1
        report = two_adic_certificate(13, 7)
        assert [i for i, _ in report.summands] == [2]
        assert report.v2_total == 0
        assert report.passed

    def test_two_term_case(self):
        report = two_adic_certificate(5, 11)
        assert report.passed
        assert all(v2 >= 1 for _, v2 in report.summands)
        assert report.v2_total == 0

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            two_adic_certificate(15, 5)  # not prime
        with pytest.raises(ValueError):
            two_adic_certificate(7, 5)  # 7 = 3 mod 4
        with pytest.raises(ValueError):
            two_adic_certificate(13, 4)  # even alpha
        with pytest.raises(ValueError):
            two_adic_certificate(13, 1)  # alpha < 3

    def test_json_shape(self):
        report = two_adic_certificate(5, 11)
        data = json.loads(canonical_json(report.as_dict()))
        assert set(data) == {"q", "alpha", "summands", "v2_total", "passed"}
        assert data["q"] == 5 and data["alpha"] == 11
        assert all(set(s) == {"i", "v2"} for s in data["summands"])

    def test_moderate_sweep(self):
        # the acceptance suite runs the full 10^4 x 101 grid; spot-check here
        for q in (5, 13, 17, 97, 101, 9973):
            for alpha in range(3, 52, 2):
                assert two_adic_certificate(q, alpha).passed, (q, alpha)

    def test_low_summand_raises(self, monkeypatch):
        # with v2 forced to 0, t = 0 and q=5 alpha=7 has the single summand
        # C(2,2)/(3*2), whose valuation then reads -1
        monkeypatch.setattr(oddperfect.quadratic, "v2", lambda n: 0)
        with pytest.raises(ConsistencyError):
            two_adic_certificate(5, 7)

    def test_probable_prime_policy_recorded(self):
        # beyond the deterministic primality bound the report must say the
        # verdict is only probable; below it, no such field appears
        q = 10**25 + 13  # strong probable prime, 1 mod 4
        assert two_adic_certificate(q, 7).as_dict()["primality"] == "probable"
        assert "primality" not in two_adic_certificate(13, 7).as_dict()


def _smallest_prime_with_v2(t):
    """The least prime q with v2(q - 1) = t, i.e. q = 2^t (mod 2^(t+1))."""
    q = (1 << t) + 1
    while not is_prime_trial(q):
        q += 1 << (t + 1)
    return q


_ORACLE_GRIDS = {
    "criterion-06": [
        (q, alpha) for q in primes_upto(10_000) if q % 4 == 1 for alpha in range(3, 102, 2)
    ],
    "every-t": [
        (_smallest_prime_with_v2(t), alpha) for t in range(2, 17) for alpha in range(3, 102, 2)
    ],
    "large-alpha": [(q, alpha) for q in (5, 65537) for alpha in (1001, 4001)],
}


def test_certificate_matches_per_summand_formula():
    # the least prime of each t = v2(q-1) up to 24, every odd alpha up to 2001
    for t in range(2, 25):
        q = _smallest_prime_with_v2(t)
        for alpha in range(3, 2002, 2):
            assert list(two_adic_certificate(q, alpha).summands) == certificate_ledger(q, alpha)


@pytest.mark.parametrize("grid", list(_ORACLE_GRIDS))
def test_certificate_matches_exact_sum(grid):
    # the closed-form ledger against the exact Fraction evaluation of S
    for q, alpha in _ORACLE_GRIDS[grid]:
        report = two_adic_certificate(q, alpha)
        summands, v2_total, nonzero = certificate_rational(q, alpha)
        assert report.summands == summands, (q, alpha)
        assert v2_total == 0 and nonzero, (q, alpha)
        assert report.v2_total == 0 and report.passed, (q, alpha)
