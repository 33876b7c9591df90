"""Independent references the benchmark checks every result against.

They come from the repository's brute-force oracles (tests/_oracles.py), from
theorems, or from code written here; none calls into oddperfect.  Each check
returns True when the result agrees.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

_ORACLES_PATH = Path(__file__).resolve().parent.parent / "tests" / "_oracles.py"
_spec = importlib.util.spec_from_file_location("_oracles", _ORACLES_PATH)
_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracles)

sigma_divisor_sum = _oracles.sigma_divisor_sum
sigma_prime_power_sum = _oracles.sigma_prime_power_sum
square_root_scan = _oracles.square_root_scan
v2_int = _oracles.v2_int

#: Every (q, alpha, n) with n^2 = sigma(q^alpha), q an odd prime, alpha >= 1.
#: alpha = 1 needs q + 1 = n^2, so q = (n-1)(n+1) = 3; alpha >= 2 is the
#: Nagell-Ljunggren equation, whose only solutions are 3^5 and 7^4.
NSQ_SOLUTIONS = frozenset({(3, 1, 2), (3, 4, 11), (7, 3, 20)})


def v2_binomial(n: int, k: int) -> int:
    """v2(C(n, k)) by Kummer: the carries when adding k and n - k in base 2."""
    return bin(k).count("1") + bin(n - k).count("1") - bin(n).count("1")


def summand_v2(q: int, alpha: int, i: int) -> int:
    """v2 of C((alpha-3)/2, 2i-2) / (2i-1) * (1-q)^(i-1) / i, in closed form."""
    return v2_binomial((alpha - 3) // 2, 2 * i - 2) + (i - 1) * v2_int(q - 1) - v2_int(i)


def check_chenluo(n: int, record) -> bool:
    """v2(sigma(n)) by divisor enumeration, and the ledger adds up to it."""
    ledger = record.s + sum(a + b for _, _, a, b in record.terms)
    return (
        record.s == len(record.terms)
        and ledger == record.v2_sigma
        and record.v2_sigma == v2_int(sigma_divisor_sum(n))
    )


def check_certificate(q: int, alpha: int, report) -> bool:
    """Every summand's v2 from Kummer, and the ultrametric verdict v2(S) = 0."""
    expected = tuple(
        (i, summand_v2(q, alpha, i)) for i in range(2, (alpha + 1) // 4 + 1)
    )
    return (
        (report.q, report.alpha) == (q, alpha)
        and tuple(report.summands) == expected
        and all(v2 >= 1 for _, v2 in expected)
        and report.v2_total == 0
        and report.passed is True
    )


def check_hit(equation: str, q: int, alpha: int, n: int) -> bool:
    """sigma(q^alpha) by summing powers, squareness by bisection."""
    total = sigma_prime_power_sum(q, alpha)
    if equation == "2nsq":
        return total % 2 == 0 and square_root_scan(total // 2) == n
    return square_root_scan(total) == n
