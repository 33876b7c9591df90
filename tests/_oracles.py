"""Brute-force oracles, deliberately independent of the package internals.

Everything here recomputes results the slow, obvious way: divisor
enumeration for sigma, trial division for primality and factors, bisection for
squareness.  Tests freeze expected values through these functions so the
fast paths in the package are checked against a second opinion, never
against themselves.
"""
from __future__ import annotations


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_trial(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, by dividing out every d = 2, 3, 4, ..."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def sigma_divisor_sum(n: int) -> int:
    """Sum every divisor found by scanning d with d*d <= n."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
        d += 1
    return total


def sigma_prime_power_sum(q: int, a: int) -> int:
    """Divisors of q^a are exactly the powers q^0..q^a; add them up."""
    total = 0
    power = 1
    for _ in range(a + 1):
        total += power
        power *= q
    return total


def square_root_scan(n: int) -> int | None:
    """r with r*r == n, by bisecting over candidate roots r <= n.

    Written without math.isqrt on purpose: the package's squareness test
    must not be checked against itself.
    """
    if n < 0:
        return None
    lo, hi = 0, 1
    while hi * hi < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * mid < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo * lo == n else None


def v2_int(n: int) -> int:
    n = abs(n)
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def pascal_binomial(n: int, k: int) -> int:
    """Binomial by the Pascal-triangle recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[j] + row[j + 1] for j in range(len(row) - 1)] + [1]
    return row[k]


def search_solutions(
    equation: str,
    q_min: int,
    q_max: int,
    alpha_min: int,
    alpha_max: int,
    residue_filter: int | None = None,
) -> list[tuple[int, int, int]]:
    """Naive double loop over (q, alpha); the dioph-search oracle.

    equation is "2nsq" for 2n^2 = sigma(q^alpha) or "nsq" for n^2 = ...
    """
    hits = []
    for q in range(q_min, q_max + 1):
        if not is_prime_trial(q):
            continue
        if residue_filter is not None and q % 4 != residue_filter:
            continue
        for alpha in range(alpha_min, alpha_max + 1):
            s = sigma_prime_power_sum(q, alpha)
            if equation == "2nsq":
                if s % 2:
                    continue
                n = square_root_scan(s // 2)
            else:
                n = square_root_scan(s)
            if n is not None:
                hits.append((q, alpha, n))
    return hits
