"""Brute-force oracles, deliberately independent of the package internals.

Everything here recomputes results the slow, obvious way: divisor
enumeration for sigma, trial division for primality and factors, crossing
out the multiples of every d for a sieve, bisection for squareness.  Tests
freeze expected values through these functions so the fast paths in the
package are checked against a second opinion, never against themselves.
certificate_ledger and is_prime_by_witnesses keep the certificate's
per-summand formula and the primality test's per-witness loop as they stood
before the package rewrote them as one pass and one gcd screen.
The one exception is scan_shard_isqrt, the search kernel before its residue
sieve, which uses the package's square test and split.  It imports them when
called: perfbench/refs.py loads this module before the set-up probe times
the package's import.  divides, the exact divisibility test in Z[sqrt(d)]
behind the ideal-coprimality tests, takes the package's QuadInt values from
its caller and imports nothing.
"""
from __future__ import annotations

import math
from fractions import Fraction


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


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi]: cross out, in one bytearray of the interval, the
    multiples m >= d*d of every d in 2..isqrt(hi), prime or not.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    flags = bytearray([1]) * (hi - lo + 1)
    for d in range(2, math.isqrt(hi) + 1):
        start = max(d * d, -(-lo // d) * d) - lo
        flags[start::d] = bytes(len(range(start, len(flags), d)))
    return [lo + i for i, flag in enumerate(flags) if flag]


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
    """The trailing zeros of n != 0 in its binary digit string.

    Reading them off the string keeps this linear in the digits, where
    halving n once per zero would be quadratic for the 2-adic valuations of
    the certificate sums.
    """
    if n == 0:
        raise ValueError("v2 of 0 is +infinity")
    digits = bin(n)
    return len(digits) - len(digits.rstrip("0"))


def certificate_rational(q: int, alpha: int) -> tuple[tuple[tuple[int, int], ...], int, bool]:
    """S = 1 + sum_{i=2}^{(alpha+1)//4} t_i with every term an exact Fraction,

    t_i = C((alpha-3)/2, 2i-2)/(2i-1) * (1-q)^(i-1)/i.  Returns
    ((i, v2(t_i)) for each i, v2(S), S != 0); v2(S) is 0 when S is 0.
    """

    def v2(x: Fraction) -> int:
        return v2_int(x.numerator) - v2_int(x.denominator)

    s = Fraction(1)
    summands = []
    for i in range(2, (alpha + 1) // 4 + 1):
        term = Fraction(math.comb((alpha - 3) // 2, 2 * i - 2), 2 * i - 1) * Fraction(
            (1 - q) ** (i - 1), i
        )
        summands.append((i, v2(term)))
        s += term
    return tuple(summands), v2(s) if s else 0, s != 0


def certificate_ledger(q: int, alpha: int) -> list[tuple[int, int]]:
    """(i, v2 of summand i) of the 2-adic certificate, one formula per i.

    Kummer's carry count plus the linear term, with m = (alpha-3)/2 and
    t = v2(q-1): s2(2i-2) + s2(m-2i+2) - s2(m) + (i-1)*t - v2(i), s2 the
    binary digit sum; the certificate's per-summand formula before it was
    rewritten through s2(2i-2) = s2(i-1) and Legendre's formula for v2(i).
    v2(i) is read off i ^ (i-1) = 2^(v2(i)+1) - 1, which is faster per
    summand than v2_int's digit string.
    """
    t = v2_int(q - 1)
    m = (alpha - 3) // 2
    s2m = m.bit_count()
    return [
        (i, (2 * i - 2).bit_count() + (m - 2 * i + 2).bit_count() - s2m
            + (i - 1) * t - ((i ^ (i - 1)).bit_length() - 1))
        for i in range(2, (alpha + 1) // 4 + 1)
    ]


def strong_probable_prime(n: int, base: int) -> bool:
    """One Miller-Rabin round: is n a strong probable prime to this base?"""
    if base % n == 0:
        return True
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_by_witnesses(n: int, ladder, fallback) -> bool:
    """Trial division by the primes up to 37, then one strong-probable-prime
    round per witness of the first (limit, witnesses) rung of ladder with
    n < limit, or of fallback above them all.

    The package's test before its one-gcd screen, with the ladder passed in
    so that this module imports nothing from the package.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    witnesses = next((w for limit, w in ladder if n < limit), fallback)
    return all(strong_probable_prime(n, a) for a in witnesses)


def pascal_binomial(n: int, k: int) -> int:
    """Binomial by the Pascal-triangle recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[j] + row[j + 1] for j in range(len(row) - 1)] + [1]
    return row[k]


def divides(x, y, /) -> bool:
    """True iff y = x*z for some z in Z[sqrt(d)], for a QuadInt x and a
    QuadInt or int y.

    Multiplying y by the conjugate of x turns the 2x2 linear system for z
    into two rational-integer divisibility checks by norm(x).
    """
    if x.is_zero():
        raise ZeroDivisionError("division by the zero element")
    w = x.conjugate() * y
    n = x.norm()
    return w.a % n == 0 and w.b % n == 0


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


def scan_shard_isqrt(args: tuple[tuple[int, ...], str, int, int]) -> list[tuple]:
    """The hits (q, alpha, n, split) for args = (primes, equation value,
    alpha_min, alpha_max), in the order of the primes, then of alpha.

    The search kernel before its residue sieve: an exact sigma and square
    test for every (q, alpha).
    """
    from oddperfect.arith import isqrt_exact
    from oddperfect.search import Equation, split_solution

    primes, equation_value, alpha_min, alpha_max = args
    two_nsq = equation_value == Equation.TWO_N_SQUARED.value
    hits: list[tuple] = []
    for q in primes:
        sigma = 1
        power = 1
        for alpha in range(1, alpha_max + 1):
            power *= q
            sigma += power
            if alpha < alpha_min:
                continue
            if two_nsq:
                if sigma % 2:
                    # odd for every even alpha and for q = 2: never 2n^2
                    continue
                n = isqrt_exact(sigma // 2)
                if n is not None:
                    hits.append((q, alpha, n, split_solution(q, alpha, n)))
            else:
                n = isqrt_exact(sigma)
                if n is not None:
                    hits.append((q, alpha, n, None))
    return hits
