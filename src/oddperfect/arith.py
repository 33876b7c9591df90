"""Exact integer and rational arithmetic primitives.

Everything here is arbitrary precision and deterministic: Python ints for
naturals, ``fractions.Fraction`` for exact rationals.  No floating point.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FactorBoundError

# Strong-pseudoprime witness ladder: (limit, witnesses) means the witness set
# is a proven deterministic test for every n below the limit.
_MR_LADDER: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

#: Below this bound the primality answer is unconditionally proven.
DETERMINISTIC_PRIME_BOUND = _MR_LADDER[-1][0]

#: Witness policy above the deterministic bound: strong-probable-prime test
#: with the first 25 primes as bases.  Reports covering numbers at or above
#: DETERMINISTIC_PRIME_BOUND must say so.
PROBABLE_PRIME_WITNESSES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: factorize trial-divides by every prime up to this bound.
FACTOR_BOUND = 10**6


def _strong_probable_prime(n: int, base: int) -> bool:
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


def is_prime(n: int) -> bool:
    """Primality test, unconditionally correct below ~3.3e24.

    Below ``DETERMINISTIC_PRIME_BOUND`` the witness set in use is a proven
    deterministic one; above it the answer is a strong-probable-prime verdict
    with the ``PROBABLE_PRIME_WITNESSES`` bases.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for limit, witnesses in _MR_LADDER:
        if n < limit:
            break
    else:
        witnesses = PROBABLE_PRIME_WITNESSES
    return all(_strong_probable_prime(n, a) for a in witnesses)


def primality_is_proven(n: int) -> bool:
    """True when ``is_prime(n)`` is an unconditional result for this n."""
    return n < DETERMINISTIC_PRIME_BOUND


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, by a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray((1,)) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def first_odd_primes(count: int) -> list[int]:
    """The first ``count`` odd primes: 3, 5, 7, 11, ...

    >>> first_odd_primes(4)
    [3, 5, 7, 11]
    """
    limit = 32
    while True:
        ps = primes_upto(limit)[1:]
        if len(ps) >= count:
            return ps[:count]
        limit *= 4


@dataclass(frozen=True)
class Factorization:
    """A positive integer as an ordered product of prime powers.

    Primes are strictly ascending, exponents positive; every prime is
    re-checked at construction so a Factorization can be trusted blindly.
    The empty factorization is 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"primes must be strictly ascending, got {p} after {last}")
            if e < 1:
                raise ValueError(f"exponent for {p} must be positive, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


@functools.cache
def _trial_primes() -> tuple[int, ...]:
    # sieved on the first factorize call, not at import
    return tuple(primes_upto(FACTOR_BOUND))


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division up to ``FACTOR_BOUND``.

    The surviving cofactor is accepted if (probable) prime or provably prime
    because it is below FACTOR_BOUND**2; a composite cofactor beyond that
    raises FactorBoundError rather than producing a wrong answer.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: list[tuple[int, int]] = []
    c = n
    if c >= FACTOR_BOUND and is_prime(c):
        return Factorization(((c, 1),))
    for p in _trial_primes():
        if p * p > c:
            break
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            factors.append((p, e))
            # big prime cofactors are common; skip the rest of the scan
            if c >= FACTOR_BOUND and is_prime(c):
                factors.append((c, 1))
                c = 1
                break
    if c > 1:
        if c <= FACTOR_BOUND * FACTOR_BOUND or is_prime(c):
            # no factor <= FACTOR_BOUND and c <= FACTOR_BOUND^2 forces primality
            factors.append((c, 1))
        else:
            raise FactorBoundError(
                f"cofactor {c} of {n} is composite with no factor <= {FACTOR_BOUND}"
            )
    return Factorization(tuple(factors))


def sigma(f: Factorization) -> int:
    """Sum of divisors from a factorization: product of (p^(e+1)-1)/(p-1)."""
    total = 1
    for p, e in f:
        total *= sigma_prime_power(p, e)
    return total


def sigma_prime_power(q: int, a: int) -> int:
    """1 + q + ... + q^a for q >= 2, a >= 0, as an exact quotient.

    >>> sigma_prime_power(7, 3)
    400
    """
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")
    if a < 0:
        raise ValueError(f"exponent must be >= 0, got {a}")
    quotient, remainder = divmod(q ** (a + 1) - 1, q - 1)
    if remainder:
        raise ArithmeticError("geometric sum division left a remainder")
    return quotient


def isqrt_exact(n: int) -> int | None:
    """The integer r with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        raise ValueError(f"isqrt_exact requires n >= 0, got {n}")
    r = math.isqrt(n)
    return r if r * r == n else None


def vp(p: int, x: int | Fraction) -> int:
    """p-adic valuation of a nonzero integer or rational.

    For rationals this is vp(numerator) - vp(denominator); a valuation of 0
    means x is a p-adic unit.

    >>> vp(2, 12)
    2
    >>> vp(2, Fraction(3, 8))
    -3
    """
    if not is_prime(p):
        raise ValueError(f"valuation base must be prime, got {p}")
    if x == 0:
        raise ValueError("valuation of 0 is +infinity")
    if isinstance(x, Fraction):
        return _vp_int(p, x.numerator) - _vp_int(p, x.denominator)
    return _vp_int(p, int(x))


def _vp_int(p: int, n: int) -> int:
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 when k > n.

    Multiplicative formula with exact division at every step, which keeps
    intermediates no larger than the result.
    """
    if n < 0 or k < 0:
        raise ValueError("binomial requires non-negative arguments")
    if k > n:
        return 0
    k = min(k, n - k)
    result = 1
    for i in range(1, k + 1):
        result = result * (n - k + i) // i
    return result
