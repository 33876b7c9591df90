"""Exact integer arithmetic primitives.

Everything here is exact and deterministic: Python ints, and int64 arrays
for the prime sieve.  No floating point.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorBoundError

# Strong-pseudoprime witness ladder: (limit, witnesses) means the witness set
# is a proven deterministic test for every n below the limit.  Up to
# 341 550 071 728 321 the rungs come from C. Pomerance, J. L. Selfridge and
# S. S. Wagstaff, Math. Comp. 35 (1980), and G. Jaeschke, Math. Comp. 61
# (1993); the higher ones are later results.  No rung uses more witnesses
# than the one above it.
_MR_LADDER: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
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

#: Numbers per segment of primes_between.
_SIEVE_SEGMENT = 1 << 18

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

#: factorize trial-divides by the primes below this bound; a cofactor with no
#: such factor that is below the bound squared is therefore prime.
_TRIAL_BOUND = 1 << 16
#: Primes per trial block: one gcd with their product tests them all at once.
_TRIAL_BLOCK = 32
#: Blocks per trial group: one gcd of the cofactor with the group's product
#: tests its 256 primes; only a group that shares a factor with it is split
#: into blocks, and then against that small shared factor.
_TRIAL_GROUP = 8
#: Pollard-Brent rho gives up on a polynomial x^2 + k once its cycle length
#: would pass this cap (at most about 4 * _RHO_STEPS squarings per k).
_RHO_STEPS = 1 << 18
#: The constants k tried, in order; factorize raises FactorBoundError when
#: rho finds no factor with any of them.
_RHO_CONSTANTS = (1, 3, 5)
#: Squarings whose differences are multiplied together between two gcds.
_RHO_BATCH = 64


def is_prime(n: int) -> bool:
    """Primality test, unconditionally correct below ~3.3e24.

    One gcd screens n for the primes up to 37.  Any other n >= 41 faces the
    strong-probable-prime test: below ``DETERMINISTIC_PRIME_BOUND`` with a
    proven deterministic witness set, above it with the
    ``PROBABLE_PRIME_WITNESSES`` bases, and then the answer is only probable.
    """
    if n < 2 or math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    for limit, witnesses in _MR_LADDER:
        if n < limit:
            break
    else:
        witnesses = PROBABLE_PRIME_WITNESSES
    # n - 1 = 2^r * d with d odd; every witness in use is below n >= 41
    r = v2(n - 1)
    d = (n - 1) >> r
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primality_is_proven(n: int) -> bool:
    """True when ``is_prime(n)`` is an unconditional result for this n."""
    return n < DETERMINISTIC_PRIME_BOUND


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, as a list of ints."""
    return primes_between(2, limit).tolist()


def primes_between(lo: int, hi: int) -> np.ndarray:
    """All primes p with lo <= p <= hi, ascending, by a segmented sieve.

    The flags of one segment of _SIEVE_SEGMENT numbers are all it holds
    besides the primes up to sqrt(hi) and the result.

    >>> primes_between(90, 110).tolist()
    [97, 101, 103, 107, 109]
    """
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    base = primes_between(2, math.isqrt(hi))
    segments = []
    for start in range(lo, hi + 1, _SIEVE_SEGMENT):
        flags = np.ones(min(_SIEVE_SEGMENT, hi + 1 - start), dtype=bool)
        # each base prime p crosses out its multiples from max(p^2, start) on
        first = np.maximum(base * base, -(-start // base) * base) - start
        for p, i in zip(base.tolist(), first.tolist()):
            flags[i::p] = False
        segments.append(np.flatnonzero(flags).astype(np.int64) + start)
    return np.concatenate(segments)


@dataclass(frozen=True)
class Factorization:
    """A positive integer as an ordered product of prime powers.

    Primes are strictly ascending, exponents positive; the public constructor
    checks both and proves every prime with ``is_prime``, so a Factorization
    can be trusted blindly.  ``factorize`` proves each prime as it finds it
    and builds its result without the second check.  The empty factorization
    is 1.
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


def _proven(factors: list[tuple[int, int]]) -> Factorization:
    """A Factorization of ascending prime powers whose primes are proven."""
    f = object.__new__(Factorization)
    object.__setattr__(f, "factors", tuple(factors))
    return f


@functools.cache
def _trial_blocks() -> tuple[tuple[int, int, tuple[tuple[int, tuple[int, ...]], ...]], ...]:
    """The trial primes as groups of _TRIAL_GROUP blocks of _TRIAL_BLOCK.

    Each group is (least prime squared, product, blocks) and each block
    (product, primes).  Built on the first factorize call, not at import.
    """
    primes = primes_upto(_TRIAL_BOUND - 1)
    blocks = [
        (math.prod(primes[i : i + _TRIAL_BLOCK]), tuple(primes[i : i + _TRIAL_BLOCK]))
        for i in range(0, len(primes), _TRIAL_BLOCK)
    ]
    groups = (blocks[i : i + _TRIAL_GROUP] for i in range(0, len(blocks), _TRIAL_GROUP))
    return tuple(
        (group[0][1][0] ** 2, math.prod(product for product, _ in group), tuple(group))
        for group in groups
    )


def factorize(n: int) -> Factorization:
    """Factor n >= 1: grouped trial division, then Pollard-Brent rho.

    Primes below ``_TRIAL_BOUND`` are tried 256 at a time with one gcd per
    group; only a group that shares a factor with the cofactor is split into
    blocks of 32, each tested against that shared factor.  Trial stops early
    once the cofactor is prime.  A cofactor left with no factor below the
    bound is prime when it is below the bound squared or passes ``is_prime``;
    otherwise rho splits it.  Every prime is proven exactly once on the way,
    so the result skips the constructor's re-check.  Only when rho runs past
    its step cap with every constant does FactorBoundError replace a wrong
    answer.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: list[tuple[int, int]] = []
    c = n
    composite = False  # is_prime has rejected this c
    for least_square, product, blocks in _trial_blocks():
        if c < least_square:
            break  # c is 1 or a prime: no factor up to its square root
        # big prime cofactors are common; skip the remaining groups
        if not composite and c >= _TRIAL_BOUND:
            if is_prime(c):
                break
            composite = True
        g = math.gcd(c, product)
        if g == 1:
            continue
        for block_product, block in blocks:
            h = math.gcd(g, block_product)
            if h == 1:
                continue
            g //= h
            for p in block:
                if h % p == 0:
                    c //= p
                    e = 1
                    while c % p == 0:
                        c //= p
                        e += 1
                    factors.append((p, e))  # a trial prime comes from the sieve
                    h //= p
                    if h == 1:
                        break
            if g == 1:
                break
        composite = False
    else:
        # no prime below the bound divides c
        if c >= _TRIAL_BOUND**2 and (composite or not is_prime(c)):
            factors += _rho_factors(c, n)
            c = 1
    # c > 1 has no factor up to its square root, or is_prime has just accepted it
    if c > 1:
        factors.append((c, 1))
    return _proven(factors)


def _rho_factors(c: int, n: int) -> list[tuple[int, int]]:
    """The prime powers of a composite c with no factor below the trial bound."""
    primes: dict[int, int] = {}
    pending = [c]
    while pending:
        m = pending.pop()
        # m has no factor below the bound: prime below its square, else proven
        if m < _TRIAL_BOUND**2 or is_prime(m):
            primes[m] = primes.get(m, 0) + 1
            continue
        for k in _RHO_CONSTANTS:
            d = _brent(m, k)
            if d is not None:
                pending += (d, m // d)
                break
        else:
            raise FactorBoundError(
                f"cofactor {m} of {n} is composite and Pollard-Brent rho found no "
                f"factor within its step cap {_RHO_STEPS} for x^2 + k, k in {_RHO_CONSTANTS}"
            )
    return sorted(primes.items())


def _brent(m: int, k: int) -> int | None:
    """A proper factor of composite m from Brent's cycle search on x^2 + k.

    R. P. Brent, "An improved Monte Carlo factorization algorithm", BIT 20
    (1980).  None when the cycle length passes ``_RHO_STEPS`` or the walk
    closes on m itself.
    """
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        if r > _RHO_STEPS:
            return None
        x = y
        for _ in range(r):
            y = (y * y + k) % m
        done = 0
        while done < r and g == 1:
            ys = y
            for _ in range(min(_RHO_BATCH, r - done)):
                y = (y * y + k) % m
                q = q * (x - y) % m
            g = math.gcd(q, m)
            done += _RHO_BATCH
        r *= 2
    if g == m:
        # the batch overshot; walk it again one gcd at a time
        g = 1
        while g == 1:
            ys = (ys * ys + k) % m
            g = math.gcd(x - ys, m)
    return g if g != m else None


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


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer: the exponent of 2 in n.

    >>> v2(-12)
    2
    """
    if n == 0:
        raise ValueError("v2 of 0 is +infinity")
    return (n & -n).bit_length() - 1
