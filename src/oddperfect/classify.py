"""Classifying integers against structural divisor-sum theorems.

Covers integer abundancy (k-perfect numbers), the decomposition
N = m * q^alpha with sigma(m) = q^alpha, the Euler form of odd perfect
candidates, 2-adic valuation bookkeeping for sigma, and the product
sigma(3^2)*sigma(5^2)*... used to bound the special prime's contribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    Factorization,
    _vp_int,
    factorize,
    first_odd_primes,
    isqrt_exact,
    primality_is_proven,
    sigma,
    sigma_prime_power,
)
from .errors import ConsistencyError


def abundancy(n: int) -> tuple[int, int | None]:
    """(sigma(n), k) with k = sigma(n)/n when that ratio is an integer.

    >>> abundancy(6)
    (12, 2)
    >>> abundancy(10)
    (18, None)
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _abundancy(n, factorize(n))


def _abundancy(n: int, f: Factorization) -> tuple[int, int | None]:
    s = sigma(f)
    k, rem = divmod(s, n)
    return s, (k if rem == 0 else None)


#: n per sieve segment of the multiperfect scans: bounds their memory at a few
#: hundred MB whatever the limit.  Even, so every segment starts at an odd n.
_SEGMENT = 1 << 22


def _sigma_segment(lo: int, hi: int, step: int) -> np.ndarray:
    """sigma(n) at index n - lo for n in [lo, hi), by divisor-pair stamping.

    Each d <= sqrt(hi - 1) stamps itself on its multiples d*m with m >= d
    (small side) and stamps the cofactor m > d on the same cells (large side),
    so the loop is sqrt(hi) numpy slice-adds instead of a scan.  step = 1
    covers every n; step = 2 stamps only odd d and odd cofactors, which is
    every divisor of an odd n at half the work, and leaves even-n entries
    meaningless.
    """
    t = np.zeros(hi - lo, dtype=np.int64)
    top = hi - 1
    for d in range(1, math.isqrt(top) + 1, step):
        m_hi = top // d
        m0 = max(d, -(-lo // d))
        m0 += (m0 + 1) % step  # step 2: the first odd cofactor
        t[d * m0 - lo : d * m_hi - lo + 1 : step * d] += d
        m1 = max(m0, d + step)
        t[d * m1 - lo : d * m_hi - lo + 1 : step * d] += np.arange(
            m1, m_hi + 1, step, dtype=np.int64
        )
    return t


def sigma_table(limit: int) -> np.ndarray:
    """sigma(n) for every n <= limit, as an int64 array (index 0 holds 0)."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return _sigma_segment(0, limit + 1, 1)


def _multiperfect(limit: int, step: int) -> list[tuple[int, int]]:
    """(n, k) with sigma(n) = k*n for n = 1, 1 + step, ... <= limit, ascending."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    out: list[tuple[int, int]] = []
    for lo in range(1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        s_vals = _sigma_segment(lo, hi, step)[::step]
        n_vals = np.arange(lo, hi, step, dtype=np.int64)
        for i in np.nonzero(s_vals % n_vals == 0)[0]:
            out.append((int(n_vals[i]), int(s_vals[i] // n_vals[i])))
    return out


def enumerate_multiperfect(limit: int) -> list[tuple[int, int]]:
    """All (n, k) with n <= limit and sigma(n) = k*n, ascending in n."""
    return _multiperfect(limit, 1)


def odd_multiperfect_upto(limit: int) -> list[tuple[int, int]]:
    """All odd (n, k) with n <= limit and sigma(n) = k*n, ascending in n.

    Exists to run the desk-scale emptiness scan (no odd multiperfect number
    except 1) at twice the speed of the all-n scan.
    """
    return _multiperfect(limit, 2)


def dhp_decompose(n: int) -> tuple[int, int, int] | None:
    """Write n = m * q^alpha with sigma(m) = q^alpha and q not dividing m.

    Scans the unitary prime-power divisors q^alpha of n in ascending q and
    returns the first (m, q, alpha) that works, or None.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _dhp_decompose(n, factorize(n))


def _dhp_decompose(n: int, f: Factorization) -> tuple[int, int, int] | None:
    for i, (q, alpha) in enumerate(f):
        # m's factorization is n's without q^alpha (m = 1 fails: sigma(1) = 1)
        if sigma(Factorization(f.factors[:i] + f.factors[i + 1 :])) == q**alpha:
            return n // q**alpha, q, alpha
    return None


def dhp_scan(limit: int) -> list[int]:
    """Multiperfect n <= limit admitting the sigma(m) = q^alpha decomposition.

    The structural theorem says this list is exactly the even perfect numbers
    plus 672, so the scan doubles as a desk-scale check of that statement.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    return [
        n for n, _k in enumerate_multiperfect(limit) if n >= 2 and dhp_decompose(n)
    ]


def euler_form(n: int) -> tuple[int, int, int] | None:
    """Recognize n = n0^2 * q^alpha with q prime to n0 and q = alpha = 1 mod 4.

    This is the shape every odd perfect number must take; present iff exactly
    one prime in n has odd exponent and that prime and its exponent are both
    1 mod 4.  Returns (n0, q, alpha) or None.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    return _euler_form(n, factorize(n))


def _euler_form(n: int, f: Factorization) -> tuple[int, int, int] | None:
    odd_exp = [(p, e) for p, e in f if e % 2]
    if len(odd_exp) != 1:
        return None
    q, alpha = odd_exp[0]
    if q % 4 != 1 or alpha % 4 != 1:
        return None
    n0 = isqrt_exact(n // q**alpha)
    if n0 is None:
        raise ConsistencyError(f"cofactor of {n} by {q}^{alpha} is not a square")
    return n0, q, alpha


@dataclass(frozen=True)
class ChenLuoRecord:
    """2-adic budget for sigma(n) of odd n.

    For each odd-exponent prime p with exponent a, the lifting-the-exponent
    identity gives v2(sigma(p^a)) = v2(p+1) + v2(a+1) - 1; writing
    a_i = v2(p_i+1) - 1 and b_i = v2(alpha_i+1) - 1 the total is
    v2(sigma(n)) = s + sum(a_i) + sum(b_i) with s the count of such primes.
    """

    s: int
    terms: tuple[tuple[int, int, int, int], ...]  # (p, alpha, a, b)
    v2_sigma: int

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "terms": [
                {"p": p, "alpha": alpha, "a": a, "b": b}
                for p, alpha, a, b in self.terms
            ],
            "v2_sigma": self.v2_sigma,
        }


def chenluo_check(n: int) -> ChenLuoRecord:
    """Verify the 2-adic bookkeeping of sigma(n) for odd n >= 3.

    The per-prime ledger must reproduce the directly computed v2(sigma(n));
    a mismatch would break the lifting-the-exponent identity and raises a
    consistency error (it never should).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    return _chenluo_check(n, factorize(n))


def _chenluo_check(n: int, f: Factorization) -> ChenLuoRecord:
    terms = tuple(
        (p, e, _vp_int(2, p + 1) - 1, _vp_int(2, e + 1) - 1) for p, e in f if e % 2
    )
    s = len(terms)
    budget = s + sum(a for _, _, a, _ in terms) + sum(b for _, _, _, b in terms)
    direct = _vp_int(2, sigma(f))
    if budget != direct:
        raise ConsistencyError(
            f"valuation ledger {budget} != direct v2(sigma({n})) = {direct}"
        )
    return ChenLuoRecord(s=s, terms=terms, v2_sigma=direct)


def omega_bound_product(count: int) -> int:
    """Product of sigma(p^2) over the first `count` odd primes.

    Lower-bounds sigma(n^2) for squarefree-kernel reasons when n has at
    least `count` distinct odd prime factors; with count = 8 this is the
    constant that rules out alpha = 1 below the published omega bound.
    """
    if not 1 <= count <= 1000:
        raise ValueError(f"count must be in [1, 1000], got {count}")
    product = 1
    for p in first_odd_primes(count):
        product *= sigma_prime_power(p, 2)
    return product


@dataclass(frozen=True)
class ClassifyReport:
    """Everything this module can say about one integer."""

    n: int
    sigma: int
    k: int | None
    euler_form: tuple[int, int, int] | None
    dhp: tuple[int, int, int] | None
    chenluo: ChenLuoRecord | None
    primality_proven: bool = True  # False: a prime factor only passed a probable-prime test

    def as_dict(self) -> dict:
        def triple(value, names):
            return dict(zip(names, value)) if value is not None else None

        data = {
            "n": self.n,
            "sigma": self.sigma,
            "k": self.k,
            "euler_form": triple(self.euler_form, ("n0", "q", "alpha")),
            "dhp": triple(self.dhp, ("m", "q", "alpha")),
            "chenluo": self.chenluo.as_dict() if self.chenluo else None,
        }
        if not self.primality_proven:
            data["primality"] = "probable"
        return data


def classify_report(n: int) -> ClassifyReport:
    """Run every applicable classifier on n and collect the results."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    f = factorize(n)
    s, k = _abundancy(n, f)
    return ClassifyReport(
        n=n,
        sigma=s,
        k=k,
        euler_form=_euler_form(n, f) if n % 2 else None,
        dhp=_dhp_decompose(n, f) if n >= 2 else None,
        chenluo=_chenluo_check(n, f) if n % 2 and n >= 3 else None,
        primality_proven=all(primality_is_proven(p) for p, _ in f),
    )
