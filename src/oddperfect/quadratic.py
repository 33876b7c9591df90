"""Arithmetic in the imaginary quadratic order Z[sqrt(d)], d < 0.

The interesting parameter is d = 1 - q for a prime q = 1 mod 4, where the
conjugate pair 1 +- n1*sqrt(d) factors q^((alpha+1)/2).  On top of the ring
arithmetic this module carries the executable lemmas behind that step: the
trace expansion, the binomial ratio identity, and the 2-adic unit certificate
that delivers the final contradiction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add

from .arith import is_prime, mark_primality, primality_is_proven, primes_upto, v2
from .errors import ConsistencyError

#: The largest alpha two_adic_certificate accepts: its report lists about
#: alpha / 4 summands, and with its as_dict peaks near 115 MB at this bound.
ALPHA_BOUND = 1_000_001
#: The largest q_max identity_sweep accepts: it lists every prime up to q_max
#: first; at this bound a sweep with m_max = 1 takes about 1 s (2-CPU Intel Xeon).
SWEEP_Q_BOUND = 10**6
#: The largest m_max identity_sweep accepts: each prime's trace comparison grows
#: faster than m_max^2, and at this bound a sweep over the 46 primes up to 200 takes
#: about 18 s at a flat 33 MB (2-CPU Intel Xeon).  The certificate's
#: m = (alpha - 3) / 2 is at most 499 for the paper's alpha <= 1001.
SWEEP_M_BOUND = 1000


@dataclass(frozen=True)
class QuadInt:
    """An element a + b*sqrt(d) of Z[sqrt(d)] with a fixed negative non-square d.

    Elements only combine when their d matches; ints mix freely (an int x is
    x + 0*sqrt(d)).  Instances are immutable values.
    """

    d: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.d >= 0:
            raise ValueError(f"ring parameter must be negative, got d={self.d}")

    def _coerce(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, QuadInt):
            if other.d != self.d:
                raise ValueError(f"mixed ring parameters d={self.d} and d={other.d}")
            return other
        return QuadInt(self.d, int(other), 0)

    def __add__(self, other: QuadInt | int) -> QuadInt:
        o = self._coerce(other)
        return QuadInt(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        o = self._coerce(other)
        return QuadInt(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other: int) -> QuadInt:
        return self._coerce(other) - self

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        o = self._coerce(other)
        return QuadInt(
            self.d,
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __neg__(self) -> QuadInt:
        return QuadInt(self.d, -self.a, -self.b)

    def __pow__(self, m: int) -> QuadInt:
        """Exact m-th power by square and multiply; x**0 is 1."""
        if m < 0:
            raise ValueError(f"exponent must be non-negative, got {m}")
        result = QuadInt(self.d, 1, 0)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def conjugate(self) -> QuadInt:
        return QuadInt(self.d, self.a, -self.b)

    def norm(self) -> int:
        """a^2 - d*b^2; non-negative since d < 0, and multiplicative."""
        return self.a * self.a - self.d * self.b * self.b

    def trace(self) -> int:
        """Sum of the element and its conjugate, i.e. 2a."""
        return 2 * self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}*sqrt({self.d})"


def trace_expansion(m: int, d: int) -> int:
    """Closed form for the trace of (1 +- sqrt(d))^m.

    Returns 2 + 2 * sum_{i=1}^{floor(m/2)} C(m, 2i) * d^i.  The odd-index
    binomial terms carry the sign ambiguity and cancel against the conjugate,
    so both sign choices share this value.  Each term is the one before times
    d * (m-2i+2)(m-2i+1) / ((2i-1)*2i), a division that is exact.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    total = term = 1
    for i in range(1, m // 2 + 1):
        term = term * d * (m - 2 * i + 2) * (m - 2 * i + 1) // ((2 * i - 1) * 2 * i)
        total += term
    return 2 * total


def ratio_identity_check(m: int, i: int) -> bool:
    """Verify C(m,2i)/C(m,2) == C(m-2,2i-2)/(i*(2i-1)) exactly.

    This is the cancellation that pulls the factor C(m,2)*(1-q) out of every
    term of the trace expansion.  Both denominators are positive, so the
    check cross-multiplies in integers.
    """
    if m < 4 or i < 2 or 2 * i > m:
        raise ValueError(f"need m >= 4, i >= 2, 2i <= m; got m={m}, i={i}")
    return math.comb(m, 2 * i) * i * (2 * i - 1) == math.comb(m - 2, 2 * i - 2) * math.comb(m, 2)


def identity_sweep(m_max: int, q_max: int, ratio_m_max: int) -> dict[str, tuple[int, int]]:
    """Check both identities over a grid; (checked, failed) per identity.

    trace_expansion(m, 1 - q) is compared with the traces of (1 + sqrt(1-q))^m
    and (1 - sqrt(1-q))^m for primes q <= q_max and 1 <= m <= m_max; the
    ratio identity is checked for 4 <= m <= ratio_m_max and 2 <= i <= m/2.
    A negative bound raises ValueError: it would make the sweep pass vacuously;
    so do q_max above SWEEP_Q_BOUND and m_max above SWEEP_M_BOUND.
    """
    if min(m_max, q_max, ratio_m_max) < 0:
        raise ValueError(
            f"bounds must be >= 0, got m_max={m_max} q_max={q_max} ratio_m_max={ratio_m_max}"
        )
    if q_max > SWEEP_Q_BOUND:
        raise ValueError(f"q_max must be <= {SWEEP_Q_BOUND}, got {q_max}")
    if m_max > SWEEP_M_BOUND:
        raise ValueError(f"m_max must be <= {SWEEP_M_BOUND}, got {m_max}")
    trace_checked = trace_failed = 0
    for q in primes_upto(q_max):
        d = 1 - q
        for m in range(1, m_max + 1):
            expected = trace_expansion(m, d)
            plus = (QuadInt(d, 1, 1) ** m).trace()
            minus = (QuadInt(d, 1, -1) ** m).trace()
            trace_checked += 1
            if not expected == plus == minus:
                trace_failed += 1
    ratio_checked = ratio_failed = 0
    for m in range(4, ratio_m_max + 1):
        for i in range(2, m // 2 + 1):
            ratio_checked += 1
            if not ratio_identity_check(m, i):
                ratio_failed += 1
    return {
        "trace_expansion": (trace_checked, trace_failed),
        "ratio_identity": (ratio_checked, ratio_failed),
    }


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the 2-adic unit certificate for one (q, alpha) pair.

    summands holds (i, v2-of-summand) for each term of S past the leading 1,
    each from the closed form in two_adic_certificate.  Every valuation is
    >= 1, so v2_total (the valuation of S) is 0 and passed is True: a report
    that failed would have raised ConsistencyError instead.
    """

    q: int
    alpha: int
    summands: tuple[tuple[int, int], ...]
    v2_total: int
    passed: bool

    def as_dict(self) -> dict:
        return mark_primality({
            "q": self.q,
            "alpha": self.alpha,
            "summands": [{"i": i, "v2": v} for i, v in self.summands],
            "v2_total": self.v2_total,
            "passed": self.passed,
        }, primality_is_proven(self.q))


def two_adic_certificate(q: int, alpha: int) -> CertificateReport:
    """Certify that S = 1 + sum_{i>=2} [C(m, 2i-2)/(2i-1)] * (1-q)^(i-1)/i,
    with m = (alpha-3)/2, is a nonzero 2-adic unit.

    S is the trace relation divided by its i=1 term; a solution of
    2n^2 = sigma(q^alpha) would force S = 0, while v2(S) = 0 shows S is a
    2-adic unit, the contradiction that closes the proof.  The sum runs to
    floor((alpha+1)/4).  No summand is evaluated: Kummer's theorem, with
    s2(2i-2) = s2(i-1) and Legendre's v2(i) = s2(i-1) + 1 - s2(i), gives
    summand i (2i-1 is odd) the valuation s2(i) + s2(m-2i+2) - s2(m) - 1 +
    (i-1)*t, s2 the binary digit sum and t = v2(q-1): q enters only through t.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q % 4 != 1:
        raise ValueError(f"q must be 1 mod 4, got {q} = {q % 4} mod 4")
    if alpha % 2 == 0 or alpha < 3:
        raise ValueError(f"alpha must be odd and >= 3, got {alpha}")
    if alpha > ALPHA_BOUND:
        raise ValueError(f"alpha must be <= {ALPHA_BOUND}, got {alpha}")
    t = v2(q - 1)
    m = (alpha - 3) // 2
    top = (alpha + 1) // 4 + 1  # summands i = 2 .. top - 1
    # K = alpha.bit_length() puts m-2i+2 below 2^K, so s2(i) + s2(m-2i+2) =
    # s2(i*2^K + m-2i+2), stepping by 2^K - 2; (i-1)*t - s2(m) - 1 adds t per i
    step = (1 << alpha.bit_length()) - 2
    digits = map(int.bit_count, range(2 * step + m + 2, top * step + m + 2, step))
    valuations = list(map(add, digits, accumulate(repeat(t), initial=t - 1 - m.bit_count())))
    # The carry count is >= 0 and t >= 2, so summand i has valuation at least
    # 2(i-1) - log2(i) >= 1 for i >= 2.  Every summand is then divisible by 2
    # while the leading 1 is not: v2(S) = 0 by the ultrametric inequality,
    # hence S != 0.  A summand below 1 would contradict t >= 2.
    if min(valuations, default=1) < 1:
        raise ConsistencyError(f"a summand valuation is below 1 at q={q} alpha={alpha}")
    # via a list: tuple(zip(...)) resizes, which strands ~4 MB in CPython's tuple free lists
    summands = tuple(list(zip(range(2, top), valuations)))
    return CertificateReport(q, alpha, summands, v2_total=0, passed=True)
