"""Seeded inputs for the three workloads.

Nothing here imports oddperfect: the set-up probe builds its first input
before it starts timing the package import, and the prime tables below are a
second implementation that the search's prime counts are checked against.
"""
from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from math import isqrt

#: The nsq reference set in refs.NSQ_SOLUTIONS is complete below this bound.
SEARCH_Q_MAX = 500_000
#: q-intervals per pass over the odd primes up to SEARCH_Q_MAX.
SEARCH_CHUNKS = 4
RANDOM_N_MAX = 10**12
CERT_Q_MAX = 10**6
#: Certificates take odd alpha from criterion 06's range, except every
#: CERT_TAIL_EVERY-th one, which takes it from the large range.  Each range
#: is walked in a seeded order so that a run sees every alpha equally often:
#: the cost grows steeply with alpha, and random draws would make the
#: throughput depend on how many large alpha a run happened to get.
CERT_ALPHA_BULK = range(3, 102, 2)
CERT_ALPHA_TAIL = range(103, 1002, 2)
CERT_TAIL_EVERY = 25


def odd_primes_upto(limit: int) -> array:
    """Odd primes <= limit, from an odd-only sieve (index i stands for 2i+1)."""
    size = (limit - 1) // 2 + 1
    flags = bytearray([1]) * size
    flags[0] = 0
    for i in range(1, (isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, size, p)))
    return array("l", (2 * i + 1 for i, flag in enumerate(flags) if flag))


@dataclass(frozen=True)
class Chunk:
    """One q-interval of the search, with its prime counts from odd_primes_upto."""

    q_min: int
    q_max: int
    primes: int
    primes_1mod4: int


def search_passes(seed: int):
    """Endless passes; each covers every odd prime <= SEARCH_Q_MAX once.

    A pass is SEARCH_CHUNKS q-intervals holding equal numbers of primes: the
    one from q = 3, which holds the three known nsq solutions, then the
    others in a seeded order.  The intervals are the same for every seed, so
    that the spread of the call latencies between seeds stays small, and the
    first call, which set-up times, is the same too.
    """
    primes = odd_primes_upto(SEARCH_Q_MAX)
    ones = array("l", [0])
    for p in primes:
        ones.append(ones[-1] + (p % 4 == 1))
    count = len(primes)
    block = -(-count // SEARCH_CHUNKS)
    chunks = [
        Chunk(primes[a], primes[b - 1], b - a, ones[b] - ones[a])
        for a, b in ((a, min(a + block, count)) for a in range(0, count, block))
    ]
    rng = random.Random(seed)
    rest = chunks[1:]
    while True:
        rng.shuffle(rest)
        yield (chunks[0], *rest)


def random_odd_numbers(seed: int):
    """Uniform random odd n in [3, RANDOM_N_MAX]."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(3, RANDOM_N_MAX + 1, 2)


def certificate_pairs(seed: int):
    """(q, alpha): q a uniform random prime = 1 mod 4 up to CERT_Q_MAX, alpha odd."""
    qs = array("l", (p for p in odd_primes_upto(CERT_Q_MAX) if p % 4 == 1))
    rng = random.Random(seed)
    bulk = _shuffled_cycle(CERT_ALPHA_BULK, rng)
    tail = _shuffled_cycle(CERT_ALPHA_TAIL, rng)
    for j in itertools.count(1):
        alpha = next(tail) if j % CERT_TAIL_EVERY == 0 else next(bulk)
        yield qs[rng.randrange(len(qs))], alpha


def _shuffled_cycle(values, rng: random.Random):
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


INPUTS = {
    "search": search_passes,
    "ledger-random": random_odd_numbers,
    "certify": certificate_pairs,
}
