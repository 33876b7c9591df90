"""Exhaustive, resumable searches for sigma(q^alpha) = 2n^2 and = n^2.

The scan walks primes q in a range and exponents alpha in a range, testing
whether sigma(q^alpha) is twice a square (TWO_N_SQUARED) or a square
(N_SQUARED).  Work is sharded into contiguous q-intervals of SHARD_WIDTH
numbers, each of which sieves its own primes, so the merged output is
byte-identical for any worker count, which is what makes golden-file and
resume testing possible.

Within a shard, sigma(q^alpha) mod M1 and mod M2 is built for every prime at
once in one int64 recurrence, alpha by alpha (odd alpha only for 2n^2,
where an even one makes sigma odd), and compared with the residues that
k*n^2 can take mod factors of M1, then of M2 (k = 2 or 1; H. Cohen, A
Course in Computational Algebraic Number Theory, Alg. 1.7.3).  Only the
pairs that pass get the exact sigma and square test.
"""
from __future__ import annotations

import collections
import enum
import hashlib
import json
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, isqrt_exact, primes_between, sigma_prime_power
from .errors import CheckpointError, ConsistencyError

#: Numbers q per shard.  Small enough that interrupt/resume granularity is
#: useful, large enough that process overhead stays negligible.
SHARD_WIDTH = 1 << 14

#: The residue sieve's state holds sigma(q^alpha) mod M1 = 5 765 760 in row 0
#: and mod M2 = 247 110 827 in row 1.  A step computes S*B + A from residues
#: below m, so no value reaches m^2 + m < 2^63.
_MODULI = np.array([[5_765_760], [247_110_827]])

#: The coprime factors of the four residue tables: row 0 is read mod 128 and
#: 45 045 = 63*65*11, row 1 mod 215 441 = 17*19*23*29 and 1 147 = 31*37.
_TABLE_FACTORS = ((128,), (63, 65, 11), (17, 19, 23, 29), (31, 37))


class Equation(str, enum.Enum):
    """Which Diophantine equation the scan tests."""

    TWO_N_SQUARED = "2nsq"  # 2n^2 = sigma(q^alpha)
    N_SQUARED = "nsq"  # n^2 = sigma(q^beta)


def _residue_tables(k: int) -> tuple[np.ndarray, ...]:
    """Per table of modulus m, flags of the residues k*r^2 mod m: those k*n^2 can take.

    x is k*r^2 mod m iff it is k*r^2 mod every factor f of m (the Chinese
    remainder theorem), so each table is the AND of its factors' tables.
    """
    tables = []
    for factors in _TABLE_FACTORS:
        flags = np.ones(math.prod(factors), dtype=bool)
        for f in factors:
            small = np.zeros(f, dtype=bool)
            small[k * np.arange(f) ** 2 % f] = True
            grid = flags.reshape(-1, f)  # a view: x = i*f + j at [i, j], so j = x mod f
            grid &= small
        tables.append(flags)
    return tuple(tables)


#: sigma(q^alpha) is k*n^2 only if it is one of these residues mod every m.
_RESIDUE_TABLES = {
    Equation.TWO_N_SQUARED: _residue_tables(2),
    Equation.N_SQUARED: _residue_tables(1),
}


@dataclass(frozen=True)
class SearchConfig:
    equation: Equation
    q_min: int = 3
    q_max: int = 50_000
    alpha_min: int = 1
    alpha_max: int = 25
    residue_filter: int | None = None
    worker_count: int = 1
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.equation, Equation):
            raise ValueError(f"equation must be an Equation member, got {self.equation!r}")
        if self.q_min > self.q_max:
            raise ValueError(f"q_min {self.q_min} > q_max {self.q_max}")
        if self.alpha_min < 1:
            # alpha = 0 would make sigma(q^0) = 1 = 1^2 a degenerate hit
            raise ValueError(f"alpha_min must be >= 1, got {self.alpha_min}")
        if self.alpha_min > self.alpha_max:
            raise ValueError(f"alpha_min {self.alpha_min} > alpha_max {self.alpha_max}")
        if self.residue_filter not in (None, 1, 3):
            raise ValueError(f"residue_filter must be 1 or 3, got {self.residue_filter}")
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")

    def identity(self) -> dict:
        """The fields that define what is searched (not how)."""
        return {
            "equation": self.equation.value,
            "q_min": self.q_min,
            "q_max": self.q_max,
            "alpha_min": self.alpha_min,
            "alpha_max": self.alpha_max,
            "residue_filter": self.residue_filter,
        }

    def config_hash(self) -> str:
        """Stable digest of the search identity.

        worker_count and checkpoint_path are excluded on purpose: runs that
        differ only in those must produce identical reports.
        """
        return digest(self.identity())


@dataclass(frozen=True)
class SolutionRecord:
    """One (q, alpha, n) satisfying the configured equation exactly."""

    equation: Equation
    q: int
    alpha: int
    n: int
    split: tuple[int, int] | None = None

    def as_dict(self) -> dict:
        n1, n2 = self.split if self.split is not None else (None, None)
        return {
            "equation": self.equation.value,
            "q": self.q,
            "alpha": self.alpha,
            "n": self.n,
            "n1": n1,
            "n2": n2,
        }


@dataclass(frozen=True)
class SearchReport:
    """Full outcome of one scan: hits plus coverage accounting."""

    config: SearchConfig
    records: tuple[SolutionRecord, ...]
    scanned_primes: int
    skipped_even_alpha: int

    def summary(self) -> dict:
        return {
            "scanned_primes": self.scanned_primes,
            "skipped_even_alpha": self.skipped_even_alpha,
            "hits": len(self.records),
            "config_hash": self.config.config_hash(),
        }

    def to_jsonl(self) -> str:
        """The report in the JSONL wire form: its records, then its summary."""
        return jsonl([r.as_dict() for r in self.records], self.summary())


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON — the byte-stable wire form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def jsonl(records: list[dict], summary: dict) -> str:
    """One JSON object per record, then the summary object, newline-terminated."""
    return "".join(canonical_json(obj) + "\n" for obj in [*records, summary])


def digest(obj) -> str:
    """16-hex SHA-256 prefix of the canonical JSON: the config hash of a run."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def split_solution(q: int, alpha: int, n: int) -> tuple[int, int]:
    """Split a 2n^2 = sigma(q^alpha) solution into its coprime halves.

    Returns the unique (n1, n2) with (q-1)*n1^2 = q^((alpha+1)/2) - 1 and
    2*n2^2 = q^((alpha+1)/2) + 1.  The caller promises the equation holds and
    alpha is odd; a failure of the exact-square test here would falsify the
    splitting lemma itself, so it aborts loudly instead of returning.
    """
    if alpha % 2 == 0:
        raise ValueError(f"alpha must be odd, got {alpha}")
    half_power = q ** ((alpha + 1) // 2)
    sq1, rem = divmod(half_power - 1, q - 1)
    if rem:
        raise ConsistencyError(f"(q-1) does not divide q^((alpha+1)/2)-1 at q={q}")
    n1 = isqrt_exact(sq1)
    sq2, rem = divmod(half_power + 1, 2)
    if rem:
        raise ConsistencyError(f"q^((alpha+1)/2)+1 is odd at q={q}")
    n2 = isqrt_exact(sq2)
    if n1 is None or n2 is None:
        raise ConsistencyError(
            f"splitting lemma violated at (q={q}, alpha={alpha}, n={n}): "
            f"{sq1} or {sq2} is not a perfect square"
        )
    if math.gcd(n1, n2) != 1 or n1 * n2 != n:
        raise ConsistencyError(
            f"split ({n1}, {n2}) of (q={q}, alpha={alpha}) fails gcd/product check"
        )
    return n1, n2


def _solution(equation: Equation, q: int, alpha: int) -> SolutionRecord | None:
    """The record of (q, alpha) when sigma(q^alpha) solves equation, else None."""
    sigma = sigma_prime_power(q, alpha)
    # the str value: an Enum class attribute is slow on CPython 3.11, and this runs per pair
    if equation == "nsq":
        n = isqrt_exact(sigma)
        return None if n is None else SolutionRecord(equation, q, alpha, n)
    if sigma % 2:
        # odd for every even alpha and for q = 2: never 2n^2
        return None
    n = isqrt_exact(sigma // 2)
    if n is None:
        return None
    return SolutionRecord(equation, q, alpha, n, split_solution(q, alpha, n))


def _eligible(lo: int, hi: int, residue_filter: int | None) -> np.ndarray:
    """The primes q in [lo, hi] that the residue filter admits."""
    primes = primes_between(lo, hi)
    return primes if residue_filter is None else primes[primes % 4 == residue_filter]


def _scan_shard(args: tuple[SearchConfig, int, int]) -> tuple[int, list[SolutionRecord]]:
    """(primes scanned, records in (q, alpha) order) of [lo, hi] for args = (cfg, lo, hi).

    Runs in a worker process.  The state S holds sigma(q^alpha) mod M1 and
    mod M2 for every prime.  From S = 0 at alpha = -1, each step S = S*B + A
    moves alpha on by 1 for nsq, with (A, B) = (1, q), and by 2 over odd
    alpha for 2nsq, with (A, B) = (1 + q, q^2): an even alpha makes sigma
    odd, never 2n^2.  Only the (q, alpha) that pass M1's tables, and then
    M2's, get the exact sigma and square test.
    """
    cfg, lo, hi = args
    primes = _eligible(lo, hi, cfg.residue_filter)
    by128, by45045, by215441, by1147 = _RESIDUE_TABLES[cfg.equation]
    base = primes % _MODULI  # before any product: q*q overflows int64 from q > 3.04e9
    if cfg.equation is Equation.N_SQUARED:
        add, mul, step = 1, base, 1
    else:
        add, mul, step = (1 + base) % _MODULI, base * base % _MODULI, 2
    sigma = np.zeros_like(base)
    records: list[SolutionRecord] = []
    for alpha in range(step - 1, cfg.alpha_max + 1, step):
        sigma = (sigma * mul + add) % _MODULI
        if alpha < cfg.alpha_min:
            continue
        low = sigma[0]
        passed = (by128[low & 127] & by45045[low % 45045]).nonzero()[0]
        high = sigma[1, passed]
        for q in primes[passed[by215441[high % 215441] & by1147[high % 1147]]].tolist():
            record = _solution(cfg.equation, q, alpha)
            if record is not None:
                records.append(record)
    records.sort(key=lambda r: (r.q, r.alpha))
    return len(primes), records


def _intervals(lo: int, hi: int):
    """[lo, hi] from q = 2 on, as consecutive shards of SHARD_WIDTH numbers."""
    width = SHARD_WIDTH
    for a in range(max(lo, 2), hi + 1, width):
        yield a, min(a + width - 1, hi)


def run_search(cfg: SearchConfig) -> SearchReport:
    """Run the configured scan to completion.

    Results arrive in ascending (q, alpha) order whatever the worker count.
    With a checkpoint path configured, progress is saved after every shard
    and a previous run with the same config identity is continued instead of
    restarted; the final report is byte-identical either way.
    """
    done, records, scanned = cfg.q_min - 1, [], 0
    if cfg.checkpoint_path is not None and os.path.exists(cfg.checkpoint_path):
        done, records = checkpoint_resume(cfg)
        # re-derived, not read from disk: the primes up to the cursor
        scanned = sum(
            len(_eligible(lo, hi, cfg.residue_filter)) for lo, hi in _intervals(cfg.q_min, done)
        )
    for done, count, hits in _shard_results(cfg, done + 1):
        records += hits
        scanned += count
        if cfg.checkpoint_path is not None:
            checkpoint_save(cfg, done, records)
    # sigma(q^alpha) is odd for even alpha: never 2n^2, for any scanned prime
    skip_per_prime = (
        sum(1 for a in range(cfg.alpha_min, cfg.alpha_max + 1) if a % 2 == 0)
        if cfg.equation is Equation.TWO_N_SQUARED
        else 0
    )
    return SearchReport(cfg, tuple(records), scanned, skip_per_prime * scanned)


def _shard_results(cfg: SearchConfig, lo: int):
    """(last q, primes scanned, records) of each shard of [lo, q_max], in order."""
    payloads = ((cfg, a, b) for a, b in _intervals(lo, cfg.q_max))
    shards = len(range(max(lo, 2), cfg.q_max + 1, SHARD_WIDTH))
    # a pool starts all its workers at once: never more than there is work or CPUs
    workers = min(cfg.worker_count, shards, os.cpu_count() or 1)
    if workers <= 1:
        for payload in payloads:
            yield payload[2], *_scan_shard(payload)
        return
    # workers ignore Ctrl-C, so only this process handles it
    pool = ProcessPoolExecutor(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    )
    try:
        # two shards in flight per worker keep it busy; results leave in
        # submission order, so merge order is fixed, and memory stays bounded
        pending = collections.deque()
        for payload in payloads:
            pending.append((payload[2], pool.submit(_scan_shard, payload)))
            if len(pending) == 2 * workers:
                last, future = pending.popleft()
                yield last, *future.result()
        for last, future in pending:
            yield last, *future.result()
    except BaseException:
        # Ctrl-C, a failed shard or an abandoned scan: return at once
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    # every shard is done: the workers exit before the call returns, so
    # that none of them still runs while the next call starts its pool
    pool.shutdown()


def checkpoint_save(cfg: SearchConfig, q_done: int, records: list[SolutionRecord]) -> None:
    """Atomically write cfg's checkpoint; an existing file is never corrupted.

    The record holds the search identity, the largest q whose shard is done,
    the (q, alpha) of each hit up to it, and a digest of those three.
    """
    body = {
        "config": cfg.identity(),
        "q_done": q_done,
        "hits": [[r.q, r.alpha] for r in records],
    }
    path = cfg.checkpoint_path
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(canonical_json({**body, "digest": digest(body)}) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def checkpoint_resume(cfg: SearchConfig) -> tuple[int, list[SolutionRecord]]:
    """The largest q cfg's checkpoint has done, and the hits up to it.

    Raises CheckpointError unless the file matches its digest (which catches
    an edited, truncated or corrupt file, or one in an older format, not a
    forged one) and cfg, holds an int cursor in [q_min - 1, q_max], and
    lists each hit as a pair of ints, with q a prime in [q_min, cursor] that
    the residue filter admits and alpha in range, in strictly ascending
    order, that rescanning finds again.  The records returned are those
    rescans.  The rescan refuses a forged hit but cannot see an omitted one
    (a hit deleted and the digest re-sealed), so only a run started without
    a checkpoint backs a claim that a range is empty.
    """
    path = cfg.checkpoint_path
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        body = {key: payload[key] for key in ("config", "q_done", "hits")}
        intact = payload["digest"] == digest(body)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError):  # not JSON, or not the record's keys
        intact = False
    if not intact:
        raise CheckpointError(
            f"checkpoint {path} fails its digest check: edited, corrupt, "
            "or written by an older version"
        )
    if digest(body["config"]) != cfg.config_hash():
        raise CheckpointError(
            f"checkpoint {path} belongs to config {digest(body['config'])}, "
            f"not {cfg.config_hash()}"
        )
    done, pairs = body["q_done"], body["hits"]
    if type(done) is not int or not cfg.q_min - 1 <= done <= cfg.q_max or type(pairs) is not list:
        raise CheckpointError(f"checkpoint {path} does not fit this search's q-range")
    records: list[SolutionRecord] = []
    for pair in pairs:
        # type(x) is int: a JSON true or 1.0 is not a q or an alpha
        ok = type(pair) is list and len(pair) == 2 and all(type(x) is int for x in pair)
        if ok:
            q, alpha = pair
            ok = (
                cfg.q_min <= q <= done
                and cfg.residue_filter in (None, q % 4)
                and cfg.alpha_min <= alpha <= cfg.alpha_max
                and (not records or (records[-1].q, records[-1].alpha) < (q, alpha))
                # the rescan alone would accept a composite q: sigma(8) = 3^2
                and is_prime(q)
            )
        again = _solution(cfg.equation, q, alpha) if ok else None
        if again is None:
            raise CheckpointError(
                f"checkpoint {path} holds a hit this search does not find: "
                f"{canonical_json(pair)}"
            )
        records.append(again)
    return done, records
