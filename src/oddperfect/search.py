"""Exhaustive, resumable searches for sigma(q^alpha) = 2n^2 and = n^2.

The scan walks primes q in a range and exponents alpha in a range, testing
whether sigma(q^alpha) is twice a square (TWO_N_SQUARED) or a square
(N_SQUARED).  Work is sharded into fixed-size contiguous prime blocks so the
merged output is byte-identical for any worker count, which is what makes
golden-file and resume testing possible.
"""
from __future__ import annotations

import bisect
import enum
import hashlib
import json
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .arith import isqrt_exact, primes_upto
from .errors import CheckpointError, ConsistencyError

#: Primes per shard.  Small enough that interrupt/resume granularity is
#: useful, large enough that process overhead stays negligible.
SHARD_PRIMES = 128


class Equation(str, enum.Enum):
    """Which Diophantine equation the scan tests."""

    TWO_N_SQUARED = "2nsq"  # 2n^2 = sigma(q^alpha)
    N_SQUARED = "nsq"  # n^2 = sigma(q^beta)


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


def _scan_shard(args: tuple[tuple[int, ...], str, int, int]) -> list[tuple]:
    """Scan one block of primes; runs in a worker process.

    Returns plain tuples rather than SolutionRecords to keep the pickled
    payload small.
    """
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


def _shards(primes: list[int]) -> list[tuple[int, ...]]:
    return [
        tuple(primes[lo : lo + SHARD_PRIMES]) for lo in range(0, len(primes), SHARD_PRIMES)
    ]


def _eligible_primes(cfg: SearchConfig) -> list[int]:
    return [
        p
        for p in primes_upto(cfg.q_max)
        if p >= cfg.q_min
        and (cfg.residue_filter is None or p % 4 == cfg.residue_filter)
    ]


def run_search(cfg: SearchConfig) -> SearchReport:
    """Run the configured scan to completion.

    Results arrive in ascending (q, alpha) order whatever the worker count.
    With a checkpoint path configured, progress is saved after every shard
    and a previous run with the same config identity is continued instead of
    restarted; the final report is byte-identical either way.
    """
    primes = _eligible_primes(cfg)
    done, records = 0, []
    if cfg.checkpoint_path is not None and os.path.exists(cfg.checkpoint_path):
        done, records = checkpoint_resume(cfg, primes)
    shards = _shards(primes[done:])
    for shard, hits in zip(shards, _shard_results(cfg, shards)):
        records += [SolutionRecord(cfg.equation, *hit) for hit in hits]
        done += len(shard)
        if cfg.checkpoint_path is not None:
            checkpoint_save(cfg, done, records)
    # sigma(q^alpha) is odd for even alpha: never 2n^2, for any scanned prime
    skip_per_prime = (
        sum(1 for a in range(cfg.alpha_min, cfg.alpha_max + 1) if a % 2 == 0)
        if cfg.equation is Equation.TWO_N_SQUARED
        else 0
    )
    return SearchReport(cfg, tuple(records), len(primes), skip_per_prime * len(primes))


def _shard_results(cfg: SearchConfig, shards: list[tuple[int, ...]]):
    payloads = [
        (shard, cfg.equation.value, cfg.alpha_min, cfg.alpha_max) for shard in shards
    ]
    # a pool starts all its workers at once: never more than there is work or CPUs
    workers = min(cfg.worker_count, len(shards), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(_scan_shard, payloads)
        return
    # workers ignore Ctrl-C, so only this process handles it
    pool = ProcessPoolExecutor(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    )
    try:
        # executor.map preserves submission order, so merge order is fixed
        yield from pool.map(_scan_shard, payloads)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def checkpoint_save(cfg: SearchConfig, primes_done: int, records: list[SolutionRecord]) -> None:
    """Atomically write cfg's checkpoint; an existing file is never corrupted.

    The record holds the search identity, how many eligible primes are done,
    the (q, alpha) of each hit among them, and a digest of those three.
    """
    body = {
        "config": cfg.identity(),
        "primes_done": primes_done,
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


def checkpoint_resume(cfg: SearchConfig, primes: list[int]) -> tuple[int, list[SolutionRecord]]:
    """How many of primes cfg's checkpoint has done, and the hits among them.

    Raises CheckpointError unless the file matches its digest (which catches
    an edited, truncated or corrupt file, not a forged one) and cfg, counts
    no more than len(primes), and lists each hit as a pair of ints, with q
    among the primes done and alpha in range, in strictly ascending order,
    that rescanning finds again.  The records returned are those rescans.
    """
    path = cfg.checkpoint_path
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        body = {key: payload[key] for key in ("config", "primes_done", "hits")}
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
    done, pairs = body["primes_done"], body["hits"]
    if type(done) is not int or not 0 <= done <= len(primes) or type(pairs) is not list:
        raise CheckpointError(f"checkpoint {path} does not fit this search's primes")
    records: list[SolutionRecord] = []
    for pair in pairs:
        # type(x) is int: a JSON true or 1.0 is not a q or an alpha
        ok = type(pair) is list and len(pair) == 2 and all(type(x) is int for x in pair)
        if ok:
            q, alpha = pair
            i = bisect.bisect_left(primes, q, 0, done)
            ok = (
                i < done
                and primes[i] == q
                and cfg.alpha_min <= alpha <= cfg.alpha_max
                and (not records or (records[-1].q, records[-1].alpha) < (q, alpha))
            )
        again = _scan_shard(((q,), cfg.equation.value, alpha, alpha)) if ok else []
        if not again:
            raise CheckpointError(
                f"checkpoint {path} holds a hit this search does not find: "
                f"{canonical_json(pair)}"
            )
        records.append(SolutionRecord(cfg.equation, *again[0]))
    return done, records
