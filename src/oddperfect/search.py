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
    shards = _shards(primes)

    records: list[SolutionRecord] = []
    start_shard = 0
    if cfg.checkpoint_path is not None and os.path.exists(cfg.checkpoint_path):
        state = checkpoint_resume(cfg.checkpoint_path)
        if state.config.config_hash() != cfg.config_hash():
            raise CheckpointError(
                f"checkpoint {cfg.checkpoint_path} belongs to config "
                f"{state.config.config_hash()}, not {cfg.config_hash()}"
            )
        while start_shard < len(shards) and shards[start_shard][-1] <= state.cursor:
            start_shard += 1
        records.extend(_resumed_hits(cfg, primes, state))

    for shard, hits in zip(
        shards[start_shard:], _shard_results(cfg, shards[start_shard:])
    ):
        for q, alpha, n, split in hits:
            records.append(SolutionRecord(cfg.equation, q, alpha, n, split))
        if cfg.checkpoint_path is not None:
            checkpoint_save(
                CheckpointState(cfg, shard[-1], tuple(records)), cfg.checkpoint_path
            )
    # sigma(q^alpha) is odd for even alpha: never 2n^2, for any scanned prime
    skip_per_prime = (
        sum(1 for a in range(cfg.alpha_min, cfg.alpha_max + 1) if a % 2 == 0)
        if cfg.equation is Equation.TWO_N_SQUARED
        else 0
    )
    return SearchReport(cfg, tuple(records), len(primes), skip_per_prime * len(primes))


def _resumed_hits(
    cfg: SearchConfig, primes: list[int], state: CheckpointState
) -> list[SolutionRecord]:
    """The checkpoint's hits, each as rescanning its (q, alpha) finds it again.

    Raises CheckpointError unless every saved hit carries the run's equation,
    an eligible q no later than the cursor and an alpha in range, comes in
    strictly ascending (q, alpha) order, and equals what that rescan returns.
    """
    hits: list[SolutionRecord] = []
    for r in state.partial_hits:
        try:
            i = bisect.bisect_left(primes, r.q)
            ok = (
                r.equation is cfg.equation
                and i < len(primes)
                and primes[i] == r.q <= state.cursor
                and cfg.alpha_min <= r.alpha <= cfg.alpha_max
                and (not hits or (hits[-1].q, hits[-1].alpha) < (r.q, r.alpha))
            )
            again = _scan_shard(((r.q,), cfg.equation.value, r.alpha, r.alpha)) if ok else []
        except TypeError:  # a field of the wrong JSON type
            again = []
        if again != [(r.q, r.alpha, r.n, r.split)]:
            raise CheckpointError(
                f"checkpoint {cfg.checkpoint_path} holds a hit this search does "
                f"not find: {canonical_json(r.as_dict())}"
            )
        hits.append(SolutionRecord(cfg.equation, *again[0]))
    return hits


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


@dataclass(frozen=True)
class CheckpointState:
    """What resuming needs: the search identity, a cursor, hits so far."""

    config: SearchConfig
    cursor: int  # last prime whose shard completed
    partial_hits: tuple[SolutionRecord, ...]


def checkpoint_save(state: CheckpointState, path: str) -> None:
    """Atomically write the checkpoint; an existing file is never corrupted."""
    payload = {
        "config": state.config.identity(),
        "config_hash": state.config.config_hash(),
        "last_completed_prime": state.cursor,
        "partial_hits": [r.as_dict() for r in state.partial_hits],
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def checkpoint_resume(path: str) -> CheckpointState:
    """Load a checkpoint; the file on disk is left untouched."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    try:
        ident = payload["config"]
        cfg = SearchConfig(
            equation=Equation(ident["equation"]),
            q_min=ident["q_min"],
            q_max=ident["q_max"],
            alpha_min=ident["alpha_min"],
            alpha_max=ident["alpha_max"],
            residue_filter=ident["residue_filter"],
        )
        if payload["config_hash"] != cfg.config_hash():
            raise CheckpointError(f"checkpoint {path} hash does not match its config")
        hits = tuple(
            SolutionRecord(
                equation=Equation(r["equation"]),
                q=r["q"],
                alpha=r["alpha"],
                n=r["n"],
                split=None if r["n1"] is None else (r["n1"], r["n2"]),
            )
            for r in payload["partial_hits"]
        )
        return CheckpointState(cfg, payload["last_completed_prime"], hits)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is malformed: {exc}") from exc

