"""Exhaustive, resumable searches for sigma(q^alpha) = 2n^2 and = n^2.

The scan walks primes q in a range and exponents alpha in a range, testing
whether sigma(q^alpha) = k*n^2 for the configured k: twice a square (k = 2,
"2nsq") or a square (k = 1, "nsq").  Work is split into contiguous blocks of
BLOCK_WIDTH numbers, each scanned with one sieve call and one kernel call and
merged in block order, so the output is byte-identical for any worker count,
which is what makes golden-file and resume testing possible.  With N workers the
calling process scans alone until the blocks left pay for its helper processes,
at most N - 1 and fewer than the blocks left; then it scans its share and merges theirs.

sigma(q^alpha) mod m depends only on q mod m and alpha, so for each small m
and residue r one bitmask marks the alpha at which sigma(r^alpha) is a k*x^2
mod m (H. Cohen, A Course in Computational Algebraic Number Theory,
Alg. 1.7.3, along the alpha axis).  A block ANDs each prime's masks and the
alpha range; only the alphas whose bit survives get the exact sigma and
square test.  For k = 2 the mod-128 masks already clear every even alpha:
it makes sigma odd, and 2x^2 mod 128 is even.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, isqrt_exact, primes_between, sigma_prime_power
from .errors import CheckpointError, ConsistencyError

#: Numbers q per block: the unit that a worker scans with one sieve call and one kernel
#: call, a helper's pipe carries, a scan merges and a checkpoint saves after, and one
#: resume-recount sieve call.  2^18 is one primes_between segment.  A block's results cross
#: a helper's pipe in about 14 us, against 3.5-4.7 ms to scan it near q = 1e9; an atomic
#: write takes 0.1-0.2 ms (ext4, 2-CPU Xeon, CPython 3.11.7).
BLOCK_WIDTH = 1 << 18

#: Seconds that one helper process adds to a scan, which the parent weighs before each block:
#: about 5 ms, of which 0.9-1.5 ms in start(), 2.2-2.8 ms until the child runs its target,
#: 1.0-1.4 ms more for its first scan than for its next, and 0.9-1.2 ms in join() (medians
#: of 20 starts when helpers scanned 2^14 numbers at a time, 2-vCPU VM, CPython 3.11.7).
HELPER_START_S = 5e-3

#: The residue sieve's moduli: sigma(q^alpha) mod m depends on q mod m and alpha only.
_SIEVE_MODULI = (128, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
#: Residue r mod _SIEVE_MODULI[j] is row _SIEVE_ROWS[j] + r of a table.
_SIEVE_ROWS = np.cumsum(_SIEVE_MODULI) - _SIEVE_MODULI

#: The largest alpha_max a search accepts: the tables and each prime's mask
#: hold alpha_max // 64 + 1 words per row.  The paper's runs use alpha <= 1001.
ALPHA_MAX_BOUND = 10_000
#: The largest q_max a search accepts: the sieve holds every base prime below
#: sqrt(q_max), 16 MB of them at the bound, and its int64 arithmetic stays exact.
Q_MAX_BOUND = 1 << 48


#: The equations sigma(q^alpha) = k*n^2 a search tests, by k: each one's name
#: in identity(), the records and the CLI.
EQUATIONS = {2: "2nsq", 1: "nsq"}


@functools.cache
def _alpha_tables(k: int, words: int) -> np.ndarray:
    """Row offset + r for residue r mod each modulus m: the alpha < 64*words at
    which sigma(r^alpha) mod m is a k*x^2 mod m, as bit alpha % 64 of uint64
    word alpha // 64.  All rows step through alpha together."""
    m = np.repeat(_SIEVE_MODULI, _SIEVE_MODULI)
    offset = np.repeat(_SIEVE_ROWS, _SIEVE_MODULI)
    r = np.arange(len(m)) - offset
    square = np.zeros(len(m), dtype=bool)
    square[offset + k * r * r % m] = True  # row offset + x: is x a k*r^2 mod m?
    bits = np.empty((64 * words, len(m)), dtype=bool)
    power = sigma = np.ones_like(m)
    for alpha in range(64 * words):
        bits[alpha] = square[offset + sigma]
        power = power * r % m
        sigma = (sigma + power) % m
    table = np.packbits(bits, axis=0, bitorder="little").T.copy().view("<u8")
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SearchConfig:
    k: int
    q_min: int = 3
    q_max: int = 50_000
    alpha_min: int = 1
    alpha_max: int = 25
    residue_filter: int | None = None
    worker_count: int = 1
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        # type(k) is int: True and 2.0 compare equal to a key but name no equation
        if type(self.k) is not int or self.k not in EQUATIONS:
            raise ValueError(f"k must be one of {sorted(EQUATIONS)}, got {self.k!r}")
        # and every number is an int: 25.0 fails in the scan, 1.0 scans as 1 under another hash
        for name in ("q_min", "q_max", "alpha_min", "alpha_max", "worker_count", "residue_filter"):
            value = getattr(self, name)
            if type(value) is not int and (value is not None or name != "residue_filter"):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.q_min > self.q_max:
            raise ValueError(f"q_min {self.q_min} > q_max {self.q_max}")
        if self.q_max > Q_MAX_BOUND:
            raise ValueError(f"q_max must be <= {Q_MAX_BOUND}, got {self.q_max}")
        if self.alpha_min < 1:
            # alpha = 0 would make sigma(q^0) = 1 = 1^2 a degenerate hit
            raise ValueError(f"alpha_min must be >= 1, got {self.alpha_min}")
        if self.alpha_min > self.alpha_max:
            raise ValueError(f"alpha_min {self.alpha_min} > alpha_max {self.alpha_max}")
        if self.alpha_max > ALPHA_MAX_BOUND:
            raise ValueError(f"alpha_max must be <= {ALPHA_MAX_BOUND}, got {self.alpha_max}")
        if self.residue_filter not in (None, 1, 3):
            raise ValueError(f"residue_filter must be 1 or 3, got {self.residue_filter}")
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")
        # open() would take an int as a file descriptor, and close it
        if not isinstance(self.checkpoint_path, (str, type(None))):
            raise ValueError(f"checkpoint_path must be a str or None, got {self.checkpoint_path!r}")

    def identity(self) -> dict:
        """The fields that define what is searched (not how)."""
        fields = ("q_min", "q_max", "alpha_min", "alpha_max", "residue_filter")
        return {"equation": EQUATIONS[self.k], **{f: getattr(self, f) for f in fields}}

    def config_hash(self) -> str:
        """Digest of identity(): runs that differ only in how they run report alike."""
        return digest(self.identity())


@dataclass(frozen=True)
class SolutionRecord:
    """One (q, alpha, n) with sigma(q^alpha) = k*n^2 exactly."""

    k: int
    q: int
    alpha: int
    n: int
    split: tuple[int, int] | None = None

    def as_dict(self) -> dict:
        n1, n2 = self.split if self.split is not None else (None, None)
        return {
            "equation": EQUATIONS[self.k],
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


def _solution(k: int, q: int, alpha: int) -> SolutionRecord | None:
    """The record of (q, alpha) when sigma(q^alpha) = k*n^2, else None."""
    square, rem = divmod(sigma_prime_power(q, alpha), k)
    n = None if rem else isqrt_exact(square)
    if n is None:
        return None
    return SolutionRecord(k, q, alpha, n, split_solution(q, alpha, n) if k == 2 else None)


def _eligible(lo: int, hi: int, residue_filter: int | None) -> np.ndarray:
    """The primes q in [lo, hi] that the residue filter admits."""
    primes = primes_between(lo, hi)
    return primes if residue_filter is None else primes[primes % 4 == residue_filter]


def _alpha_masks(cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """cfg's residue tables and its alpha range [alpha_min, alpha_max] in the tables' words."""
    words = cfg.alpha_max // 64 + 1
    bits = (1 << cfg.alpha_max + 1) - (1 << cfg.alpha_min)
    return _alpha_tables(cfg.k, words), np.frombuffer(bits.to_bytes(8 * words, "little"), "<u8")


def _scan_block(cfg: SearchConfig, a: int, b: int) -> tuple:
    """(b, primes scanned, records in (q, alpha) order) of the block [a, b],
    from one sieve call and one kernel call."""
    primes = _eligible(a, b, cfg.residue_filter)
    return b, len(primes), _hits(cfg, primes)


def _hits(cfg: SearchConfig, primes: np.ndarray) -> list[SolutionRecord]:
    """cfg's records, in (q, alpha) order, at an ascending int64 array of primes:
    a prime's alpha mask ANDs its residue's row in each modulus's table and cfg's
    alpha window, and each alpha whose bit survives gets the exact test."""
    table, window = _alpha_masks(cfg)
    mask = np.tile(window, (len(primes), 1))
    for j, (m, row) in enumerate(zip(_SIEVE_MODULI, _SIEVE_ROWS), 1):
        mask &= table.take(primes % m + row, axis=0)
        # after every 5th modulus, keep only the primes that an alpha still survives at
        if j % 5 == 0:
            keep = mask.any(axis=1)
            primes, mask = primes[keep], mask[keep]
    # bit alpha of a row's words is bit alpha % 8 of its byte alpha // 8
    which, alphas = np.unpackbits(mask.view(np.uint8), axis=1, bitorder="little").nonzero()
    pairs = zip(primes[which].tolist(), alphas.tolist())
    records = [_solution(cfg.k, q, alpha) for q, alpha in pairs]
    return [record for record in records if record is not None]


def _blocks(lo: int, hi: int):
    """[lo, hi] from q = 2 on, as consecutive blocks of BLOCK_WIDTH numbers."""
    for a in range(max(lo, 2), hi + 1, BLOCK_WIDTH):
        yield a, min(a + BLOCK_WIDTH - 1, hi)


def run_search(cfg: SearchConfig) -> SearchReport:
    """Run the configured scan to completion.

    Results arrive in ascending (q, alpha) order whatever the worker count.
    With a checkpoint path configured, progress is saved after every merged block,
    and a previous run with the same config identity is continued instead of
    restarted; the final report is byte-identical either way.
    """
    done, records, scanned = cfg.q_min - 1, [], 0
    if cfg.checkpoint_path is not None and os.path.exists(cfg.checkpoint_path):
        done, records = checkpoint_resume(cfg)
        # re-derived, not read from disk: the primes up to the cursor
        recount = _blocks(cfg.q_min, done)
        scanned = sum(len(_eligible(lo, hi, cfg.residue_filter)) for lo, hi in recount)
    for done, count, hits in _block_results(cfg, done + 1):
        records += hits
        scanned += count
        if cfg.checkpoint_path is not None:
            checkpoint_save(cfg, done, records)
    # sigma(q^alpha) is odd for even alpha: never k*n^2 for an even k, for any scanned prime
    even = cfg.alpha_max // 2 - (cfg.alpha_min - 1) // 2
    skipped = even * scanned if cfg.k % 2 == 0 else 0
    return SearchReport(cfg, tuple(records), scanned, skipped)


def _block_results(cfg: SearchConfig, lo: int):
    """(last q, primes scanned, records) of each block of [lo, q_max], in order.

    The parent scans alone until the switch: the first block i at which the time
    since block 0 began, over the i blocks done, times the blocks left reaches w
    helper starts, for w = min(worker_count, blocks left, usable CPUs).  There helper j < w
    starts on blocks i + j, i + j + w, ..., the parent keeps i, i + w, ..., and it
    reads each helper's blocks from its pipe in order.  However the scan ends, every
    helper is then killed and joined: nothing it could still send is read.
    """
    # the tables, built before block 0, are no scan time, and forked helpers inherit them
    _alpha_masks(cfg)
    blocks = len(range(max(lo, 2), cfg.q_max + 1, BLOCK_WIDTH))
    helpers, switch, start = [], None, time.perf_counter()
    try:
        for i, (a, b) in enumerate(_blocks(lo, cfg.q_max)):
            if switch is None:
                w = min(cfg.worker_count, blocks - i, _usable_cpus())
                spent = time.perf_counter() - start if i else 0.0
                if spent / max(i, 1) * (blocks - i) >= w * HELPER_START_S:
                    switch = i
                    for j in range(1, w):
                        helpers.append(_start_helper(cfg, a, j, w))
            turn = 0 if switch is None else (i - switch) % (len(helpers) + 1)
            if turn:
                yield _receive(helpers[turn - 1][1], a, b)
            else:
                yield _scan_block(cfg, a, b)
    finally:
        for process, pipe in helpers:
            process.kill()
            process.join()
            pipe.close()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _start_helper(cfg: SearchConfig, lo: int, first: int, step: int):
    """(process, receiving end of its pipe) of a started helper for _helper."""
    pipe, send = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(target=_helper, args=(send, cfg, lo, first, step))
    process.daemon = True
    process.start()
    # the helper now holds the only send end, so its death is an EOF here,
    # and no helper forked later inherits this one
    send.close()
    return process, pipe


def _helper(send, cfg: SearchConfig, lo: int, first: int, step: int) -> None:
    """In a helper process: send the results of blocks first, first + step, ...
    of [lo, q_max] in turn, or what stopped the scan, for the parent to raise."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # only the parent handles Ctrl-C
    try:
        for a, b in itertools.islice(_blocks(lo, cfg.q_max), first, None, step):
            send.send(_scan_block(cfg, a, b))
    except BaseException as exc:
        with contextlib.suppress(OSError):  # the parent is gone: no one to tell
            send.send(exc)


def _receive(pipe, a: int, b: int) -> tuple:
    """A helper's results for block [a, b]; what the helper raised is raised here."""
    try:
        result = pipe.recv()
    except EOFError:
        raise ChildProcessError(f"a search helper died before it sent block [{a}, {b}]") from None
    if isinstance(result, BaseException):
        raise result
    return result


def checkpoint_save(cfg: SearchConfig, q_done: int, records: list[SolutionRecord]) -> None:
    """Atomically write cfg's checkpoint; an existing file is never corrupted.

    The record holds the search identity, the largest q whose block is done,
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
    """The largest q cfg's checkpoint has done, and the hits up to it, rescanned.

    Raises CheckpointError unless the file matches its digest and cfg, its
    cursor fits cfg's q-range, and its hits are, in order, exactly those the
    kernel finds at the stored q that cfg scans (README, "Long searches").
    The digest is a checksum, not a signature: a q dropped with all its hits
    and the digest re-sealed goes unseen, so only a run without a checkpoint
    backs a claim that a range is empty.
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
    # the stored q that cfg scans; the kernel alone would accept a composite q: sigma(8) = 3^2
    listed = sorted({p[0] for p in pairs if type(p) is list and p and type(p[0]) is int})
    qs = [q for q in listed if cfg.q_min <= q <= done and cfg.residue_filter in (None, q % 4)]
    records = _hits(cfg, np.array([q for q in qs if is_prime(q)], dtype=np.int64))
    found = [[r.q, r.alpha] for r in records]
    # canonical JSON, not ==: a JSON true or 1.0 equals 1 but is no alpha
    if canonical_json(found) != canonical_json(pairs):
        known = set(map(canonical_json, found))
        stray = [text for text in map(canonical_json, pairs) if text not in known]
        raise CheckpointError(
            f"checkpoint {path} holds a hit this search does not find: {stray[0]}" if stray
            else f"checkpoint {path} misses, repeats or misorders a hit this search finds"
        )
    return done, records
