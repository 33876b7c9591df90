"""Tests for the Diophantine search engine and its checkpointing."""
from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import math
import multiprocessing
import os
import pickle
import random
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddperfect.arith import primes_upto
import oddperfect.cli
import oddperfect.search
from oddperfect.errors import CheckpointError, ConsistencyError
from oddperfect.quadratic import QuadInt
from oddperfect.search import (
    EQUATIONS,
    SearchConfig,
    SearchReport,
    SolutionRecord,
    checkpoint_resume,
    checkpoint_save,
    digest,
    run_search,
    split_solution,
)

from _oracles import (
    PRIME_COUNTS_1E7,
    is_prime_trial,
    predicted_hits,
    primes_in,
    residue_survivors,
    scan_shard_isqrt,
    search_solutions,
    sigma_prime_power_sum,
    v2_int,
)

#: k = 2 and k = 1, by the name of their equation.
KS = [pytest.param(2, id="2nsq"), pytest.param(1, id="nsq")]

#: Block width that splits q <= 3000 into 4 blocks, as many as the 128-prime
#: shards these tests were written for.
NARROW = 750


def two_nsq(**kw):
    return SearchConfig(2, **kw)


def nsq(**kw):
    return SearchConfig(1, **kw)


def interrupt_at_block(monkeypatch, k):
    """Make run_search raise KeyboardInterrupt as it takes its k-th block (0-based)."""
    real = oddperfect.search._block_results

    def results(cfg, lo):
        with contextlib.closing(real(cfg, lo)) as scan:
            for i, result in enumerate(scan):
                if i == k:
                    raise KeyboardInterrupt
                yield result

    monkeypatch.setattr(oddperfect.search, "_block_results", results)


def block_width(monkeypatch, width):
    """Scan, merge and save in blocks of width numbers."""
    monkeypatch.setattr(oddperfect.search, "BLOCK_WIDTH", width)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            two_nsq(q_min=100, q_max=10)
        with pytest.raises(ValueError):
            two_nsq(alpha_min=0)
        with pytest.raises(ValueError):
            two_nsq(alpha_min=9, alpha_max=3)
        with pytest.raises(ValueError):
            two_nsq(residue_filter=2)
        with pytest.raises(ValueError):
            two_nsq(worker_count=0)

    @pytest.mark.parametrize("k", ["nsq", "cube", 0, 3, True, 2.0])
    def test_equation_must_be_a_member(self, k):
        # k names the equation: True and 2.0 equal a key of EQUATIONS but are no int
        with pytest.raises(ValueError, match=r"k must be one of \[1, 2\]"):
            SearchConfig(k, q_max=100)

    @pytest.mark.parametrize("field, value", [
        ("q_max", 1e5), ("q_min", 3.5), ("alpha_max", 25.0), ("worker_count", 2.0),
        ("residue_filter", 1.0), ("residue_filter", True), ("alpha_min", True),
    ])
    def test_numbers_must_be_ints(self, field, value):
        # each would fail in the scan, or search as the int it equals under another hash
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$"):
            two_nsq(**{field: value})

    @pytest.mark.parametrize("path", [3, b"scan.ckpt", 3.0], ids=["fd", "bytes", "float"])
    def test_checkpoint_path_must_be_a_str(self, path):
        # open() would take the int 3 as a file descriptor, read it and close it
        with pytest.raises(ValueError, match=f"^checkpoint_path must be a str or None, got {path!r}$"):
            two_nsq(q_max=200, alpha_max=3, checkpoint_path=path)

    def test_hash_ignores_execution_knobs(self):
        a = nsq(q_max=100, worker_count=8, checkpoint_path="/anywhere")
        b = nsq(q_max=100)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != nsq(q_max=101).config_hash()


class TestTwoNSquared:
    def test_small_range_hits(self):
        records = run_search(two_nsq(q_min=3, q_max=100, alpha_max=9)).records
        by_key = {(r.q, r.alpha): r for r in records}
        assert by_key[(7, 1)].n == 2 and by_key[(7, 1)].split == (1, 2)
        assert by_key[(17, 1)].n == 3 and by_key[(17, 1)].split == (1, 3)
        assert by_key[(31, 1)].n == 4 and by_key[(31, 1)].split == (1, 4)

    def test_even_alpha_only_range_is_empty(self):
        assert run_search(two_nsq(q_min=3, q_max=3, alpha_min=2, alpha_max=2)).records == ()

    def test_records_satisfy_equation(self):
        for r in run_search(two_nsq(q_max=300, alpha_max=9)).records:
            assert 2 * r.n**2 == sigma_prime_power_sum(r.q, r.alpha)

    def test_split_equations_reverify(self):
        for r in run_search(two_nsq(q_max=300, alpha_max=9)).records:
            n1, n2 = r.split
            half = r.q ** ((r.alpha + 1) // 2)
            assert (r.q - 1) * n1**2 == half - 1
            assert 2 * n2**2 == half + 1
            assert n1 * n2 == r.n

    def test_norm_cross_check(self):
        # the split ties back to the order: norm(1 + n1 sqrt(1-q)) = q^((a+1)/2)
        for r in run_search(two_nsq(q_max=300, alpha_max=9)).records:
            n1, _ = r.split
            assert QuadInt(1 - r.q, 1, n1).norm() == r.q ** ((r.alpha + 1) // 2)


class TestNSquared:
    def test_small_range_hits(self):
        records = run_search(nsq(q_min=3, q_max=100, alpha_max=9)).records
        triples = [(r.q, r.alpha, r.n) for r in records]
        assert (3, 1, 2) in triples
        assert (7, 3, 20) in triples
        assert all(r.split is None for r in records)

    def test_records_satisfy_equation(self):
        for r in run_search(nsq(q_max=300, alpha_max=9)).records:
            assert r.n**2 == sigma_prime_power_sum(r.q, r.alpha)

    def test_residue_one_empty(self):
        cfg = nsq(q_min=5, q_max=2000, alpha_max=12, residue_filter=1)
        assert run_search(cfg).records == ()


class TestResidueExclusivity:
    def test_no_forbidden_hits_in_unfiltered_runs(self):
        # the theorems say these shapes cannot occur, filter or not
        for r in run_search(two_nsq(q_max=2000, alpha_max=12)).records:
            assert not (r.q % 4 == 1 and r.alpha > 1), r
        for r in run_search(nsq(q_max=2000, alpha_max=12)).records:
            assert r.q % 4 != 1, r


class TestOracleEquivalence:
    @pytest.mark.parametrize("k", KS)
    def test_matches_naive_double_loop(self, k):
        cfg = SearchConfig(k, q_min=3, q_max=200, alpha_min=1, alpha_max=6)
        got = [(r.q, r.alpha, r.n) for r in run_search(cfg).records]
        assert got == search_solutions(EQUATIONS[k], 3, 200, 1, 6)

    def test_residue_filter_matches_oracle(self):
        cfg = two_nsq(q_min=3, q_max=200, alpha_max=6, residue_filter=3)
        got = [(r.q, r.alpha, r.n) for r in run_search(cfg).records]
        assert got == search_solutions("2nsq", 3, 200, 1, 6, residue_filter=3)


def oracle_jsonl(cfg: SearchConfig) -> str:
    """cfg's JSONL report from the isqrt-per-pair kernel over the plain sieve."""
    primes = [q for q in primes_in(cfg.q_min, cfg.q_max) if cfg.residue_filter in (None, q % 4)]
    hits = scan_shard_isqrt((tuple(primes), cfg.k, cfg.alpha_min, cfg.alpha_max))
    even = sum(1 for a in range(cfg.alpha_min, cfg.alpha_max + 1) if a % 2 == 0)
    skip = even if cfg.k == 2 else 0
    records = tuple(SolutionRecord(cfg.k, *hit) for hit in hits)
    return SearchReport(cfg, records, len(primes), skip * len(primes)).to_jsonl()


# the search configs of acceptance criteria 01, 02 (both), 03 and 09 (both)
CRITERIA = [
    two_nsq(q_max=50_000, alpha_min=3, residue_filter=1),
    nsq(q_max=50_000, residue_filter=1),
    nsq(q_max=50_000),
    two_nsq(q_max=200, alpha_max=1),
    two_nsq(q_max=500, alpha_max=8),
    nsq(q_max=500, alpha_max=8),
]


def record_exact_tests(monkeypatch) -> list:
    """The (q, alpha) of every exact test the kernel makes from now on."""
    real, tested = oddperfect.search._solution, []

    def solution(k, q, alpha):
        tested.append((q, alpha))
        return real(k, q, alpha)

    monkeypatch.setattr(oddperfect.search, "_solution", solution)
    return tested


#: The residue sieve's moduli, listed here so that a change to them shows.
SIEVE_MODULI = (128, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


class TestKernelAgainstOracle:
    # at a helper cost of 0 the helpers start before block 0, so real helpers meet the
    # oracle, on blocks of NARROW numbers
    @pytest.mark.parametrize("jobs, cost", [(1, None), (2, None), (8, None), (2, 0), (8, 0)],
                             ids=["1", "2", "8", "2_cost_0", "8_cost_0"])
    @pytest.mark.parametrize("cfg", CRITERIA, ids=["c01", "c02", "c02_contrast", "c03",
                                                   "c09_2nsq", "c09_nsq"])
    def test_criterion_configs(self, monkeypatch, cfg, jobs, cost):
        if cost is not None:
            monkeypatch.setattr(oddperfect.search, "HELPER_START_S", cost)
            block_width(monkeypatch, NARROW)
        assert run_search(replace(cfg, worker_count=jobs)).to_jsonl() == oracle_jsonl(cfg)

    @pytest.mark.parametrize("cfg", [
        nsq(q_min=2, q_max=2, alpha_max=60),
        nsq(q_min=2, q_max=40, alpha_max=12),
        two_nsq(q_min=2, q_max=40, alpha_max=12),
        nsq(q_min=7, q_max=7, alpha_max=9),
        two_nsq(q_min=7, q_max=7, alpha_max=9),
        two_nsq(q_min=8, q_max=8),
        two_nsq(q_min=2, q_max=3000, alpha_max=40),
        two_nsq(q_min=2, q_max=3000, alpha_min=2, alpha_max=2),
        two_nsq(q_min=2, q_max=3000, alpha_min=4, alpha_max=9),
        nsq(q_min=2, q_max=3000, alpha_min=4, alpha_max=9),
        two_nsq(q_min=2, q_max=3000, alpha_min=1, alpha_max=1),
        two_nsq(q_min=2, q_max=3000, alpha_min=7, alpha_max=7),
        nsq(q_min=2, q_max=3000, alpha_min=3, alpha_max=3),
    ], ids=["q_2", "from_q_2_nsq", "from_q_2_2nsq", "one_prime_nsq", "one_prime_2nsq",
            "one_composite", "alpha_1_hits_2nsq", "alpha_2_2nsq", "alpha_4_to_9_2nsq",
            "alpha_4_to_9_nsq", "alpha_1_2nsq", "alpha_7_2nsq", "alpha_3_nsq"])
    def test_edge_ranges(self, cfg):
        assert run_search(cfg).to_jsonl() == oracle_jsonl(cfg)

    @settings(deadline=None, max_examples=200)
    @given(
        k=st.sampled_from(list(EQUATIONS)),
        q_min=st.integers(min_value=1, max_value=5000),
        width=st.integers(min_value=0, max_value=1500),
        alpha_min=st.integers(min_value=1, max_value=30),
        alpha_width=st.integers(min_value=0, max_value=30),
        residue_filter=st.sampled_from([None, 1, 3]),
    )
    def test_random_windows(self, k, q_min, width, alpha_min, alpha_width, residue_filter):
        cfg = SearchConfig(k, q_min=q_min, q_max=q_min + width, alpha_min=alpha_min,
                           alpha_max=alpha_min + alpha_width, residue_filter=residue_filter)
        assert run_search(cfg).to_jsonl() == oracle_jsonl(cfg)

    @pytest.mark.parametrize("k", [2, 1], ids=["2nsq-2", "nsq-1"])
    def test_q_beyond_the_square_root_of_int64(self, monkeypatch, k):
        # q^2 > 2^63 here; the window holds the 2nsq hit q = 2*46368^2 - 1 = 4299982847
        cfg = SearchConfig(k, q_min=4_299_980_000, q_max=4_299_980_000 + (1 << 12) - 1,
                           alpha_max=101)
        assert cfg.q_min**2 > 2**63
        tested = record_exact_tests(monkeypatch)
        assert run_search(cfg).to_jsonl() == oracle_jsonl(cfg)
        assert sorted(tested) == residue_survivors(cfg, k, SIEVE_MODULI)

    @pytest.mark.parametrize("k", [2, 1], ids=["2nsq-2", "nsq-1"])
    def test_large_q_and_alpha(self, monkeypatch, k):
        # alpha up to 101 spans two words of the tables; the window holds the
        # 2nsq hit q = 2*7076^2 - 1 = 100139551
        cfg = SearchConfig(k, q_min=100_100_000, q_max=100_100_000 + (1 << 16) - 1,
                           alpha_max=101)
        tested = record_exact_tests(monkeypatch)
        assert run_search(cfg).to_jsonl() == oracle_jsonl(cfg)
        assert sorted(tested) == residue_survivors(cfg, k, SIEVE_MODULI)
        if k == 2:
            # an even alpha makes sigma odd: none is ever tested
            assert tested and all(alpha % 2 for _, alpha in tested)

    def test_sieve_moduli(self):
        assert oddperfect.search._SIEVE_MODULI == SIEVE_MODULI


class TestAlphaTables:
    @pytest.mark.parametrize("k", [2, 1])
    def test_every_bit_against_exact_sigma(self, k):
        # alpha <= 130 crosses the word boundaries at 64 and 128
        table = oddperfect.search._alpha_tables(k, 3)
        assert table.shape == (sum(SIEVE_MODULI), 3)
        rows = iter(table.tolist())
        for m in SIEVE_MODULI:
            squares = {k * x * x % m for x in range(m)}
            for r in range(m):
                words, sigma = next(rows), 0
                for alpha in range(131):
                    sigma += r**alpha  # sigma(r^alpha), exact: 0^0 = 1
                    bit = words[alpha // 64] >> alpha % 64 & 1
                    assert bit == (sigma % m in squares), (k, m, r, alpha)

    def test_two_nsq_mod_128_rows_clear_every_even_alpha(self):
        # an even alpha makes sigma odd, and 2x^2 mod 128 is even: the search
        # needs no parity mask of its own for k = 2
        rows = oddperfect.search._alpha_tables(2, 16)[:128]
        assert SIEVE_MODULI[0] == 128
        assert not (rows & 0x5555_5555_5555_5555).any()
        assert (rows & 0xAAAA_AAAA_AAAA_AAAA).any()

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("alpha_min, alpha_max", [
        (1, 1), (1, 63), (3, 64), (2, 130), (63, 128), (64, 64), (101, 1001),
    ])
    def test_alpha_window(self, k, alpha_min, alpha_max):
        cfg = SearchConfig(k, alpha_min=alpha_min, alpha_max=alpha_max)
        table, window = oddperfect.search._alpha_masks(cfg)
        words = window.tolist()
        assert len(words) == table.shape[1] == alpha_max // 64 + 1
        got = {a for a in range(64 * len(words)) if words[a // 64] >> a % 64 & 1}
        assert got == set(range(alpha_min, alpha_max + 1))

    def test_tables_are_shared_and_read_only(self):
        table, _ = oddperfect.search._alpha_masks(two_nsq(alpha_max=101))
        assert table is oddperfect.search._alpha_masks(two_nsq(alpha_min=7, alpha_max=127))[0]
        assert not table.flags.writeable


class TestAlphaBound:
    def test_bound_is_enforced(self):
        bound = oddperfect.search.ALPHA_MAX_BOUND
        assert bound == 10_000
        assert nsq(alpha_max=bound).alpha_max == bound
        with pytest.raises(ValueError, match="alpha_max must be <= 10000"):
            nsq(alpha_max=bound + 1)


class TestCoverageAccounting:
    def test_scanned_and_skipped_counts(self):
        report = run_search(two_nsq(q_min=3, q_max=100, alpha_max=9))
        eligible = [p for p in primes_upto(100) if p >= 3]
        assert report.scanned_primes == len(eligible)
        # alphas 2, 4, 6, 8 are parity-skipped for every scanned prime
        assert report.skipped_even_alpha == 4 * len(eligible)

    def test_nsq_never_skips(self):
        report = run_search(nsq(q_min=3, q_max=100, alpha_max=9))
        assert report.skipped_even_alpha == 0

    def test_summary_object(self):
        report = run_search(two_nsq(q_max=50, alpha_max=5))
        summary = report.summary()
        assert set(summary) == {"scanned_primes", "skipped_even_alpha", "hits", "config_hash"}
        assert summary["hits"] == len(report.records)
        assert summary["config_hash"] == report.config.config_hash()


class TestJsonl:
    def test_round_trips_and_ends_with_summary(self):
        report = run_search(two_nsq(q_max=100, alpha_max=9))
        lines = report.to_jsonl().splitlines()
        objects = [json.loads(line) for line in lines]
        assert objects[-1] == report.summary()
        for obj in objects[:-1]:
            assert set(obj) == {"equation", "q", "alpha", "n", "n1", "n2"}
            assert obj["equation"] == "2nsq"

    def test_nsq_records_have_null_split(self):
        report = run_search(nsq(q_max=10, alpha_max=2))
        first = json.loads(report.to_jsonl().splitlines()[0])
        assert first["n1"] is None and first["n2"] is None


class TestSplitSolution:
    def test_hand_checked_splits(self):
        assert split_solution(7, 1, 2) == (1, 2)
        assert split_solution(17, 1, 3) == (1, 3)
        assert split_solution(31, 1, 4) == (1, 4)

    def test_even_alpha_rejected(self):
        with pytest.raises(ValueError):
            split_solution(7, 2, 2)

    def test_non_solution_aborts_loudly(self):
        with pytest.raises(ConsistencyError):
            split_solution(13, 3, 5)


class TestWorkerDeterminism:
    def test_output_identical_for_1_2_8_workers(self):
        outputs = [
            run_search(two_nsq(q_max=2500, alpha_max=9, worker_count=w)).to_jsonl()
            for w in (1, 2, 8)
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("cfg", [
        two_nsq(q_min=3, q_max=50_000, alpha_min=3, alpha_max=25, residue_filter=1),
        nsq(q_min=3, q_max=50_000, alpha_min=1, alpha_max=25, residue_filter=1),
        nsq(q_min=3, q_max=50_000, alpha_min=1, alpha_max=25),
        two_nsq(q_min=3, q_max=200, alpha_min=1, alpha_max=1),
    ], ids=["2nsq_mod4_1", "nsq_mod4_1", "nsq", "2nsq_one_shard"])
    def test_criterion_10_configs_with_helpers_from_shard_0(self, monkeypatch, tmp_path, cfg):
        # criterion 10's blocks are too few to pay for a helper; here helpers start at
        # once, on blocks of NARROW numbers
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 3)
        block_width(monkeypatch, NARROW)
        real, started = oddperfect.search._start_helper, []

        def start(*args):
            started.append(args)
            return real(*args)

        monkeypatch.setattr(oddperfect.search, "_start_helper", start)
        blocks = len(range(cfg.q_min, cfg.q_max + 1, NARROW))
        runs = []
        for w in (1, 2, 3, 8):
            path = tmp_path / f"jobs_{w}.ckpt"
            report = run_search(replace(cfg, worker_count=w, checkpoint_path=str(path)))
            assert len(started) == min(w, blocks, 3) - 1
            started.clear()
            runs.append((report.to_jsonl(), path.read_bytes()))
        assert runs == [runs[0]] * 4


@pytest.fixture
def fake_helpers(monkeypatch):
    """A helper launcher that starts no process: a helper scans its next block
    in this process when the parent reads from its pipe.  Helpers cost
    nothing to start, so the parent starts them before block 0.

    It records each helper's (first, step), its payload as pickled, how many
    residue tables were built when it started, how many blocks the parent
    has read, and the (first, q) at which each helper's blocks begin.
    """
    seen = SimpleNamespace(strides=[], payloads=[], tables=[], received=0, scanned=[])
    monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)

    def start(*payload):
        cfg, lo, first, step = payload
        seen.strides.append((first, step))
        seen.payloads.append(pickle.dumps(payload))
        seen.tables.append(oddperfect.search._alpha_tables.cache_info().currsize)
        blocks = itertools.islice(oddperfect.search._blocks(lo, cfg.q_max), first, None, step)

        def recv():
            seen.received += 1
            a, b = next(blocks)
            seen.scanned.append((first, a))
            return oddperfect.search._scan_block(cfg, a, b)

        process = SimpleNamespace(kill=lambda: None, join=lambda: None)
        return process, SimpleNamespace(recv=recv, close=lambda: None)

    monkeypatch.setattr(oddperfect.search, "_start_helper", start)
    return seen


class TestWorkerCap:
    @pytest.mark.parametrize("q_max, cpus, helpers", [
        (3000, 64, 3),
        (3000, 3, 2),
        (3000, None, 0),
        (500, 64, 0),
    ], ids=["4_shards", "3_cpus", "cpus_unknown", "1_shard"])
    def test_pool_never_exceeds_shards_or_cpus(
        self, monkeypatch, fake_helpers, q_max, cpus, helpers
    ):
        # the parent and its helpers: at most min(jobs, blocks, CPUs) processes
        block_width(monkeypatch, NARROW)
        if cpus is None:  # no affinity mask, and os.cpu_count() does not know
            monkeypatch.delattr(oddperfect.search.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(oddperfect.search.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: cpus)
        report = run_search(two_nsq(q_max=q_max, alpha_max=9, worker_count=100_000))
        assert fake_helpers.strides == [(j, helpers + 1) for j in range(1, helpers + 1)]
        assert report.to_jsonl() == run_search(two_nsq(q_max=q_max, alpha_max=9)).to_jsonl()

    @pytest.mark.parametrize("affinity, count, usable", [
        ({0}, 2, 1), ({0, 1, 2}, None, 3), (None, 5, 5), (None, None, 1),
    ], ids=["pinned", "count_unknown", "no_affinity", "nothing_known"])
    def test_only_cpus_this_process_may_use_count(self, monkeypatch, affinity, count, usable):
        if affinity is None:
            monkeypatch.delattr(oddperfect.search.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(oddperfect.search.os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        monkeypatch.setattr(oddperfect.search.os, "cpu_count", lambda: count)
        assert oddperfect.search._usable_cpus() == usable

    def test_shards_in_flight_are_bounded(self, monkeypatch, fake_helpers):
        # the parent holds at most one block per helper that it has not merged yet
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 3)
        block_width(monkeypatch, 100)
        cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=3)
        from_helpers = 0
        for i, _ in enumerate(oddperfect.search._block_results(cfg, cfg.q_min)):
            from_helpers += i % 3 != 0
            assert 0 <= fake_helpers.received - from_helpers <= 2
        # 30 blocks, 20 of them from the two helpers, every one merged
        assert i == 29 and fake_helpers.received == from_helpers == 20

    def test_helper_payload_does_not_grow_with_the_shards(self, monkeypatch, fake_helpers):
        # a helper is told where its blocks start and how far apart they lie, not each block
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        block_width(monkeypatch, 100)
        for q_max in (102_999, 3_099_999):  # 30 and 30 000 blocks
            cfg = two_nsq(q_min=100_000, q_max=q_max, alpha_max=9, worker_count=2)
            scan = oddperfect.search._block_results(cfg, cfg.q_min)
            next(scan)
            scan.close()
        small, large = fake_helpers.payloads
        assert len(small) == len(large) and small != large

    def test_tables_are_built_before_the_pool_starts(self, monkeypatch, fake_helpers):
        # forked helpers inherit them instead of each building its own
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        block_width(monkeypatch, NARROW)
        oddperfect.search._alpha_tables.cache_clear()
        run_search(two_nsq(q_max=3000, alpha_max=9, worker_count=2))
        assert fake_helpers.tables == [1]


_real_scan_block = oddperfect.search._scan_block


def interrupt_first_block_hold_others(cfg, a, b):
    """A block scan for real helpers: the first block raises KeyboardInterrupt,
    every other one first sleeps 2 s.  Module-level, so that it pickles.
    """
    if a < NARROW:
        raise KeyboardInterrupt
    time.sleep(2)
    return _real_scan_block(cfg, a, b)


class TestPoolLifetime:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(oddperfect.search.os, "cpu_count", lambda: 2)
        block_width(monkeypatch, NARROW)
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)  # helpers from block 0

    def test_workers_exit_before_the_call_returns(self):
        before = set(multiprocessing.active_children())
        report = run_search(two_nsq(q_max=3000, alpha_max=9, worker_count=2))
        assert set(multiprocessing.active_children()) - before == set()
        assert report.to_jsonl() == run_search(two_nsq(q_max=3000, alpha_max=9)).to_jsonl()

    def test_interrupt_does_not_wait_for_running_shards(self, monkeypatch):
        monkeypatch.setattr(oddperfect.search, "_scan_block", interrupt_first_block_hold_others)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_search(two_nsq(q_max=3000, alpha_max=9, worker_count=2))
        assert time.monotonic() - start < 1


def slow_helpers(monkeypatch, fail_at=None, exc=None):
    """Make each block a helper scans take 2 s, except the one starting at
    fail_at, which raises exc at once; the parent scans as before."""
    parent = os.getpid()

    def scan(cfg, a, b):
        if os.getpid() != parent:
            if a == fail_at:
                raise exc
            time.sleep(2)
        return _real_scan_block(cfg, a, b)

    monkeypatch.setattr(oddperfect.search, "_scan_block", scan)


# 4 blocks of NARROW numbers, scanned by the parent and two helpers at --jobs 3
THREE_WORKERS = ["search", "--equation", "2nsq", "--q-max", "3000", "--alpha-max", "9",
                 "--jobs", "3", "--format", "jsonl"]

#: Runs THREE_WORKERS (argv) in a fresh interpreter whose second helper dies at
#: its first block, then reports the children still alive on stderr.
DEAD_HELPER = f"""
import multiprocessing, os, sys
from oddperfect import cli, search
search.BLOCK_WIDTH = {NARROW}
search.HELPER_START_S = 0
search._usable_cpus = lambda: 3
scan = search._scan_block
search._scan_block = lambda cfg, a, b: os._exit(1) if a == 3 + 2 * {NARROW} else scan(cfg, a, b)
code = cli.run(sys.argv[1:])
print(f"children={{len(multiprocessing.active_children())}}", file=sys.stderr)
sys.exit(code)
"""


class TestHelperFailures:
    """A helper's failure reaches the parent as the same exception, or as a
    ChildProcessError when the helper died, and no helper outlives the scan."""

    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 3)
        block_width(monkeypatch, NARROW)
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)  # helpers from block 0
        self.before = set(multiprocessing.active_children())
        yield
        assert set(multiprocessing.active_children()) - self.before == set()

    def test_consistency_error_exits_two(self, monkeypatch, capsys):
        slow_helpers(monkeypatch, NARROW + 3, ConsistencyError("injected at block 753"))
        start = time.monotonic()
        assert oddperfect.cli.run(THREE_WORKERS) == 2
        assert time.monotonic() - start < 1.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "theorem violation: injected at block 753\n"

    def test_keyboard_interrupt_stops_the_scan(self, monkeypatch, tmp_path):
        slow_helpers(monkeypatch, NARROW + 3, KeyboardInterrupt())
        path = tmp_path / "scan.ckpt"
        cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=3, checkpoint_path=str(path))
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_search(cfg)
        assert time.monotonic() - start < 1.5
        # the parent's own block 0 was merged, the helper's block 1 was not
        assert json.loads(path.read_text())["q_done"] == NARROW + 2

    def test_abandoned_scan_stops_its_helpers(self, monkeypatch):
        slow_helpers(monkeypatch)
        cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=3)
        scan = oddperfect.search._block_results(cfg, cfg.q_min)
        start = time.monotonic()
        next(scan)  # block 0, the parent's own
        assert len(set(multiprocessing.active_children()) - self.before) == 2
        scan.close()
        assert time.monotonic() - start < 1

    def test_dead_helper_is_a_one_line_io_error(self, capsys, tmp_path):
        path = tmp_path / "scan.ckpt"
        argv = [*THREE_WORKERS, "--checkpoint", str(path)]
        env = {**os.environ, "PYTHONPATH": str(Path(oddperfect.search.__file__).parents[1])}
        # in a child with a timeout: a parent that waits for a dead helper hangs
        child = subprocess.run([sys.executable, "-c", DEAD_HELPER, *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 3 and child.stdout == ""
        assert child.stderr.splitlines() == [
            f"i/o error: a search helper died before it sent block [{2 * NARROW + 3}, 2252]",
            "children=0",
        ]
        # blocks 0 and 1 were merged; resumed here, the scan runs the other two
        assert json.loads(path.read_text())["q_done"] == 2 * NARROW + 2
        assert oddperfect.cli.run(argv) == 0
        resumed = capsys.readouterr().out
        assert oddperfect.cli.run(THREE_WORKERS) == 0
        assert resumed == capsys.readouterr().out


#: The cost of starting a helper as the module sets it, before any test patches it.
HELPER_START_S = oddperfect.search.HELPER_START_S


def slow_parent_clock(monkeypatch, seconds=0.5):
    """Make the search's clock say that each block the parent scans takes seconds."""
    ticks = itertools.count(0, seconds)
    clock = SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(oddperfect.search, "time", clock)


def record_cursors(monkeypatch) -> list:
    """The q_done of every checkpoint the search writes from now on."""
    real, cursors = oddperfect.search.checkpoint_save, []

    def save(cfg, q_done, records):
        cursors.append(q_done)
        real(cfg, q_done, records)

    monkeypatch.setattr(oddperfect.search, "checkpoint_save", save)
    return cursors


#: Takes the first block of a scan up to Q_MAX_BOUND at --jobs 2, with the
#: helper cost as set and at 0, and prints that block's last q and the seconds
#: it took.
FIRST_OF_MANY = """
import sys, time
from oddperfect import search
search._usable_cpus = lambda: 2
for cost in (search.HELPER_START_S, 0):
    search.HELPER_START_S = cost
    cfg = search.SearchConfig(2, q_max=search.Q_MAX_BOUND, alpha_max=9, worker_count=2)
    start = time.perf_counter()
    scan = search._block_results(cfg, cfg.q_min)
    print(next(scan)[0], time.perf_counter() - start)
    scan.close()
"""


def _limit_address_space():
    """Runs in the child between fork and exec: 512 MB, and this process is not limited."""
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


class TestHelperStart:
    """The parent scans alone until the time its blocks still need pays for
    starting the helpers; the blocks, the output and the checkpoints stay the same."""

    def test_a_few_fast_shards_start_no_helper(self, monkeypatch, fake_helpers):
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", HELPER_START_S)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        block_width(monkeypatch, NARROW)
        cfg = two_nsq(q_max=3000, alpha_max=9)
        expected = run_search(cfg).to_jsonl()  # and now the sieve's caches are warm
        # 4 blocks of about 0.2 ms: before block 1 a helper would save 0.3 ms of the 0.6 ms left
        assert run_search(replace(cfg, worker_count=2)).to_jsonl() == expected
        assert fake_helpers.strides == []

    def test_the_table_build_is_no_shard_time(self, monkeypatch, fake_helpers):
        # a process's first search builds its residue tables, which no helper would speed up
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", HELPER_START_S)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        block_width(monkeypatch, NARROW)
        cfg = two_nsq(q_max=3000, alpha_max=9)
        expected = run_search(cfg).to_jsonl()  # and now the sieve's caches are warm
        build = oddperfect.search._alpha_tables
        slow = functools.cache(lambda k, words: time.sleep(0.1) or build(k, words))
        monkeypatch.setattr(oddperfect.search, "_alpha_tables", slow)
        assert run_search(replace(cfg, worker_count=2)).to_jsonl() == expected
        assert slow.cache_info().currsize == 1 and fake_helpers.strides == []

    def test_slow_shards_start_the_helpers_after_the_first(
        self, monkeypatch, fake_helpers, tmp_path
    ):
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", HELPER_START_S)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 3)
        block_width(monkeypatch, 400)
        slow_parent_clock(monkeypatch)
        cursors = record_cursors(monkeypatch)
        runs = []
        for jobs in (1, 3):
            path = tmp_path / f"jobs_{jobs}.ckpt"
            cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=jobs, checkpoint_path=str(path))
            runs.append((run_search(cfg).to_jsonl(), path.read_bytes(), cursors[:]))
            cursors.clear()
        assert runs[0] == runs[1]
        assert runs[0][2] == [2 + 400 * i for i in range(1, 8)] + [3000]
        # q in [3, 3000] in 8 blocks of 400 (the last of 198): helper j takes
        # blocks 1 + j, 1 + j + 3, ...
        assert fake_helpers.strides == [(1, 3), (2, 3)]
        assert sorted(fake_helpers.scanned) == [
            (j, 3 + 400 * i) for j in (1, 2) for i in range(1 + j, 8, 3)
        ]

    @pytest.mark.parametrize("cost, strides", [(0.75, [(1, 2)]), (0.76, [])],
                             ids=["break_even", "past_break_even"])
    def test_helpers_start_at_the_break_even_point(self, monkeypatch, fake_helpers, cost, strides):
        # 4 blocks of 0.5 s at --jobs 2: before block 1 the 1.5 s left would
        # take 0.75 s with one helper, the most one helper start may cost
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", cost)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        block_width(monkeypatch, NARROW)
        slow_parent_clock(monkeypatch)
        cfg = two_nsq(q_max=3000, alpha_max=9)
        report = run_search(replace(cfg, worker_count=2))
        assert fake_helpers.strides == strides
        assert report.to_jsonl() == run_search(cfg).to_jsonl()

    @pytest.mark.parametrize("q_max, scanned", [(1500, []), (2250, [(1, 3 + 2 * NARROW)])],
                             ids=["2_shards", "3_shards"])
    def test_no_helper_for_a_shard_that_does_not_exist(
        self, monkeypatch, fake_helpers, q_max, scanned
    ):
        # blocks of 0.5 s at --jobs 2: the blocks left pay for a helper before
        # block 1, and it starts only when a block is left for its stride
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", HELPER_START_S)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        block_width(monkeypatch, NARROW)
        slow_parent_clock(monkeypatch)
        cfg = two_nsq(q_max=q_max, alpha_max=9)
        report = run_search(replace(cfg, worker_count=2))
        assert fake_helpers.strides == [(1, 2)] * len(scanned)
        assert fake_helpers.scanned == scanned
        assert report.to_jsonl() == run_search(cfg).to_jsonl()

    def test_interrupt_after_the_switch_resumes_to_the_same_bytes(self, monkeypatch, tmp_path):
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        block_width(monkeypatch, NARROW)
        slow_parent_clock(monkeypatch)
        path = tmp_path / "scan.ckpt"
        cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=2, checkpoint_path=str(path))
        before, parent, scanned = set(multiprocessing.active_children()), os.getpid(), []

        def scan(cfg, a, b):
            if os.getpid() == parent:
                scanned.append(a)
                if a == 3 + 3 * NARROW:
                    raise KeyboardInterrupt
            return _real_scan_block(cfg, a, b)

        with monkeypatch.context() as m:
            m.setattr(oddperfect.search, "_scan_block", scan)
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        # a real helper started before block 1 and scanned block 2, which was merged
        assert scanned == [3, 3 + NARROW, 3 + 3 * NARROW]
        assert json.loads(path.read_text())["q_done"] == 3 + 3 * NARROW - 1
        assert set(multiprocessing.active_children()) - before == set()
        resumed, checkpoint = run_search(cfg).to_jsonl(), path.read_bytes()
        clean = replace(cfg, worker_count=1, checkpoint_path=str(tmp_path / "clean.ckpt"))
        assert resumed == run_search(clean).to_jsonl()
        assert checkpoint == (tmp_path / "clean.ckpt").read_bytes()

    @pytest.mark.parametrize("hundreds", [20, 30, 40])
    def test_one_slow_first_shard_starts_no_helper(self, monkeypatch, fake_helpers, hundreds):
        # blocks of 1 600 numbers at --jobs 2, each 100 of which take 0.2 ms but
        # the first 100, which take 1 ms: the mean of those 100 alone would say
        # 19-39 ms are left, past two helper starts; the mean of a block says 8 ms where
        # two blocks are left, short of two helper starts, and 4 ms where one is left
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", HELPER_START_S)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        block_width(monkeypatch, 1600)
        real, now = oddperfect.search._eligible, [0.0]

        def eligible(lo, hi, residue_filter):
            # the clock moves by the hundreds of numbers each sieve call covers
            spans, first = len(range(lo, hi + 1, 100)), lo == 3
            now[0] += 1e-3 * first + 2e-4 * (spans - first)
            return real(lo, hi, residue_filter)

        monkeypatch.setattr(oddperfect.search, "_eligible", eligible)
        monkeypatch.setattr(oddperfect.search, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        cfg = two_nsq(q_max=2 + 100 * hundreds, alpha_max=9)
        report = run_search(replace(cfg, worker_count=2))
        assert fake_helpers.strides == []
        assert report.to_jsonl() == run_search(cfg).to_jsonl()

    def test_first_shard_of_the_largest_range_comes_at_once(self):
        # about 1.1e9 blocks: a list of them would not fit under the limit
        env = {**os.environ, "PYTHONPATH": str(Path(oddperfect.search.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        child = subprocess.run([sys.executable, "-c", FIRST_OF_MANY], env=env, text=True,
                               capture_output=True, timeout=60, preexec_fn=_limit_address_space)
        assert child.returncode == 0, child.stderr
        lines = [line.split() for line in child.stdout.splitlines()]
        assert [q for q, _ in lines] == ["262146", "262146"]
        assert all(float(seconds) < 5 for _, seconds in lines)


# nsq hits (3, 4, 11) and (7, 3, 20); the hit (3, 1, 2) has alpha out of range
NSQ = dict(k=1, alpha_min=2, alpha_max=4)
# 2nsq hits at q = 17, 97, 241 (alpha = 1); the hit at q = 7 is 3 mod 4
TWO_NSQ = dict(k=2, residue_filter=1, alpha_max=1)
# nsq hits (3, 1, 2), (3, 4, 11) and (7, 3, 20); sigma(8^1) = 9 = 3^2, but 8 is no prime
NSQ_FROM_1 = dict(k=1, alpha_max=4)
# 2nsq hits at q = 97, 241; the hit at q = 17 is below q_min
TWO_NSQ_FROM_20 = dict(TWO_NSQ, q_min=20)


def rewrite(path, edit):
    """Apply edit(payload, hits) to the checkpoint at path and re-seal its digest."""
    payload = json.loads(path.read_text())
    edit(payload, payload["hits"])
    body = {key: payload[key] for key in ("config", "q_done", "hits")}
    path.write_text(json.dumps({**body, "digest": digest(body)}))


class TestCheckpointing:
    @pytest.mark.parametrize("search, edit", [
        (NSQ, lambda p, hits: hits[0].__setitem__(1, 3)),
        (TWO_NSQ, lambda p, hits: p["config"].update(equation="nsq")),
        (TWO_NSQ, lambda p, hits: hits.append(list(hits[-1]))),
        (TWO_NSQ, lambda p, hits: hits.reverse()),
        (NSQ, lambda p, hits: hits.insert(0, [3, 1])),
        (TWO_NSQ, lambda p, hits: hits.insert(0, [7, 1])),
        (TWO_NSQ, lambda p, hits: hits.append([449, 1])),
        (NSQ, lambda p, hits: hits[0].__setitem__(0, str(hits[0][0]))),
        (TWO_NSQ, lambda p, hits: hits[0].__setitem__(1, True)),
        (TWO_NSQ, lambda p, hits: hits[0].append(3)),
        (TWO_NSQ, lambda p, hits: p.update(hits=None)),
        (TWO_NSQ, lambda p, hits: p.update(q_done=100)),
        (TWO_NSQ, lambda p, hits: p.update(q_done=p["q_done"] + 1)),
        (TWO_NSQ, lambda p, hits: p.update(q_done=float(p["q_done"]))),
        (NSQ_FROM_1, lambda p, hits: hits.append([8, 1])),
        (TWO_NSQ_FROM_20, lambda p, hits: hits.insert(0, [17, 1])),
        (TWO_NSQ, lambda p, hits: p.update(q_done=p["config"]["q_min"] - 2, hits=[])),
        (dict(NSQ_FROM_1, q_min=2), lambda p, hits: p.update(q_done=True, hits=[])),
        (NSQ_FROM_1, lambda p, hits: hits.remove([3, 4])),
    ], ids=["not_a_hit", "wrong_equation", "duplicate", "descending", "alpha_out_of_range",
            "q_not_eligible", "q_above_q_max", "q_not_int", "alpha_not_int", "not_a_pair",
            "hits_not_a_list", "q_beyond_cursor", "cursor_beyond_primes", "cursor_not_int",
            "q_not_prime", "q_below_q_min", "cursor_below_q_min", "cursor_true",
            "hit_missing_at_a_listed_q"])
    def test_resumed_hits_are_verified(self, tmp_path, search, edit):
        # each edit re-seals the digest, so the checks behind it must refuse
        path = tmp_path / "scan.ckpt"
        cfg = SearchConfig(q_max=300, checkpoint_path=str(path), **search)
        assert len(run_search(cfg).records) in (2, 3)
        rewrite(path, edit)
        with pytest.raises(CheckpointError):
            run_search(cfg)

    def test_a_stray_pair_is_named_and_a_missing_hit_is_not(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        cfg = SearchConfig(q_max=300, checkpoint_path=str(path), **NSQ_FROM_1)
        run_search(cfg)
        rewrite(path, lambda p, hits: hits.append([8, True]))
        with pytest.raises(CheckpointError, match=r"does not find: \[8,true\]$"):
            run_search(cfg)
        rewrite(path, lambda p, hits: (hits.pop(), hits.remove([3, 4])))
        with pytest.raises(CheckpointError, match="misses, repeats or misorders a hit"):
            run_search(cfg)

    def test_every_unsealed_byte_edit_is_refused(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        cfg = nsq(q_max=300, alpha_max=4, checkpoint_path=str(path))
        clean = run_search(cfg).to_jsonl()
        data = path.read_bytes()
        assert data.endswith(b"\n")
        for i in range(len(data) - 1):  # the final newline is not part of the JSON
            path.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :])
            with pytest.raises(CheckpointError):
                run_search(cfg)
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            run_search(cfg)
        path.write_bytes(data)
        assert run_search(cfg).to_jsonl() == clean

    def test_fresh_interrupt_resume_cycle(self, tmp_path, monkeypatch):
        path = tmp_path / "scan.ckpt"
        cfg = two_nsq(q_max=3000, alpha_max=9, checkpoint_path=str(path))
        block_width(monkeypatch, NARROW)
        with monkeypatch.context() as m:
            interrupt_at_block(m, 1)
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        # the checkpoint written after block 0, q in [3, 752], survives the interrupt
        assert json.loads(path.read_text())["q_done"] == 3 + NARROW - 1
        resumed = run_search(cfg)
        clean = run_search(two_nsq(q_max=3000, alpha_max=9))
        assert resumed.to_jsonl() == clean.to_jsonl()
        # alphas 2, 4, 6, 8 for every prime, those before the cursor too
        eligible = [p for p in primes_upto(3000) if p >= 3]
        assert resumed.skipped_even_alpha == 4 * resumed.scanned_primes == 4 * len(eligible)

    def test_resume_does_not_depend_on_shard_size(self, tmp_path, monkeypatch):
        path = str(tmp_path / "scan.ckpt")
        cfg = two_nsq(q_max=3000, alpha_max=1, checkpoint_path=path)
        with monkeypatch.context() as m:
            block_width(m, NARROW)
            interrupt_at_block(m, 1)
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        with monkeypatch.context() as m:
            block_width(m, 560)
            resumed = run_search(cfg).to_jsonl()
        assert resumed == run_search(two_nsq(q_max=3000, alpha_max=1)).to_jsonl()

    def test_completed_run_resume_is_stable(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        cfg = nsq(q_max=500, alpha_max=6, checkpoint_path=path)
        first = run_search(cfg)
        again = run_search(cfg)
        assert first.to_jsonl() == again.to_jsonl()

    def test_mismatched_config_rejected(self, tmp_path, monkeypatch):
        path = str(tmp_path / "scan.ckpt")
        block_width(monkeypatch, NARROW)
        with monkeypatch.context() as m:
            interrupt_at_block(m, 1)
            with pytest.raises(KeyboardInterrupt):
                run_search(two_nsq(q_max=3000, alpha_max=9, checkpoint_path=path))
        with pytest.raises(CheckpointError):
            run_search(two_nsq(q_max=3001, alpha_max=9, checkpoint_path=path))

    def test_corrupt_file_rejected_and_untouched(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            run_search(two_nsq(q_max=100, checkpoint_path=str(path)))
        assert path.read_text() == "{not json"

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_text("{}")
        with pytest.raises(CheckpointError):
            run_search(two_nsq(q_max=100, checkpoint_path=str(path)))

    def test_save_resume_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        cfg = two_nsq(q_max=100, alpha_max=9, checkpoint_path=str(path))
        record = SolutionRecord(2, 7, 1, 2, (1, 2))
        checkpoint_save(cfg, 10, [record])
        assert json.loads(path.read_text())["hits"] == [[7, 1]]
        assert checkpoint_resume(cfg) == (10, [record])

    def test_unwritable_checkpoint_path_raises(self, tmp_path):
        cfg = two_nsq(q_max=100, alpha_max=3,
                      checkpoint_path=str(tmp_path / "no_dir" / "x.ckpt"))
        with pytest.raises(CheckpointError):
            run_search(cfg)


#: The last q of a scan from q = 3 in 40 blocks of NARROW numbers.
FORTY_BLOCKS = 2 + 40 * NARROW


def block_end(i: int) -> int:
    """The last q of block i (0-based) of a scan from q = 3 in blocks of NARROW."""
    return 2 + NARROW * (i + 1)


def stop_at_block_3(monkeypatch, stop):
    """Make block 3 of a scan from q = 3 in blocks of NARROW stop the scan: a
    ConsistencyError wherever it is scanned, a helper that dies scanning it, or
    a Ctrl-C in the parent before it is merged."""
    if stop == "interrupt":
        return interrupt_at_block(monkeypatch, 3)
    parent = os.getpid()

    def scan(cfg, a, b):
        if a == block_end(2) + 1:
            if stop == "violation":
                raise ConsistencyError("injected at block 3")
            assert os.getpid() != parent
            os._exit(1)
        return _real_scan_block(cfg, a, b)

    monkeypatch.setattr(oddperfect.search, "_scan_block", scan)


class TestCheckpointCadence:
    """A scan saves after every block it merges, so however it stops it keeps
    every merged block, and a resume recounts one block per sieve call."""

    @pytest.fixture(autouse=True)
    def narrow(self, monkeypatch):
        block_width(monkeypatch, NARROW)

    def test_saves_after_every_merged_block(self, monkeypatch, fake_helpers, tmp_path):
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 3)
        cursors = record_cursors(monkeypatch)
        runs = []
        for jobs in (1, 2, 3):
            path = tmp_path / f"jobs_{jobs}.ckpt"
            cfg = two_nsq(q_max=FORTY_BLOCKS, alpha_max=9, worker_count=jobs,
                          checkpoint_path=str(path))
            runs.append((run_search(cfg).to_jsonl(), path.read_bytes()))
            assert cursors == [block_end(i) for i in range(40)]
            cursors.clear()
        assert runs == [runs[0]] * 3
        # the helpers scanned from block 0 on, and their blocks were merged in order
        assert fake_helpers.strides == [(1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("stop, jobs, code", [
        ("violation", 1, 2), ("violation", 2, 2), ("dead_helper", 2, 3),
        ("interrupt", 1, 130), ("interrupt", 2, 130),
    ], ids=["violation-jobs_1", "violation-jobs_2", "dead_helper-jobs_2",
            "interrupt-jobs_1", "interrupt-jobs_2"])
    def test_a_stop_keeps_every_merged_block(
        self, monkeypatch, tmp_path, capsys, stop, jobs, code
    ):
        # blocks 0-2 are merged when block 3, the parent's at --jobs 1 and the
        # helper's at --jobs 2, stops the scan; the exit code is the stop's own
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)  # helpers from block 0
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        argv = ["search", "--equation", "2nsq", "--q-max", str(FORTY_BLOCKS),
                "--alpha-max", "9", "--jobs", str(jobs), "--format", "jsonl", "--checkpoint"]
        clean_path, path = tmp_path / "clean.ckpt", tmp_path / "scan.ckpt"
        assert oddperfect.cli.run([*argv, str(clean_path)]) == 0
        clean = capsys.readouterr().out
        before = set(multiprocessing.active_children())
        with monkeypatch.context() as m:
            stop_at_block_3(m, stop)
            assert oddperfect.cli.run([*argv, str(path)]) == code
        assert set(multiprocessing.active_children()) - before == set()
        assert capsys.readouterr() == ("", {
            "violation": "theorem violation: injected at block 3\n",
            "dead_helper": "i/o error: a search helper died before it sent block "
                           f"[{block_end(2) + 1}, {block_end(3)}]\n",
            "interrupt": f"interrupted; rerun to resume from checkpoint {path}\n",
        }[stop])
        assert json.loads(path.read_text())["q_done"] == block_end(2)
        assert oddperfect.cli.run([*argv, str(path)]) == 0
        assert capsys.readouterr().out == clean
        assert path.read_bytes() == clean_path.read_bytes()

    @pytest.mark.parametrize("residue_filter", [1, 3, None], ids=["mod4_1", "mod4_3", "all"])
    @pytest.mark.parametrize("q_min", [1, 2000])
    def test_a_resume_recounts_the_primes_before_the_cursor(
        self, monkeypatch, tmp_path, q_min, residue_filter
    ):
        # blocks of 1 600: a recount sieves 1 600 numbers a call
        block_width(monkeypatch, 1600)
        path = tmp_path / "scan.ckpt"
        cfg = two_nsq(q_min=q_min, q_max=9000, alpha_max=9, residue_filter=residue_filter,
                      checkpoint_path=str(path))
        clean = run_search(replace(cfg, checkpoint_path=None))
        eligible = [p for p in primes_in(q_min, 9000) if residue_filter in (None, p % 4)]
        assert clean.scanned_primes == len(eligible)
        start = max(q_min, 2)
        # eligible primes and a composite, each off every block edge:
        # the first past 1 600 numbers, past 3 200, and the last one
        cursors = [next(p for p in eligible if p > start + 1600),
                   next(p for p in eligible if p > start + 3200), eligible[-1], 5000]
        for cursor in cursors:
            assert (cursor + 1 - start) % 1600
            checkpoint_save(cfg, cursor, [r for r in clean.records if r.q <= cursor])
            resumed = run_search(cfg)
            assert resumed.scanned_primes == len(eligible)
            assert resumed.to_jsonl() == clean.to_jsonl()
            path.unlink()

    def test_a_resume_sieves_one_block_per_call(self, monkeypatch, tmp_path):
        block_width(monkeypatch, 1600)
        path = tmp_path / "scan.ckpt"
        cfg = two_nsq(q_max=9000, alpha_max=9, checkpoint_path=str(path))
        expected = run_search(cfg).to_jsonl()
        real, calls = oddperfect.search._eligible, []

        def eligible(lo, hi, residue_filter):
            calls.append((lo, hi))
            return real(lo, hi, residue_filter)

        monkeypatch.setattr(oddperfect.search, "_eligible", eligible)
        assert run_search(cfg).to_jsonl() == expected
        # q in [3, 9000] from its finished checkpoint: five full calls and one partial
        assert calls == [(3 + 1600 * i, min(2 + 1600 * (i + 1), 9000)) for i in range(6)]


class TestPredictedOutputs:
    """Searches to 10^7, each interrupted between two blocks and resumed from its
    checkpoint, report what predicted_hits derives and PRIME_COUNTS_1E7 primes."""

    @pytest.mark.parametrize("k, alpha_max, residue_filter, seed", [
        (2, 101, 1, 1), (2, 101, 3, 2), (2, 101, None, 3), (1, 201, None, 4),
    ], ids=["2nsq_mod4_1", "2nsq_mod4_3", "2nsq", "nsq"])
    def test_interrupted_and_resumed_to_the_prediction(
        self, monkeypatch, tmp_path, k, alpha_max, residue_filter, seed
    ):
        assert PRIME_COUNTS_1E7[None] == PRIME_COUNTS_1E7[1] + PRIME_COUNTS_1E7[3]
        path = tmp_path / "scan.ckpt"
        cfg = SearchConfig(k, q_max=10**7, alpha_max=alpha_max, residue_filter=residue_filter,
                           checkpoint_path=str(path))
        width = oddperfect.search.BLOCK_WIDTH
        stop = random.Random(seed).randrange(1, len(range(3, 10**7 + 1, width)))
        with monkeypatch.context() as m:
            interrupt_at_block(m, stop)
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        assert json.loads(path.read_text())["q_done"] == 2 + stop * width
        report = run_search(cfg)
        hits = [(r.q, r.alpha, r.n) for r in report.records]
        assert hits == predicted_hits(k, 3, 10**7, 1, alpha_max, residue_filter)
        assert report.scanned_primes == PRIME_COUNTS_1E7[residue_filter]



@functools.cache
def deep_window(exponent: int) -> tuple[int, int]:
    """A seeded window of 1 to 2^15 numbers near 10**exponent that holds the 2nsq hit
    at the first prime 2n^2 - 1 from a seeded n, with n odd (q = 1 mod 4) at odd
    exponents and even (q = 3 mod 4) at even ones."""
    rng = random.Random(exponent)
    n = math.isqrt(10**exponent // 2) + rng.randrange(1000)
    n += (n - exponent) % 2
    while not is_prime_trial(2 * n * n - 1):
        n += 2
    width = rng.randint(1, 1 << 15)
    lo = 2 * n * n - 1 - rng.randrange(width)
    return lo, lo + width - 1


#: primes_in, once per deep window.
deep_primes = functools.cache(primes_in)


class TestPredictedByTheReduction:
    """Ljunggren's theorem and the reduction sigma(q^(2h-1)) = sigma(q^(h-1)) * (q^h + 1)
    hold for every integer q >= 2: the kernel's output is known exactly on any
    window of integers, and a search's output and coverage on any window."""

    @pytest.mark.parametrize("lo, hi", [
        (2, 20_000), *((10**e, 10**e + (1 << 14) - 1) for e in (6, 9, 11)),
    ], ids=["to_2e4", "1e6", "1e9", "1e11"])
    @pytest.mark.parametrize("k, alpha_max", [(1, 1001), (2, 2001)], ids=["nsq", "2nsq"])
    def test_kernel_over_every_integer(self, k, alpha_max, lo, hi):
        # every q = k*n^2 - 1 hits at alpha = 1; at alpha >= 2 only Ljunggren's
        # (3, 4) and (7, 3) for nsq, and nothing for 2nsq.  Over the integers one
        # family needs more than Ljunggren: 2nsq at alpha = 3 with q + 1 = n^2 and
        # q^2 + 1 = 2j^2, which test_alpha_3_family_of_2nsq rules out far past 10^11.
        cfg = SearchConfig(k, alpha_max=alpha_max)
        hits = [(r.q, r.alpha, r.n) for r in oddperfect.search._hits(cfg, np.arange(lo, hi + 1))]
        family = [(k * n * n - 1, 1, n) for n in range(2, math.isqrt((hi + 1) // k) + 1)]
        ljunggren = [(3, 4, 11), (7, 3, 20)] if k == 1 else []
        assert hits == sorted(hit for hit in family + ljunggren if lo <= hit[0] <= hi)

    @settings(deadline=None)
    @given(q=st.integers(min_value=1, max_value=10**12).map(lambda m: 2 * m + 1),
           h=st.integers(min_value=1, max_value=31))
    def test_the_reduction_at_odd_q(self, q, h):
        # alpha = 2h - 1 <= 61: sigma(q^alpha) = A * B with gcd(A, B) | 2
        a, b = sigma_prime_power_sum(q, h - 1), q**h + 1
        assert a * b == sigma_prime_power_sum(q, 2 * h - 1)
        assert math.gcd(a, b) == (1 if h % 2 else 2)
        if h % 2 == 0:
            assert v2_int(b) == 1

    def test_alpha_3_family_of_2nsq(self):
        # sigma(q^3) = 2n^2 at odd q needs q + 1 = n1^2 and q^2 + 1 = 2j^2; the
        # solutions (x, j) of x^2 - 2j^2 = -1 are (1, 1), (7, 5), (41, 29), ...,
        # and in the first 400 of them, past 10^300, x + 1 is never a square
        x, j = 1, 1
        for _ in range(400):
            assert x * x - 2 * j * j == -1
            assert math.isqrt(x + 1) ** 2 != x + 1
            x, j = 3 * x + 4 * j, 2 * x + 3 * j
        assert x > 10**300

    @pytest.mark.parametrize("residue_filter", [None, 1, 3], ids=["all", "mod4_1", "mod4_3"])
    @pytest.mark.parametrize("k, alpha_max", [(1, 1001), (2, 2001)], ids=["nsq", "2nsq"])
    @pytest.mark.parametrize("exponent", [9, 10, 11], ids=["1e9", "1e10", "1e11"])
    def test_deep_window_to_the_prediction(self, exponent, k, alpha_max, residue_filter):
        lo, hi = deep_window(exponent)
        report = run_search(SearchConfig(k, q_min=lo, q_max=hi, alpha_max=alpha_max,
                                         residue_filter=residue_filter))
        hits = [(r.q, r.alpha, r.n) for r in report.records]
        assert hits == predicted_hits(k, lo, hi, 1, alpha_max, residue_filter)
        primes = [q for q in deep_primes(lo, hi) if residue_filter in (None, q % 4)]
        assert report.scanned_primes == len(primes)


#: Numbers per block at the module's width: 2^18, one primes_between segment.
BLOCK = oddperfect.search.BLOCK_WIDTH


def block_edge_hit(exponent: int) -> int:
    """The one 2nsq hit of deep_window(exponent), a prime 2n^2 - 1 at alpha = 1."""
    (q, _, _), = predicted_hits(2, *deep_window(exponent), 1, 1, None)
    return q


#: (q_min, q_max) of windows around a hit q at the module's width, each end at
#: +-1 of a block edge, which is also a primes_between segment edge.
BLOCK_WINDOWS = {
    # q is block 0's last q; the last block is one number
    "hit_ends_block_0": lambda q: (q - BLOCK + 1, q + BLOCK + 1),
    # q is block 1's first q; block 1 is one number short
    "hit_starts_block_1": lambda q: (q - BLOCK, q + BLOCK - 2),
    # q is block 0's last q but one; the last block is 2^14 numbers
    "hit_ends_block_0_but_one": lambda q: (q - BLOCK + 2, q + 1 + (1 << 14)),
    # q is q_max, the last q of the second of two whole blocks
    "hit_is_q_max": lambda q: (q - 2 * BLOCK + 1, q),
}


def blocks_from_oracles(cfg: SearchConfig, primes: list[int], hits: list[tuple]) -> list:
    """(last q, primes scanned, hits) of each block of cfg's range, from the sorted
    eligible primes and the (q, alpha, n) hits of that range."""
    width, blocks = oddperfect.search.BLOCK_WIDTH, []
    for a in range(max(cfg.q_min, 2), cfg.q_max + 1, width):
        b = min(a + width - 1, cfg.q_max)
        count = bisect.bisect_right(primes, b) - bisect.bisect_left(primes, a)
        blocks.append((b, count, [hit for hit in hits if a <= hit[0] <= b]))
    return blocks


def blocks_scanned(cfg: SearchConfig) -> list:
    """(last q, primes scanned, hits) of each block of cfg's range as the scan merges them."""
    return [(b, count, [(r.q, r.alpha, r.n) for r in records])
            for b, count, records in oddperfect.search._block_results(cfg, cfg.q_min)]


class TestBlocks:
    """A worker scans blocks of BLOCK_WIDTH numbers, one sieve call and one kernel
    call each, and each block merges as its last q, its prime count and its records."""

    @pytest.fixture(autouse=True)
    def helpers_from_block_0(self, monkeypatch):
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 3)

    @pytest.mark.parametrize("k, residue_filter", [
        (2, None), (2, 1), (2, 3), (1, None), (1, 1), (1, 3),
    ], ids=["2nsq", "2nsq_mod4_1", "2nsq_mod4_3", "nsq", "nsq_mod4_1", "nsq_mod4_3"])
    @pytest.mark.parametrize("window", BLOCK_WINDOWS)
    def test_deep_shards_either_side_of_a_block_edge(self, window, k, residue_filter):
        # the hit is q = 1 mod 4 near 10^9 and q = 3 mod 4 near 10^10
        hit = block_edge_hit(10 if residue_filter == 3 else 9)
        lo, hi = BLOCK_WINDOWS[window](hit)
        cfg = SearchConfig(k, q_min=lo, q_max=hi, alpha_max=25, residue_filter=residue_filter)
        primes = [q for q in deep_primes(lo, hi) if residue_filter in (None, q % 4)]
        expected = blocks_from_oracles(cfg, primes, predicted_hits(k, lo, hi, 1, 25,
                                                                   residue_filter))
        assert k == 1 or any(records for _, _, records in expected)
        for jobs in (1, 2, 3):
            assert blocks_scanned(replace(cfg, worker_count=jobs)) == expected

    @pytest.mark.parametrize("k, residue_filter", [
        (2, None), (2, 1), (2, 3), (1, None), (1, 1), (1, 3),
    ], ids=["2nsq", "2nsq_mod4_1", "2nsq_mod4_3", "nsq", "nsq_mod4_1", "nsq_mod4_3"])
    @pytest.mark.parametrize("lo, hi", [(1, 3200), (2, 3201), (3, 3203), (1599, 3298),
                                        (1601, 4799)])
    def test_narrow_shards_to_the_naive_search(self, monkeypatch, lo, hi, k, residue_filter):
        # blocks of 1 600 numbers: two whole ones from q = 2, one number past two from 3,
        # a last block of 100 numbers, and a last block one number short
        block_width(monkeypatch, 1600)
        cfg = SearchConfig(k, q_min=lo, q_max=hi, alpha_max=9, residue_filter=residue_filter)
        primes = [q for q in primes_in(lo, hi) if residue_filter in (None, q % 4)]
        hits = search_solutions(EQUATIONS[k], lo, hi, 1, 9, residue_filter)
        expected = blocks_from_oracles(cfg, primes, hits)
        for jobs in (1, 2, 3):
            assert blocks_scanned(replace(cfg, worker_count=jobs)) == expected

    def test_one_sieve_call_and_one_kernel_call_per_block(self, monkeypatch):
        block_width(monkeypatch, 1600)
        sieved, kernel = [], []
        eligible, hits = oddperfect.search._eligible, oddperfect.search._hits

        def sieve(lo, hi, residue_filter):
            sieved.append((lo, hi))
            return eligible(lo, hi, residue_filter)

        def count_kernel(cfg, primes):
            kernel.append(len(primes))
            return hits(cfg, primes)

        monkeypatch.setattr(oddperfect.search, "_eligible", sieve)
        monkeypatch.setattr(oddperfect.search, "_hits", count_kernel)
        report = run_search(two_nsq(q_max=4002, alpha_max=9))
        # q in [3, 4002]: two blocks of 1 600 numbers and one of 800
        assert sieved == [(3, 1602), (1603, 3202), (3203, 4002)]
        assert sum(kernel) == report.scanned_primes and len(kernel) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_interrupt_at_each_shard_edge_of_a_block_resumes_to_the_clean_bytes(
        self, monkeypatch, tmp_path, jobs
    ):
        # blocks of 100: each of the first 31 block edges, where at --jobs 2 a helper
        # scans every other block
        block_width(monkeypatch, 100)
        cfg = two_nsq(q_max=5000, alpha_max=9, worker_count=jobs)
        clean_path = tmp_path / "clean.ckpt"
        clean = run_search(replace(cfg, checkpoint_path=str(clean_path))).to_jsonl()
        path = tmp_path / "scan.ckpt"
        for stop in range(1, 32):
            with monkeypatch.context() as m:
                interrupt_at_block(m, stop)
                with pytest.raises(KeyboardInterrupt):
                    run_search(replace(cfg, checkpoint_path=str(path)))
            assert json.loads(path.read_text())["q_done"] == 2 + 100 * stop
            assert run_search(replace(cfg, checkpoint_path=str(path))).to_jsonl() == clean
            assert path.read_bytes() == clean_path.read_bytes()
            path.unlink()
