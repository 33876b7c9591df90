"""Tests for the Diophantine search engine and its checkpointing."""
from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import pickle
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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
    primes_in,
    residue_survivors,
    scan_shard_isqrt,
    search_solutions,
    sigma_prime_power_sum,
)

#: k = 2 and k = 1, by the name of their equation.
KS = [pytest.param(2, id="2nsq"), pytest.param(1, id="nsq")]

#: Shard width that splits q <= 3000 into 4 shards, as many as the 128-prime
#: shards these tests were written for.
NARROW = 750


def two_nsq(**kw):
    return SearchConfig(2, **kw)


def nsq(**kw):
    return SearchConfig(1, **kw)


def interrupt_at_shard(monkeypatch, k):
    """Make the k-th shard scanned (0-based) raise KeyboardInterrupt."""
    real, calls = oddperfect.search._scan_shard, []

    def scan(args):
        calls.append(args)
        if len(calls) == k + 1:
            raise KeyboardInterrupt
        return real(args)

    monkeypatch.setattr(oddperfect.search, "_scan_shard", scan)


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
    # at a helper cost of 0 the helpers start before shard 0, so real helpers meet the oracle
    @pytest.mark.parametrize("jobs, cost", [(1, None), (2, None), (8, None), (2, 0), (8, 0)],
                             ids=["1", "2", "8", "2_cost_0", "8_cost_0"])
    @pytest.mark.parametrize("cfg", CRITERIA, ids=["c01", "c02", "c02_contrast", "c03",
                                                   "c09_2nsq", "c09_nsq"])
    def test_criterion_configs(self, monkeypatch, cfg, jobs, cost):
        if cost is not None:
            monkeypatch.setattr(oddperfect.search, "HELPER_START_S", cost)
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
        # criterion 10's shards are too fast to pay for a helper; here helpers start at once
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 3)
        real, started = oddperfect.search._start_helper, []

        def start(*args):
            started.append(args)
            return real(*args)

        monkeypatch.setattr(oddperfect.search, "_start_helper", start)
        shards = len(range(cfg.q_min, cfg.q_max + 1, oddperfect.search.SHARD_WIDTH))
        runs = []
        for w in (1, 2, 3, 8):
            path = tmp_path / f"jobs_{w}.ckpt"
            report = run_search(replace(cfg, worker_count=w, checkpoint_path=str(path)))
            assert len(started) == min(w, shards, 3) - 1
            started.clear()
            runs.append((report.to_jsonl(), path.read_bytes()))
        assert runs == [runs[0]] * 4


@pytest.fixture
def fake_helpers(monkeypatch):
    """A helper launcher that starts no process: a helper scans its next shard
    in this process when the parent reads from its pipe.  Helpers cost
    nothing to start, so the parent starts them before shard 0.

    It records each helper's (first, step), its payload as pickled, how many
    residue tables were built when it started, how many results the parent
    has read, and the (first, q) at which each helper's shards begin.
    """
    seen = SimpleNamespace(strides=[], payloads=[], tables=[], received=0, scanned=[])
    monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)

    def start(*payload):
        cfg, lo, first, step = payload
        seen.strides.append((first, step))
        seen.payloads.append(pickle.dumps(payload))
        seen.tables.append(oddperfect.search._alpha_tables.cache_info().currsize)
        shards = itertools.islice(oddperfect.search._intervals(lo, cfg.q_max), first, None, step)

        def recv():
            seen.received += 1
            a, b = next(shards)
            seen.scanned.append((first, a))
            return oddperfect.search._scan_shard((cfg, a, b))

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
        # the parent and its helpers: at most min(jobs, shards, CPUs) processes
        if cpus is None:  # no affinity mask, and os.cpu_count() does not know
            monkeypatch.delattr(oddperfect.search.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(oddperfect.search.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
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
        # the parent holds at most one result per helper that it has not merged yet
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", 100)
        cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=3)
        from_helpers = 0
        for i, _ in enumerate(oddperfect.search._shard_results(cfg, cfg.q_min)):
            from_helpers += i % 3 != 0
            assert 0 <= fake_helpers.received - from_helpers <= 2
        # 30 shards, 20 of them from the two helpers, every one merged
        assert i == 29 and fake_helpers.received == from_helpers == 20

    def test_helper_payload_does_not_grow_with_the_shards(self, monkeypatch, fake_helpers):
        # a helper is told where its shards start and how far apart they lie, not each shard
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", 100)
        for q_max in (102_999, 3_099_999):  # 30 and 30 000 shards
            cfg = two_nsq(q_min=100_000, q_max=q_max, alpha_max=9, worker_count=2)
            scan = oddperfect.search._shard_results(cfg, cfg.q_min)
            next(scan)
            scan.close()
        small, large = fake_helpers.payloads
        assert len(small) == len(large) and small != large

    def test_tables_are_built_before_the_pool_starts(self, monkeypatch, fake_helpers):
        # forked helpers inherit them instead of each building its own
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
        oddperfect.search._alpha_tables.cache_clear()
        run_search(two_nsq(q_max=3000, alpha_max=9, worker_count=2))
        assert fake_helpers.tables == [1]


_real_scan_shard = oddperfect.search._scan_shard


def interrupt_first_shard_hold_others(args):
    """A shard scan for a real pool: the first shard raises KeyboardInterrupt,
    every other one first sleeps 2 s.  Module-level, so that it pickles.
    """
    if args[1] < NARROW:
        raise KeyboardInterrupt
    time.sleep(2)
    return _real_scan_shard(args)


class TestPoolLifetime:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(oddperfect.search.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)  # helpers from shard 0

    def test_workers_exit_before_the_call_returns(self):
        before = set(multiprocessing.active_children())
        report = run_search(two_nsq(q_max=3000, alpha_max=9, worker_count=2))
        assert set(multiprocessing.active_children()) - before == set()
        assert report.to_jsonl() == run_search(two_nsq(q_max=3000, alpha_max=9)).to_jsonl()

    def test_interrupt_does_not_wait_for_running_shards(self, monkeypatch):
        monkeypatch.setattr(oddperfect.search, "_scan_shard", interrupt_first_shard_hold_others)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_search(two_nsq(q_max=3000, alpha_max=9, worker_count=2))
        assert time.monotonic() - start < 1


def slow_helpers(monkeypatch, fail_at=None, exc=None):
    """Make each shard a helper scans take 2 s, except the one starting at
    fail_at, which raises exc at once; the parent scans as before."""
    parent = os.getpid()

    def scan(args):
        if os.getpid() != parent:
            if args[1] == fail_at:
                raise exc
            time.sleep(2)
        return _real_scan_shard(args)

    monkeypatch.setattr(oddperfect.search, "_scan_shard", scan)


# 4 shards of NARROW, scanned by the parent and two helpers at --jobs 3
THREE_WORKERS = ["search", "--equation", "2nsq", "--q-max", "3000", "--alpha-max", "9",
                 "--jobs", "3", "--format", "jsonl"]

#: Runs THREE_WORKERS (argv) in a fresh interpreter whose second helper dies at
#: its first shard, then reports the children still alive on stderr.
DEAD_HELPER = f"""
import multiprocessing, os, sys
from oddperfect import cli, search
search.SHARD_WIDTH = {NARROW}
search.HELPER_START_S = 0
search._usable_cpus = lambda: 3
scan = search._scan_shard
search._scan_shard = lambda args: os._exit(1) if args[1] == 3 + 2 * {NARROW} else scan(args)
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
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", 0)  # helpers from shard 0
        self.before = set(multiprocessing.active_children())
        yield
        assert set(multiprocessing.active_children()) - self.before == set()

    def test_consistency_error_exits_two(self, monkeypatch, capsys):
        slow_helpers(monkeypatch, NARROW + 3, ConsistencyError("injected at shard 753"))
        start = time.monotonic()
        assert oddperfect.cli.run(THREE_WORKERS) == 2
        assert time.monotonic() - start < 1.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "theorem violation: injected at shard 753\n"

    def test_keyboard_interrupt_stops_the_scan(self, monkeypatch, tmp_path):
        slow_helpers(monkeypatch, NARROW + 3, KeyboardInterrupt())
        path = tmp_path / "scan.ckpt"
        cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=3, checkpoint_path=str(path))
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_search(cfg)
        assert time.monotonic() - start < 1.5
        # the parent's own shard 0 was merged, the helper's shard 1 was not
        assert json.loads(path.read_text())["q_done"] == NARROW + 2

    def test_abandoned_scan_stops_its_helpers(self, monkeypatch):
        slow_helpers(monkeypatch)
        cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=3)
        scan = oddperfect.search._shard_results(cfg, cfg.q_min)
        start = time.monotonic()
        next(scan)  # shard 0, the parent's own
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
            f"i/o error: a search helper died before it sent shard [{2 * NARROW + 3}, 2252]",
            "children=0",
        ]
        # shards 0 and 1 were merged; resumed here, the scan runs the other two
        assert json.loads(path.read_text())["q_done"] == 2 * NARROW + 2
        assert oddperfect.cli.run(argv) == 0
        resumed = capsys.readouterr().out
        assert oddperfect.cli.run(THREE_WORKERS) == 0
        assert resumed == capsys.readouterr().out


#: The cost of starting a helper as the module sets it, before any test patches it.
HELPER_START_S = oddperfect.search.HELPER_START_S


def slow_parent_clock(monkeypatch, seconds=0.5):
    """Make the search's clock say that each shard the parent scans takes seconds."""
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


#: Takes the first shard of a scan up to Q_MAX_BOUND at --jobs 2, with the
#: helper cost as set and at 0, and prints that shard's last q and the seconds
#: it took.
FIRST_OF_MANY = """
import sys, time
from oddperfect import search
search._usable_cpus = lambda: 2
for cost in (search.HELPER_START_S, 0):
    search.HELPER_START_S = cost
    cfg = search.SearchConfig(2, q_max=search.Q_MAX_BOUND, alpha_max=9, worker_count=2)
    start = time.perf_counter()
    scan = search._shard_results(cfg, cfg.q_min)
    print(next(scan)[0], time.perf_counter() - start)
    scan.close()
"""


def _limit_address_space():
    """Runs in the child between fork and exec: 512 MB, and this process is not limited."""
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


class TestHelperStart:
    """The parent scans alone until the time its shards still need pays for
    starting the helpers; the shards, the output and the checkpoints stay the same."""

    def test_a_few_fast_shards_start_no_helper(self, monkeypatch, fake_helpers):
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", HELPER_START_S)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
        cfg = two_nsq(q_max=3000, alpha_max=9)
        expected = run_search(cfg).to_jsonl()  # and now the sieve's caches are warm
        # 4 shards of about 0.2 ms: before shard 1 a helper would save 0.3 ms of the 0.6 ms left
        assert run_search(replace(cfg, worker_count=2)).to_jsonl() == expected
        assert fake_helpers.strides == []

    def test_the_table_build_is_no_shard_time(self, monkeypatch, fake_helpers):
        # a process's first search builds its residue tables, which no helper would speed up
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", HELPER_START_S)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
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
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", 100)
        slow_parent_clock(monkeypatch)
        cursors = record_cursors(monkeypatch)
        runs = []
        for jobs in (1, 3):
            path = tmp_path / f"jobs_{jobs}.ckpt"
            cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=jobs, checkpoint_path=str(path))
            runs.append((run_search(cfg).to_jsonl(), path.read_bytes(), cursors[:]))
            cursors.clear()
        assert runs[0] == runs[1]
        assert runs[0][2] == [102 + 100 * i for i in range(29)] + [3000]
        # 30 shards from q = 3: helper j takes shards 1 + j, 1 + j + 3, ...
        assert fake_helpers.strides == [(1, 3), (2, 3)]
        assert sorted(fake_helpers.scanned) == [
            (j, 3 + 100 * i) for j in (1, 2) for i in range(1 + j, 30, 3)
        ]

    @pytest.mark.parametrize("cost, strides", [(0.75, [(1, 2)]), (0.76, [])],
                             ids=["break_even", "past_break_even"])
    def test_helpers_start_at_the_break_even_point(self, monkeypatch, fake_helpers, cost, strides):
        # 4 shards of 0.5 s at --jobs 2: before shard 1 the 1.5 s left would
        # take 0.75 s with one helper, the most one helper start may cost
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", cost)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
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
        # shards of 0.5 s at --jobs 2: the shards left pay for a helper before
        # shard 1, and it starts only when a shard is left for its stride
        monkeypatch.setattr(oddperfect.search, "HELPER_START_S", HELPER_START_S)
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
        slow_parent_clock(monkeypatch)
        cfg = two_nsq(q_max=q_max, alpha_max=9)
        report = run_search(replace(cfg, worker_count=2))
        assert fake_helpers.strides == [(1, 2)] * len(scanned)
        assert fake_helpers.scanned == scanned
        assert report.to_jsonl() == run_search(cfg).to_jsonl()

    def test_interrupt_after_the_switch_resumes_to_the_same_bytes(self, monkeypatch, tmp_path):
        monkeypatch.setattr(oddperfect.search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
        slow_parent_clock(monkeypatch)
        path = tmp_path / "scan.ckpt"
        cfg = two_nsq(q_max=3000, alpha_max=9, worker_count=2, checkpoint_path=str(path))
        before, parent, scanned = set(multiprocessing.active_children()), os.getpid(), []

        def scan(args):
            if os.getpid() == parent:
                scanned.append(args[1])
                if args[1] == 3 + 3 * NARROW:
                    raise KeyboardInterrupt
            return _real_scan_shard(args)

        with monkeypatch.context() as m:
            m.setattr(oddperfect.search, "_scan_shard", scan)
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        # a real helper started before shard 1 and scanned shard 2, which was merged
        assert scanned == [3, 3 + NARROW, 3 + 3 * NARROW]
        assert json.loads(path.read_text())["q_done"] == 3 + 3 * NARROW - 1
        assert set(multiprocessing.active_children()) - before == set()
        resumed, checkpoint = run_search(cfg).to_jsonl(), path.read_bytes()
        clean = replace(cfg, worker_count=1, checkpoint_path=str(tmp_path / "clean.ckpt"))
        assert resumed == run_search(clean).to_jsonl()
        assert checkpoint == (tmp_path / "clean.ckpt").read_bytes()

    def test_first_shard_of_the_largest_range_comes_at_once(self):
        # about 1.7e10 shards: a list of them would not fit under the limit
        env = {**os.environ, "PYTHONPATH": str(Path(oddperfect.search.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        child = subprocess.run([sys.executable, "-c", FIRST_OF_MANY], env=env, text=True,
                               capture_output=True, timeout=60, preexec_fn=_limit_address_space)
        assert child.returncode == 0, child.stderr
        lines = [line.split() for line in child.stdout.splitlines()]
        assert [q for q, _ in lines] == ["16386", "16386"]
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
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
        with monkeypatch.context() as m:
            interrupt_at_shard(m, 1)
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        # the checkpoint written after shard 0, q in [3, 752], survives the interrupt
        assert json.loads(path.read_text())["q_done"] == 3 + NARROW - 1
        resumed = run_search(cfg)
        clean = run_search(two_nsq(q_max=3000, alpha_max=9))
        assert resumed.to_jsonl() == clean.to_jsonl()
        # alphas 2, 4, 6, 8 for every prime, those of the resumed shard too
        eligible = [p for p in primes_upto(3000) if p >= 3]
        assert resumed.skipped_even_alpha == 4 * resumed.scanned_primes == 4 * len(eligible)

    def test_resume_does_not_depend_on_shard_size(self, tmp_path, monkeypatch):
        path = str(tmp_path / "scan.ckpt")
        cfg = two_nsq(q_max=3000, alpha_max=1, checkpoint_path=path)
        with monkeypatch.context() as m:
            m.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
            interrupt_at_shard(m, 1)
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        with monkeypatch.context() as m:
            m.setattr(oddperfect.search, "SHARD_WIDTH", 560)
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
        monkeypatch.setattr(oddperfect.search, "SHARD_WIDTH", NARROW)
        with monkeypatch.context() as m:
            interrupt_at_shard(m, 1)
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
