"""Tests for the Diophantine search engine and its checkpointing."""
from __future__ import annotations

import json

import pytest

from oddperfect.arith import primes_upto
import oddperfect.search
from oddperfect.errors import CheckpointError, ConsistencyError
from oddperfect.quadratic import QuadInt
from oddperfect.search import (
    SHARD_PRIMES,
    CheckpointState,
    Equation,
    SearchConfig,
    SolutionRecord,
    checkpoint_resume,
    checkpoint_save,
    run_search,
    split_solution,
)

from _oracles import search_solutions, sigma_prime_power_sum


def two_nsq(**kw):
    return SearchConfig(Equation.TWO_N_SQUARED, **kw)


def nsq(**kw):
    return SearchConfig(Equation.N_SQUARED, **kw)


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
    @pytest.mark.parametrize("equation", [Equation.TWO_N_SQUARED, Equation.N_SQUARED])
    def test_matches_naive_double_loop(self, equation):
        cfg = SearchConfig(equation, q_min=3, q_max=200, alpha_min=1, alpha_max=6)
        got = [(r.q, r.alpha, r.n) for r in run_search(cfg).records]
        assert got == search_solutions(equation.value, 3, 200, 1, 6)

    def test_residue_filter_matches_oracle(self):
        cfg = two_nsq(q_min=3, q_max=200, alpha_max=6, residue_filter=3)
        got = [(r.q, r.alpha, r.n) for r in run_search(cfg).records]
        assert got == search_solutions("2nsq", 3, 200, 1, 6, residue_filter=3)


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


class TestWorkerCap:
    @pytest.mark.parametrize("q_max, cpus, pools", [
        (3000, 64, [4]),
        (3000, 3, [3]),
        (3000, None, []),
        (500, 64, []),
    ], ids=["4_shards", "3_cpus", "cpus_unknown", "1_shard"])
    def test_pool_never_exceeds_shards_or_cpus(self, monkeypatch, q_max, cpus, pools):
        sizes = []

        class FakePool:
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def map(self, fn, payloads):
                return map(fn, payloads)

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(oddperfect.search, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(oddperfect.search.os, "cpu_count", lambda: cpus)
        report = run_search(two_nsq(q_max=q_max, alpha_max=9, worker_count=100_000))
        assert sizes == pools
        assert report.to_jsonl() == run_search(two_nsq(q_max=q_max, alpha_max=9)).to_jsonl()


# nsq hits (3, 4, 11) and (7, 3, 20); the hit (3, 1, 2) has alpha out of range
NSQ = dict(equation=Equation.N_SQUARED, alpha_min=2, alpha_max=4)
# 2nsq hits at q = 17, 97, 241 (alpha = 1); the hit at q = 7 is 3 mod 4
TWO_NSQ = dict(equation=Equation.TWO_N_SQUARED, residue_filter=1, alpha_max=1)


def hit(equation, q, alpha, n, split=(None, None)):
    return {"equation": equation, "q": q, "alpha": alpha, "n": n,
            "n1": split[0], "n2": split[1]}


class TestCheckpointing:
    @pytest.mark.parametrize("search, edit", [
        (NSQ, lambda p, hits: hits[0].update(n=hits[0]["n"] + 1)),
        (TWO_NSQ, lambda p, hits: hits[0].update(equation="nsq")),
        (TWO_NSQ, lambda p, hits: hits.append(dict(hits[-1]))),
        (TWO_NSQ, lambda p, hits: hits.reverse()),
        (NSQ, lambda p, hits: hits.insert(0, hit("nsq", 3, 1, 2))),
        (TWO_NSQ, lambda p, hits: hits.insert(0, hit("2nsq", 7, 1, 2, (1, 2)))),
        (TWO_NSQ, lambda p, hits: hits.append(hit("2nsq", 449, 1, 15, (1, 15)))),
        (NSQ, lambda p, hits: hits[0].update(q=str(hits[0]["q"]))),
        (TWO_NSQ, lambda p, hits: p.update(last_completed_prime=17)),
    ], ids=["wrong_n", "wrong_equation", "duplicate", "descending", "alpha_out_of_range",
            "q_not_eligible", "q_above_q_max", "q_not_int", "q_beyond_cursor"])
    def test_resumed_hits_are_verified(self, tmp_path, search, edit):
        path = tmp_path / "scan.ckpt"
        cfg = SearchConfig(q_max=300, checkpoint_path=str(path), **search)
        assert len(run_search(cfg).records) in (2, 3)
        payload = json.loads(path.read_text())
        edit(payload, payload["partial_hits"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            run_search(cfg)

    def test_resumed_hits_are_reported_as_rescanned(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        cfg = SearchConfig(q_max=300, checkpoint_path=str(path), **TWO_NSQ)
        clean = run_search(cfg).to_jsonl()
        payload = json.loads(path.read_text())
        payload["partial_hits"][0]["alpha"] = True  # equal to 1, but not an int in JSON
        path.write_text(json.dumps(payload))
        assert run_search(cfg).to_jsonl() == clean

    def test_fresh_interrupt_resume_cycle(self, tmp_path, monkeypatch):
        path = str(tmp_path / "scan.ckpt")
        cfg = two_nsq(q_max=3000, alpha_max=9, checkpoint_path=path)
        with monkeypatch.context() as m:
            interrupt_at_shard(m, 1)
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        state = checkpoint_resume(path)
        # the checkpoint written after shard 0 survives the interrupt
        eligible = [p for p in primes_upto(3000) if p >= 3]
        assert state.cursor == eligible[SHARD_PRIMES - 1]
        resumed = run_search(cfg)
        clean = run_search(two_nsq(q_max=3000, alpha_max=9))
        assert resumed.to_jsonl() == clean.to_jsonl()
        # alphas 2, 4, 6, 8 for every prime, those of the resumed shard too
        assert resumed.skipped_even_alpha == 4 * resumed.scanned_primes == 4 * len(eligible)

    def test_completed_run_resume_is_stable(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        cfg = nsq(q_max=500, alpha_max=6, checkpoint_path=path)
        first = run_search(cfg)
        again = run_search(cfg)
        assert first.to_jsonl() == again.to_jsonl()

    def test_mismatched_config_rejected(self, tmp_path, monkeypatch):
        path = str(tmp_path / "scan.ckpt")
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
            checkpoint_resume(str(path))
        assert path.read_text() == "{not json"

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_text("{}")
        with pytest.raises(CheckpointError):
            checkpoint_resume(str(path))

    def test_save_resume_round_trip(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        cfg = two_nsq(q_max=100, alpha_max=9)
        record = SolutionRecord(Equation.TWO_N_SQUARED, 7, 1, 2, (1, 2))
        checkpoint_save(CheckpointState(cfg, 97, (record,)), path)
        state = checkpoint_resume(path)
        assert state.cursor == 97
        assert state.partial_hits == (record,)
        assert state.config.config_hash() == cfg.config_hash()

    def test_unwritable_checkpoint_path_raises(self, tmp_path):
        cfg = two_nsq(q_max=100, alpha_max=3,
                      checkpoint_path=str(tmp_path / "no_dir" / "x.ckpt"))
        with pytest.raises(CheckpointError):
            run_search(cfg)
