"""Tests for the command-line front end and its exit-code contract."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import oddperfect
from oddperfect import arith, cli, quadratic, search
from oddperfect.errors import ConsistencyError
from oddperfect.search import SearchConfig, SearchReport, SolutionRecord, digest
from _oracles import primes_in


def run_lines(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


class TestSearchCommand:
    def test_contrast_hits_text(self, capsys):
        code, lines = run_lines(
            capsys, ["search", "--equation", "2nsq", "--q-max", "100", "--alpha-max", "9"]
        )
        assert code == 0
        assert "q=7 alpha=1 n=2 n1=1 n2=2" in lines
        assert lines[-1].startswith("config: ")

    def test_empty_theorem_range_exits_zero(self, capsys):
        code, lines = run_lines(
            capsys,
            ["search", "--equation", "2nsq", "--q-max", "2000", "--q-mod4", "1",
             "--alpha-min", "3", "--alpha-max", "11"],
        )
        assert code == 0
        assert any("hits=0" in line for line in lines)

    def test_jsonl_round_trip(self, capsys):
        code, lines = run_lines(
            capsys,
            ["search", "--equation", "nsq", "--q-max", "100", "--alpha-max", "9",
             "--format", "jsonl"],
        )
        assert code == 0
        objects = [json.loads(line) for line in lines]
        assert "config_hash" in objects[-1]
        assert objects[-1]["hits"] == len(objects) - 1

    def test_underscored_integers_accepted(self, capsys):
        code, _ = run_lines(
            capsys, ["search", "--equation", "nsq", "--q-max", "1_000", "--alpha-max", "2"]
        )
        assert code == 0

    def test_scientific_notation_rejected(self, capsys):
        assert cli.run(["search", "--equation", "nsq", "--q-max", "5e4"]) == 1

    def test_jobs_flag_output_identical(self, capsys):
        argv = ["search", "--equation", "2nsq", "--q-max", "2000", "--alpha-max", "9",
                "--format", "jsonl"]
        code1, lines1 = run_lines(capsys, argv + ["--jobs", "1"])
        code2, lines2 = run_lines(capsys, argv + ["--jobs", "2"])
        assert code1 == code2 == 0
        assert lines1 == lines2

    def test_checkpoint_name_ignores_environment(self, capsys, monkeypatch, tmp_path):
        # no environment variable redirects a bare name: --checkpoint alone names the file
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.setenv("ODDPERFECT_CHECKPOINT_DIR", str(elsewhere))
        monkeypatch.chdir(tmp_path)
        code, _ = run_lines(
            capsys,
            ["search", "--equation", "nsq", "--q-max", "300", "--alpha-max", "4",
             "--checkpoint", "demo.ckpt"],
        )
        assert code == 0
        assert (tmp_path / "demo.ckpt").exists()
        assert list(elsewhere.iterdir()) == []

    def test_unwritable_checkpoint_exits_three(self, capsys, tmp_path):
        code = cli.run(
            ["search", "--equation", "nsq", "--q-max", "100", "--alpha-max", "2",
             "--checkpoint", str(tmp_path / "missing_dir" / "x.ckpt")]
        )
        assert code == 3

    def test_injected_checkpoint_hit_exits_three(self, capsys, tmp_path):
        ckpt = tmp_path / "empty.ckpt"
        argv = ["search", "--equation", "2nsq", "--q-max", "2000", "--q-mod4", "1",
                "--alpha-min", "3", "--alpha-max", "11", "--checkpoint", str(ckpt)]
        assert cli.run(argv) == 0
        payload = json.loads(ckpt.read_text())
        payload["hits"].append([13, 3])
        del payload["digest"]
        ckpt.write_text(json.dumps({**payload, "digest": digest(payload)}))
        capsys.readouterr()
        assert cli.run(argv) == 3
        assert "i/o error" in capsys.readouterr().err

    # the finished checkpoint of the command below in the format before the digest
    OLD_CHECKPOINT = (
        '{"config":{"alpha_max":4,"alpha_min":1,"equation":"nsq","q_max":300,"q_min":3,'
        '"residue_filter":null},"config_hash":"f6b79919826e4279",'
        '"last_completed_prime":293,"partial_hits":['
        '{"alpha":1,"equation":"nsq","n":2,"n1":null,"n2":null,"q":3},'
        '{"alpha":4,"equation":"nsq","n":11,"n1":null,"n2":null,"q":3},'
        '{"alpha":3,"equation":"nsq","n":20,"n1":null,"n2":null,"q":7}]}\n'
    )

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(hits=[]),
        lambda p: p.update(q_done=p["q_done"] + 1),
        lambda p: p.update(digest=p["digest"][::-1]),
        None,
    ], ids=["hits_emptied", "q_done_raised", "digest_changed", "old_format"])
    def test_unsealed_checkpoint_edit_exits_three(self, capsys, tmp_path, edit):
        ckpt = tmp_path / "scan.ckpt"
        argv = ["search", "--equation", "nsq", "--q-max", "300", "--alpha-max", "4",
                "--checkpoint", str(ckpt), "--format", "jsonl"]
        if edit is None:
            ckpt.write_text(self.OLD_CHECKPOINT)
        else:
            assert cli.run(argv) == 0
            payload = json.loads(ckpt.read_text())
            edit(payload)
            ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error") and captured.err.count("\n") == 1

    def test_prime_count_checkpoint_exits_three(self, capsys, tmp_path):
        # the finished checkpoint of the command below as the prime-count format
        # wrote it, sealed by its own digest
        ckpt = tmp_path / "scan.ckpt"
        argv = ["search", "--equation", "nsq", "--q-max", "300", "--alpha-max", "4",
                "--checkpoint", str(ckpt), "--format", "jsonl"]
        identity = SearchConfig(1, q_max=300, alpha_max=4).identity()
        body = {"config": identity, "primes_done": 61, "hits": [[3, 1], [3, 4], [7, 3]]}
        ckpt.write_text(json.dumps({**body, "digest": digest(body)}))
        assert cli.run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error") and captured.err.count("\n") == 1

    # the finished checkpoint of the command below as the two-member Equation
    # enum wrote it: the identity dict, and so the config hash, were its own
    ENUM_CHECKPOINT = (
        '{"config":{"alpha_max":9,"alpha_min":1,"equation":"2nsq","q_max":2000,"q_min":3,'
        '"residue_filter":null},"digest":"79ba6c05c7a6ead8","hits":[[7,1],[17,1],[31,1],'
        '[71,1],[97,1],[127,1],[199,1],[241,1],[337,1],[449,1],[577,1],[647,1],[881,1],'
        '[967,1],[1151,1],[1249,1],[1567,1]],"q_done":2000}\n'
    )

    def test_checkpoint_from_the_enum_config_resumes(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        argv = ["search", "--equation", "2nsq", "--q-max", "2000", "--alpha-max", "9"]
        code, fresh = run_lines(capsys, argv)
        assert code == 0 and fresh[-1] == "config: c92e5668b34769fb"
        ckpt.write_text(self.ENUM_CHECKPOINT)
        assert cli.run(argv + ["--checkpoint", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == fresh and captured.err == ""
        assert ckpt.read_text() == self.ENUM_CHECKPOINT

    @pytest.mark.parametrize("checkpoint", [None, "scan.ckpt"])
    def test_interrupt_exits_130_with_one_line(self, capsys, monkeypatch, checkpoint):
        def interrupted(cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_search", interrupted)
        argv = ["search", "--equation", "nsq"]
        if checkpoint:
            argv += ["--checkpoint", checkpoint]
        assert cli.run(argv) == cli.EXIT_INTERRUPTED == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("interrupted") and captured.err.count("\n") == 1
        assert ("scan.ckpt" in captured.err) == bool(checkpoint)


class TestSearchFlags:
    """Each search flag fills the SearchConfig field its dest names; a flag
    left out leaves the field at SearchConfig's default."""

    def config(self, monkeypatch, argv):
        seen = []

        def capture(cfg):
            seen.append(cfg)
            return SearchReport(cfg, (), 0, 0)

        monkeypatch.setattr(cli, "run_search", capture)
        assert cli.run(argv) == 0
        (cfg,) = seen
        return cfg

    def test_no_flags_give_the_defaults(self, capsys, monkeypatch):
        assert self.config(monkeypatch, ["search", "--equation", "nsq"]) == SearchConfig(1)

    def test_every_flag_sets_its_field(self, capsys, monkeypatch):
        argv = ["search", "--equation", "2nsq", "--q-min", "11", "--q-max", "1_013",
                "--alpha-min", "5", "--alpha-max", "77", "--q-mod4", "3", "--jobs", "4",
                "--checkpoint", "x.ckpt", "--format", "jsonl"]
        cfg = self.config(monkeypatch, argv)
        assert cfg == SearchConfig(2, q_min=11, q_max=1013, alpha_min=5, alpha_max=77,
                                   residue_filter=3, worker_count=4, checkpoint_path="x.ckpt")
        # the command line sets every field away from its default
        default = SearchConfig(2)
        assert all(getattr(cfg, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(SearchConfig) if f.name != "k")


class TestViolationDetector:
    def fake_report(self, record):
        cfg = SearchConfig(record.k, q_min=3, q_max=100)
        return SearchReport(cfg, (record,), 1, 0)

    def test_injected_forbidden_two_nsq_hit(self, capsys, monkeypatch):
        fake = SolutionRecord(2, 13, 3, 99, (9, 11))
        monkeypatch.setattr(cli, "run_search", lambda cfg: self.fake_report(fake))
        code = cli.run(["search", "--equation", "2nsq"])
        assert code == 2
        assert "theorem violation" in capsys.readouterr().err

    def test_injected_forbidden_nsq_hit(self, capsys, monkeypatch):
        fake = SolutionRecord(1, 5, 2, 77, None)
        monkeypatch.setattr(cli, "run_search", lambda cfg: self.fake_report(fake))
        assert cli.run(["search", "--equation", "nsq"]) == 2

    def test_injected_forbidden_nsq_hit_at_alpha_one(self, capsys, monkeypatch):
        # unlike 2nsq, the nsq theorem covers alpha = 1: q + 1 = n^2 with q = 1 mod 4
        # would make n^2 = 2 mod 4
        fake = SolutionRecord(1, 13, 1, 99, None)
        monkeypatch.setattr(cli, "run_search", lambda cfg: self.fake_report(fake))
        assert cli.run(["search", "--equation", "nsq"]) == 2
        assert capsys.readouterr().err == (
            "theorem violation: nsq hit at q=13 alpha=1 n=99 with q = 1 mod 4\n")

    def test_alpha_one_hit_is_not_a_violation(self, capsys):
        # q = 17 = 1 mod 4 solves the alpha = 1 case; the theorem only
        # covers alpha > 1, so this must exit 0
        code = cli.run(["search", "--equation", "2nsq", "--q-max", "20",
                        "--q-mod4", "1", "--alpha-max", "1"])
        assert code == 0

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    @pytest.mark.parametrize("q, code", [(5, 2), (7, 0)], ids=["forbidden", "allowed"])
    def test_huge_n_is_printed_and_judged_whole(self, capsys, monkeypatch, fmt, q, code):
        # n = 10^5000 has 5001 digits, past the default limit of 4300
        fake = SolutionRecord(2, q, 5, 10**5000, (1, 10**5000))
        digits = "1" + "0" * 5000
        monkeypatch.setattr(cli, "run_search", lambda cfg: self.fake_report(fake))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert cli.run(["search", "--equation", "2nsq", "--format", fmt]) == code
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        first = captured.out.splitlines()[0]
        if fmt == "text":
            assert first == f"q={q} alpha=5 n={digits} n1=1 n2={digits}"
        else:
            assert first == ('{"alpha":5,"equation":"2nsq",'
                             f'"n":{digits},"n1":1,"n2":{digits},"q":{q}}}')
        violation = f"theorem violation: 2nsq hit at q={q} alpha=5 n={digits} with q = 1 mod 4\n"
        assert captured.err == (violation if code == 2 else "")

    def test_consistency_error_exits_two(self, capsys, monkeypatch):
        def boom(cfg):
            raise ConsistencyError("injected")

        monkeypatch.setattr(cli, "run_search", boom)
        assert cli.run(["search", "--equation", "2nsq"]) == 2

    def test_certificate_consistency_error_exits_two(self, capsys, monkeypatch):
        def boom(q, alpha):
            raise ConsistencyError(f"summand below 1 at q={q} alpha={alpha}")

        monkeypatch.setattr(cli, "two_adic_certificate", boom)
        assert cli.run(["certify", "--q", "13", "--alpha", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("theorem violation:") and captured.err.count("\n") == 1


class TestCertifyCommand:
    def test_passing_pair_text(self, capsys):
        code, lines = run_lines(capsys, ["certify", "--q", "13", "--alpha", "7"])
        assert code == 0
        assert "v2(S)=0 passed=True" in lines

    def test_jsonl_summary_last(self, capsys):
        code, lines = run_lines(
            capsys, ["certify", "--q", "5", "--alpha", "11", "--format", "jsonl"]
        )
        assert code == 0
        record, summary = (json.loads(line) for line in lines)
        assert record["passed"] is True
        assert summary["passed"] is True and "config_hash" in summary

    def test_large_alpha(self, capsys):
        code, lines = run_lines(
            capsys, ["certify", "--q", "5", "--alpha", "100001", "--format", "jsonl"]
        )
        assert code == 0
        record = json.loads(lines[0])
        assert len(record["summands"]) == 24_999  # i = 2 .. (alpha + 1) // 4
        assert min(s["v2"] for s in record["summands"]) == 1
        assert record["v2_total"] == 0 and record["passed"] is True

    def test_bad_parameters_exit_one(self, capsys):
        assert cli.run(["certify", "--q", "15", "--alpha", "3"]) == 1
        assert cli.run(["certify", "--q", "13", "--alpha", "4"]) == 1


class TestClassifyCommand:
    def test_dhp_scan_list(self, capsys):
        code, lines = run_lines(capsys, ["classify", "--dhp-scan", "--limit", "1000000"])
        assert code == 0
        assert json.loads(lines[0]) == [6, 28, 496, 672, 8128]

    def test_single_number_jsonl(self, capsys):
        code, lines = run_lines(capsys, ["classify", "--n", "672", "--format", "jsonl"])
        assert code == 0
        record = json.loads(lines[0])
        assert record["k"] == 3 and record["dhp"] == {"m": 21, "q": 2, "alpha": 5}

    def test_multiperfect_listing(self, capsys):
        code, lines = run_lines(
            capsys, ["classify", "--multiperfect", "--limit", "1000", "--format", "jsonl"]
        )
        assert code == 0
        objects = [json.loads(line) for line in lines]
        assert {"n": 672, "k": 3} in objects[:-1]

    def test_probable_prime_factor_is_marked(self, capsys):
        # 2^89 - 1 is prime, but beyond the deterministic Miller-Rabin bound
        argv = ["classify", "--n", str(2**89 - 1)]
        _, lines = run_lines(capsys, argv + ["--format", "jsonl"])
        assert json.loads(lines[0])["primality"] == "probable"
        _, lines = run_lines(capsys, argv)
        assert "primality=probable" in lines

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_fields_print_past_the_digit_limit(self, capsys, fmt):
        # n = 2^14284 has 4300 digits, within the limit; sigma(n) = 2^14285 - 1 has 4301
        limit = sys.get_int_max_str_digits()
        code, lines = run_lines(capsys, ["classify", "--n", str(2**14284), "--format", fmt])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            if fmt == "text":
                sigma = int(next(line for line in lines if line.startswith("sigma="))[6:])
            else:
                sigma = json.loads(lines[0])["sigma"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert sigma == 2**14285 - 1

    def test_n_beyond_trial_bound_is_classified(self, capsys):
        # 1000003 * 1000033 * 1000037: no factor below the trial bound
        code, lines = run_lines(capsys, ["classify", "--n", "1000073001431003663"])
        assert code == 0
        assert any("'p': 1000037" in line for line in lines)

    def test_unfactorable_n_exits_one_with_one_line(self, capsys, monkeypatch):
        # with rho's step cap at 1 the same n can no longer be split
        monkeypatch.setattr(arith, "_RHO_STEPS", 1)
        assert cli.run(["classify", "--n", "1000073001431003663"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_mode_misuse_exits_one(self, capsys):
        assert cli.run(["classify"]) == 1
        assert cli.run(["classify", "--n", "6", "--dhp-scan", "--limit", "5"]) == 1
        assert cli.run(["classify", "--dhp-scan"]) == 1
        assert cli.run(["classify", "--n", "6", "--limit", "9"]) == 1


class TestIdentityCommand:
    def test_sweep_passes(self, capsys):
        code, lines = run_lines(
            capsys,
            ["identity", "--m-max", "15", "--q-max", "50", "--ratio-m-max", "30"],
        )
        assert code == 0
        assert any("0 failed" in line for line in lines)

    def test_jsonl_shape(self, capsys):
        code, lines = run_lines(
            capsys,
            ["identity", "--m-max", "10", "--q-max", "30", "--ratio-m-max", "20",
             "--format", "jsonl"],
        )
        assert code == 0
        objects = [json.loads(line) for line in lines]
        assert objects[-1]["failed"] == 0
        assert {o["check"] for o in objects[:-1]} == {"trace_expansion", "ratio_identity"}

    def test_negative_bounds_exit_one(self, capsys):
        argv = ["identity", "--m-max", "-3", "--q-max", "-1", "--ratio-m-max", "-1"]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestBoundCommand:
    def test_published_constant(self, capsys):
        code, lines = run_lines(capsys, ["bound", "--count", "8"])
        assert code == 0
        assert lines[0] == "36163554870725919"

    def test_out_of_range_count(self, capsys):
        assert cli.run(["bound", "--count", "0"]) == 1

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_largest_count_prints_past_the_digit_limit(self, capsys, fmt):
        odd_primes = primes_in(3, 7927)
        assert len(odd_primes) == 1000
        limit = sys.get_int_max_str_digits()
        code, lines = run_lines(capsys, ["bound", "--count", "1000", "--format", fmt])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)  # the value has more than 4300 digits
        try:
            value = int(lines[0]) if fmt == "text" else json.loads(lines[-1])["value"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert value == math.prod(p * p + p + 1 for p in odd_primes)

    def test_digit_limit_restored_when_output_fails(self, capsys, monkeypatch):
        class Unwritable:
            def write(self, data):
                raise OSError("stdout closed")

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            monkeypatch.setattr(sys, "stdout", Unwritable())
            code = cli.run(["bound", "--count", "1000", "--format", "jsonl"])
            monkeypatch.undo()
            assert code == cli.EXIT_IO
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli.run([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.run(["bound", "--count", "3", "--frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0


#: Address-space limit of the children below: 512 MB.
_CHILD_AS = 512 << 20


def _limit_address_space():
    """Runs in the child between fork and exec: this process is not limited."""
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS, _CHILD_AS))


def _limited_child(*args):
    src = Path(oddperfect.__file__).resolve().parent.parent
    # one BLAS thread: each thread's buffers would count against the limit
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], env=env, preexec_fn=_limit_address_space,
                          capture_output=True, text=True, timeout=120)


class TestAlphaMaxBound:
    """--alpha-max sizes the residue tables; past its bound it is a usage error."""

    @pytest.mark.parametrize("alpha_max", ["10_001", "1_000_000", "100_000_000"])
    def test_past_the_bound_exits_one_under_a_memory_limit(self, alpha_max):
        done = _limited_child("-m", "oddperfect", "search", "--equation", "nsq",
                              "--q-max", "100", "--alpha-max", alpha_max)
        assert done.returncode == 1 and done.stdout == ""
        value = int(alpha_max.replace("_", ""))
        assert done.stderr == f"error: alpha_max must be <= 10000, got {value}\n"

    def test_rejected_before_any_table_is_built(self, monkeypatch, capsys):
        def refuse(k, words):
            raise AssertionError(f"table built for {words} words")

        monkeypatch.setattr(search, "_alpha_tables", refuse)
        argv = ["search", "--equation", "nsq", "--q-max", "100", "--alpha-max"]
        assert cli.run(argv + ["1_000_000_000"]) == 1
        assert capsys.readouterr().err == "error: alpha_max must be <= 10000, got 1000000000\n"
        with pytest.raises(AssertionError, match="157 words"):
            cli.run(argv + ["10_000"])  # within the bound, the tables are built

    def test_the_bound_itself_fits_under_the_limit(self):
        done = _limited_child("-m", "oddperfect", "search", "--equation", "nsq",
                              "--q-max", "100", "--alpha-max", "10_000")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2] == "scanned_primes=24 skipped_even_alpha=0 hits=3"

    def test_without_the_bound_the_tables_would_not_fit(self):
        # the tables for alpha <= 10^8, which the bound keeps from being built
        script = "import oddperfect.search as s; s._alpha_tables(1, 10**8 // 64 + 1)"
        done = _limited_child("-c", script)
        assert done.returncode == 1 and "MemoryError" in done.stderr


class TestQMaxBound:
    """The sieve holds every base prime below sqrt(q_max); past its bound q_max is a usage error."""

    @pytest.mark.parametrize("q_max", ["281_474_976_710_657", "1_000_000_000_000_000_000"])
    def test_past_the_bound_exits_one_under_a_memory_limit(self, q_max):
        done = _limited_child("-m", "oddperfect", "search", "--equation", "nsq",
                              "--q-max", q_max, "--alpha-max", "3")
        assert done.returncode == 1 and done.stdout == ""
        value = int(q_max.replace("_", ""))
        assert done.stderr == f"error: q_max must be <= 281474976710656, got {value}\n"

    def test_rejected_before_any_sieve_is_built(self, monkeypatch, capsys):
        def refuse(lo, hi):
            raise AssertionError(f"sieve built up to {hi}")

        monkeypatch.setattr(search, "primes_between", refuse)
        argv = ["search", "--equation", "nsq", "--alpha-max", "3", "--q-max"]
        assert cli.run(argv + [str(10**18)]) == 1
        assert capsys.readouterr().err == f"error: q_max must be <= {1 << 48}, got {10**18}\n"

    def test_a_range_ending_at_the_bound_fits_under_the_limit(self):
        bound = search.Q_MAX_BOUND
        assert bound == 1 << 48
        done = _limited_child("-m", "oddperfect", "search", "--equation", "nsq", "--q-min",
                              str(bound - 200), "--q-max", str(bound), "--alpha-max", "3")
        assert done.returncode == 0, done.stderr
        assert sum(map(arith.is_prime, range(bound - 200, bound + 1))) == 7
        assert done.stdout.splitlines()[-2] == "scanned_primes=7 skipped_even_alpha=0 hits=0"


class TestIdentityQMaxBound:
    """identity lists every prime up to --q-max first; past its bound q_max is a usage error."""

    @pytest.mark.parametrize("q_max", ["1_000_001", "1_000_000_000"])
    def test_past_the_bound_exits_one_under_a_memory_limit(self, q_max):
        done = _limited_child("-m", "oddperfect", "identity", "--m-max", "1",
                              "--q-max", q_max, "--ratio-m-max", "0")
        assert done.returncode == 1 and done.stdout == ""
        value = int(q_max.replace("_", ""))
        assert done.stderr == f"error: q_max must be <= 1000000, got {value}\n"

    def test_the_bound_itself_fits_under_the_limit(self):
        assert quadratic.SWEEP_Q_BOUND == 10**6
        done = _limited_child("-m", "oddperfect", "identity", "--m-max", "1",
                              "--q-max", "1_000_000", "--ratio-m-max", "0", "--format", "jsonl")
        assert done.returncode == 0, done.stderr
        # one m for each of the 78 498 primes up to 10^6
        assert json.loads(done.stdout.splitlines()[0]) == {
            "check": "trace_expansion", "checked": 78_498, "failed": 0}


class TestIdentityMMaxBound:
    """identity's trace comparison grows faster than --m-max squared; past its bound
    --m-max is a usage error."""

    @pytest.mark.parametrize("m_max", ["1_001", "1_000_000_000_000"])
    def test_past_the_bound_exits_one_under_a_memory_limit(self, m_max):
        done = _limited_child("-m", "oddperfect", "identity", "--m-max", m_max,
                              "--q-max", "2", "--ratio-m-max", "0")
        assert done.returncode == 1 and done.stdout == ""
        value = int(m_max.replace("_", ""))
        assert done.stderr == f"error: m_max must be <= 1000, got {value}\n"

    def test_the_bound_itself_fits_under_the_limit(self):
        assert quadratic.SWEEP_M_BOUND == 1000
        done = _limited_child("-m", "oddperfect", "identity", "--m-max", "1_000",
                              "--q-max", "2", "--ratio-m-max", "0", "--format", "jsonl")
        assert done.returncode == 0, done.stderr
        # m = 1..1000 for the one prime q = 2
        assert json.loads(done.stdout.splitlines()[0]) == {
            "check": "trace_expansion", "checked": 1000, "failed": 0}


class TestCertifyAlphaBound:
    """certify lists about alpha / 4 summands; past its bound alpha is a usage error."""

    @pytest.mark.parametrize("alpha", ["1_000_003", "1_000_000_001"])
    def test_past_the_bound_exits_one_under_a_memory_limit(self, alpha):
        done = _limited_child("-m", "oddperfect", "certify", "--q", "5", "--alpha", alpha)
        assert done.returncode == 1 and done.stdout == ""
        value = int(alpha.replace("_", ""))
        assert done.stderr == f"error: alpha must be <= 1000001, got {value}\n"

    def test_the_bound_itself_fits_under_the_limit(self):
        done = _limited_child("-m", "oddperfect", "certify", "--q", "5", "--alpha",
                              "1_000_001", "--format", "jsonl")
        assert done.returncode == 0, done.stderr
        record, summary = map(json.loads, done.stdout.splitlines())
        assert len(record["summands"]) == 249_999 and summary["passed"] is True


class TestClassifyLimitMemory:
    """The multiperfect scans sieve sigma in segments of 2^22 numbers, so a
    limit past several segments still fits the memory of one."""

    def test_multiperfect_past_three_segments_fits_under_the_limit(self):
        done = _limited_child("-m", "oddperfect", "classify", "--multiperfect",
                              "--limit", "10_000_000", "--format", "jsonl")
        assert done.returncode == 0, done.stderr
        *records, summary = map(json.loads, done.stdout.splitlines())
        assert [(r["n"], r["k"]) for r in records] == [
            (1, 1), (6, 2), (28, 2), (120, 3), (496, 2), (672, 3), (8128, 2),
            (30240, 4), (32760, 4), (523776, 3), (2178540, 4),
        ]
        assert summary["hits"] == 11


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def _forbidden_hits(cfg):
    # two hits the q = 1 mod 4 theorem rules out, as a broken kernel would report them
    records = (
        SolutionRecord(2, 13, 3, 99, (9, 11)),
        SolutionRecord(2, 17, 5, 41, (3, 7)),
    )
    return SearchReport(cfg, records, 2, 0)


def _failed_identity(m_max, q_max, ratio_m_max):
    return {"trace_expansion": (12, 1), "ratio_identity": (30, 0)}


def _raise(exc):
    def boom(*args):
        raise exc

    return boom


def _tampered_checkpoint(monkeypatch):
    assert cli.run(_SEARCH_EMPTY + ["--checkpoint", "empty.ckpt"]) == 0
    with open("empty.ckpt") as fh:
        payload = json.load(fh)
    payload["hits"].append([13, 3])
    del payload["digest"]
    with open("empty.ckpt", "w") as fh:
        json.dump({**payload, "digest": digest(payload)}, fh)


def _finished_checkpoint(monkeypatch):
    assert cli.run(_SEARCH_HITS) == 0


_SEARCH_EMPTY = ["search", "--equation", "2nsq", "--q-max", "2000", "--q-mod4", "1",
                 "--alpha-min", "3", "--alpha-max", "11"]
_SEARCH_HITS = ["search", "--equation", "2nsq", "--q-max", "2000", "--alpha-max", "9",
                "--checkpoint", "hits.ckpt"]
_NSQ = ["search", "--equation", "nsq", "--q-max", "40000", "--alpha-max", "9"]

# (id, digest of the text run, digest of the --format jsonl run or None, argv,
# setup).  A digest is the SHA-256 prefix of the JSON list [exit code, stdout,
# stderr], so every byte the command-line contract promises is pinned.
GOLDEN = [
    ("search_readme_alpha1", "93c4a152f4470561", "d2622e3e5bb738a2",
     ["search", "--equation", "2nsq", "--q-max", "200", "--alpha-max", "1"], None),
    ("search_empty_q1", "d1ea4569eaa8f8d8", "f35fa695a08000e6", _SEARCH_EMPTY, None),
    ("search_nsq_jobs1", "53ad62feee12616d", "f2d27a6ced6b755e", _NSQ + ["--jobs", "1"], None),
    ("search_nsq_jobs2", "53ad62feee12616d", "f2d27a6ced6b755e", _NSQ + ["--jobs", "2"], None),
    ("search_nsq_jobs8", "53ad62feee12616d", "f2d27a6ced6b755e", _NSQ + ["--jobs", "8"], None),
    # the 2nsq hit q = 2*7076^2 - 1, split as n1 = 1, n2 = 7076
    ("search_split_hit", "fe028a465dfc242b", "c9bd6976ffb3980f",
     ["search", "--equation", "2nsq", "--q-min", "100139551", "--q-max", "100139600",
      "--alpha-max", "101"], None),
    ("search_q_min_above_q_max", "a9f24cb57593e42b", "a9f24cb57593e42b",
     ["search", "--equation", "nsq", "--q-min", "100", "--q-max", "50"], None),
    ("certify_pass", "51faa87a6e21bb9e", "fa0d84769f08ce65",
     ["certify", "--q", "13", "--alpha", "7"], None),
    ("certify_q3_rejected", "3c160eb8424a06a6", "3c160eb8424a06a6",
     ["certify", "--q", "7", "--alpha", "3"], None),
    ("classify_672", "957d171fcc3da98d", "8e1a48672f2226e1", ["classify", "--n", "672"], None),
    ("classify_probable", "b5c462645970fd6a", "07253774fa9e11fb",
     ["classify", "--n", str(2**89 - 1)], None),
    ("classify_dhp_scan", "20cfc6a6df200047", "fadf4571921e38a4",
     ["classify", "--dhp-scan", "--limit", "10000"], None),
    ("classify_multiperfect", "87844add306148f5", "42ec6358cf4f29e9",
     ["classify", "--multiperfect", "--limit", "1000"], None),
    ("classify_no_mode", "e04e12cbd9b548d5", None, ["classify"], None),
    ("classify_two_modes", "e04e12cbd9b548d5", None,
     ["classify", "--n", "6", "--dhp-scan", "--limit", "5"], None),
    ("classify_scan_no_limit", "1f5cbaeeb94b2e8f", None, ["classify", "--dhp-scan"], None),
    ("classify_n_with_limit", "575404a0b35c5be5", None,
     ["classify", "--n", "6", "--limit", "9"], None),
    ("identity_pass", "e71191f8ab605fa9", "87b143aa7e49a47d",
     ["identity", "--m-max", "10", "--q-max", "30", "--ratio-m-max", "20"], None),
    ("identity_negative", "4e6bd2a530906761", "4e6bd2a530906761",
     ["identity", "--m-max", "-3"], None),
    ("bound_8", "456fe4fda84d12a7", "dcdfd4ad350e6ffe", ["bound", "--count", "8"], None),
    ("bound_0", "a8df9f8e9a75963f", "a8df9f8e9a75963f", ["bound", "--count", "0"], None),
    ("usage_no_arguments", "b4bf6d19016b66c9", None, [], None),
    ("usage_unknown_subcommand", "006abd2886645752", None, ["frobnicate"], None),
    ("usage_unknown_flag", "b8b7f91b7dca2d71", None,
     ["bound", "--count", "3", "--frobnicate"], None),
    ("usage_scientific", "52b4406f97c20e84", None,
     ["search", "--equation", "nsq", "--q-max", "5e4"], None),
    ("usage_bad_choice", "ff1b3f04f70defd5", None,
     ["search", "--equation", "nsq", "--q-mod4", "2"], None),
    ("usage_missing_required", "727f7ede831651f0", None, ["certify", "--q", "13"], None),
    ("forbidden_hits", "69fdb0614911a2da", "9fca357a809c8c8a", ["search", "--equation", "2nsq"],
     lambda mp: mp.setattr(cli, "run_search", _forbidden_hits)),
    ("identity_failure", "5b475172c7add65a", "cb34f7457b2c781a", ["identity"],
     lambda mp: mp.setattr(cli, "identity_sweep", _failed_identity)),
    ("consistency_error", "37327fa034e6e3de", None, ["search", "--equation", "2nsq"],
     lambda mp: mp.setattr(cli, "run_search", _raise(ConsistencyError("injected")))),
    ("factor_bound_error", "d202ffc2abf38122", None, ["classify", "--n", "1000073001431003663"],
     lambda mp: mp.setattr(arith, "_RHO_STEPS", 1)),
    ("checkpoint_unwritable", "cd45a75424ce75f8", None,
     ["search", "--equation", "nsq", "--q-max", "100", "--alpha-max", "2",
      "--checkpoint", "missing/x.ckpt"], None),
    ("checkpoint_forged_hit", "4b90d83084f40e72", None,
     _SEARCH_EMPTY + ["--checkpoint", "empty.ckpt"], _tampered_checkpoint),
    # resumed from its own finished checkpoint: the hits are rebuilt by rescanning
    ("checkpoint_resumed", "319fa3500fea75c5", "ae838416cd3989b2", _SEARCH_HITS,
     _finished_checkpoint),
    ("interrupt", "3b4e336dcad59fd4", None, ["search", "--equation", "nsq"],
     lambda mp: mp.setattr(cli, "run_search", _raise(KeyboardInterrupt))),
    ("interrupt_checkpoint", "144d54be26991a0e", None,
     ["search", "--equation", "nsq", "--checkpoint", "scan.ckpt"],
     lambda mp: mp.setattr(cli, "run_search", _raise(KeyboardInterrupt))),
]


def _golden_cases():
    for name, text, jsonl, argv, setup in GOLDEN:
        yield pytest.param(argv, setup, text, id=name)
        if jsonl is not None:
            yield pytest.param(argv + ["--format", "jsonl"], setup, jsonl, id=name + "+jsonl")


@pytest.mark.parametrize("argv, setup, expected", _golden_cases())
def test_golden_output(capsys, monkeypatch, tmp_path, argv, setup, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    monkeypatch.chdir(tmp_path)  # checkpoint names in messages stay relative
    if setup is not None:
        setup(monkeypatch)
    capsys.readouterr()
    code = cli.run(argv)
    captured = capsys.readouterr()
    got = hashlib.sha256(json.dumps([code, captured.out, captured.err]).encode()).hexdigest()[:16]
    assert got == expected
