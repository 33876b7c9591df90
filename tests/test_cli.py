"""Tests for the command-line front end and its exit-code contract."""
from __future__ import annotations

import json

import pytest

from oddperfect import arith, cli
from oddperfect.errors import ConsistencyError
from oddperfect.search import Equation, SearchConfig, SearchReport, SolutionRecord, digest


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

    def test_checkpoint_env_dir(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.CHECKPOINT_DIR_ENV, str(tmp_path))
        code, _ = run_lines(
            capsys,
            ["search", "--equation", "nsq", "--q-max", "300", "--alpha-max", "4",
             "--checkpoint", "demo.ckpt"],
        )
        assert code == 0
        assert (tmp_path / "demo.ckpt").exists()

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
        lambda p: p.update(primes_done=p["primes_done"] + 1),
        lambda p: p.update(digest=p["digest"][::-1]),
        None,
    ], ids=["hits_emptied", "primes_done_raised", "digest_changed", "old_format"])
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

    @pytest.mark.parametrize("checkpoint", [None, "scan.ckpt"])
    def test_interrupt_exits_130_with_one_line(self, capsys, monkeypatch, checkpoint):
        def interrupted(cfg):
            raise KeyboardInterrupt

        monkeypatch.delenv(cli.CHECKPOINT_DIR_ENV, raising=False)
        monkeypatch.setattr(cli, "run_search", interrupted)
        argv = ["search", "--equation", "nsq"]
        if checkpoint:
            argv += ["--checkpoint", checkpoint]
        assert cli.run(argv) == cli.EXIT_INTERRUPTED == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("interrupted") and captured.err.count("\n") == 1
        assert ("scan.ckpt" in captured.err) == bool(checkpoint)


class TestViolationDetector:
    def fake_report(self, record):
        cfg = SearchConfig(record.equation, q_min=3, q_max=100)
        return SearchReport(cfg, (record,), 1, 0)

    def test_injected_forbidden_two_nsq_hit(self, capsys, monkeypatch):
        fake = SolutionRecord(Equation.TWO_N_SQUARED, 13, 3, 99, (9, 11))
        monkeypatch.setattr(cli, "run_search", lambda cfg: self.fake_report(fake))
        code = cli.run(["search", "--equation", "2nsq"])
        assert code == 2
        assert "theorem violation" in capsys.readouterr().err

    def test_injected_forbidden_nsq_hit(self, capsys, monkeypatch):
        fake = SolutionRecord(Equation.N_SQUARED, 5, 2, 77, None)
        monkeypatch.setattr(cli, "run_search", lambda cfg: self.fake_report(fake))
        assert cli.run(["search", "--equation", "nsq"]) == 2

    def test_alpha_one_hit_is_not_a_violation(self, capsys):
        # q = 17 = 1 mod 4 solves the alpha = 1 case; the theorem only
        # covers alpha > 1, so this must exit 0
        code = cli.run(["search", "--equation", "2nsq", "--q-max", "20",
                        "--q-mod4", "1", "--alpha-max", "1"])
        assert code == 0

    def test_consistency_error_exits_two(self, capsys, monkeypatch):
        def boom(cfg):
            raise ConsistencyError("injected")

        monkeypatch.setattr(cli, "run_search", boom)
        assert cli.run(["search", "--equation", "2nsq"]) == 2

    def test_failing_certificate_exits_two(self, capsys, monkeypatch):
        from oddperfect.quadratic import CertificateReport

        fake = CertificateReport(q=13, alpha=7, summands=((2, 0),), v2_total=1, passed=False)
        monkeypatch.setattr(cli, "two_adic_certificate", lambda q, alpha: fake)
        assert cli.run(["certify", "--q", "13", "--alpha", "7"]) == 2


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


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli.run([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.run(["bound", "--count", "3", "--frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
