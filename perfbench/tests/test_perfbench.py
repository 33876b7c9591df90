"""Smoke-size tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = 0.3


@functools.lru_cache(maxsize=None)
def traced(name: str) -> dict:
    return workloads.run(name, seed=7, seconds=SMOKE_SECONDS, trace=True, probes=1)[0]


@functools.lru_cache(maxsize=None)
def untraced(name: str) -> dict:
    return workloads.run(name, seed=7, seconds=SMOKE_SECONDS, trace=False, probes=1)[0]


def test_spec_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS) == list(inputs.INPUTS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = traced(name) if trace else untraced(name)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


WRONG_REFERENCES = {
    "search": ("NSQ_SOLUTIONS", frozenset()),
    "ledger-random": ("sigma_divisor_sum", lambda n: 1 // 0),
    "certify": ("v2_int", lambda n: 0),
}


@pytest.mark.parametrize("name", NAMES)
def test_a_wrong_reference_counts_as_failed(name, monkeypatch):
    monkeypatch.setattr(refs, *WRONG_REFERENCES[name])
    result, record = workloads.run(name, seed=7, seconds=SMOKE_SECONDS, trace=False, probes=1)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert record["fail_frac"] == result["failed"] / result["attempted"]
    assert set(result["metrics"]) == set(workloads.END_TO_END)


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_for_a_seed(name):
    again = workloads.run(name, seed=7, seconds=SMOKE_SECONDS, trace=True, probes=1)[0]
    first = traced(name)
    counts = [k for k, unit in workloads.PER_LAYER.items() if unit in ("count", "bytes")]
    assert {k: again["metrics"][k]["value"] for k in counts} == {
        k: first["metrics"][k]["value"] for k in counts
    }


def test_command_line_contract(tmp_path):
    argv = [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "3",
            "--seconds", "0.2", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert json.loads(proc.stdout.splitlines()[-2])["run"]["seed"] == 3

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert bare.returncode != 0
    assert bare.stdout == ""


def test_independent_prime_table():
    table = inputs.odd_primes_upto(2000)
    assert list(table) == [p for p in range(3, 2001) if refs._oracles.is_prime_trial(p)]
    assert len(inputs.odd_primes_upto(inputs.SEARCH_Q_MAX)) == 41537  # pi(5e5) - 1


@pytest.mark.parametrize("q", [5, 13, 17, 97, 257])
def test_closed_form_summand_valuation(q):
    for alpha in range(7, 60, 2):
        for i in range(2, (alpha + 1) // 4 + 1):
            term = (Fraction(refs._oracles.pascal_binomial((alpha - 3) // 2, 2 * i - 2), 2 * i - 1)
                    * Fraction((1 - q) ** (i - 1), i))
            direct = refs.v2_int(term.numerator) - refs.v2_int(term.denominator)
            assert refs.summand_v2(q, alpha, i) == direct
