"""Tests for the package's public namespace."""
from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import oddperfect
import oddperfect.arith
import oddperfect.classify
import oddperfect.cli
import oddperfect.quadratic
import oddperfect.search


def test_every_exported_name_resolves():
    assert len(oddperfect.__all__) == len(set(oddperfect.__all__))
    for name in oddperfect.__all__:
        assert not isinstance(getattr(oddperfect, name), types.ModuleType), name
    assert {"run_search", "split_solution", "two_adic_certificate",
            "identity_sweep", "CheckpointError"} <= set(oddperfect.__all__)


def test_removed_names_are_gone():
    for name in ("search_two_n_squared", "search_n_squared", "resume_config",
                 "SearchInterrupted", "gcd", "CheckpointState", "FACTOR_BOUND",
                 "SHARD_PRIMES", "binomial", "vp", "unit_group", "divides", "sigma_table",
                 "Equation"):
        assert name not in oddperfect.__all__
        assert not hasattr(oddperfect, name), name
    for name in ("CheckpointState", "SHARD_PRIMES", "_MODULI", "_TABLE_FACTORS",
                 "_RESIDUE_TABLES", "_residue_tables", "Equation", "SHARD_WIDTH",
                 "CHECKPOINT_SHARDS", "_shard_results"):
        assert not hasattr(oddperfect.search, name), name
    for name in ("unit_group", "divides", "UnitSign"):
        assert not hasattr(oddperfect.quadratic, name), name
    assert not hasattr(oddperfect.classify, "sigma_table")
    for name in ("FACTOR_BOUND", "vp", "_vp_int", "_strong_probable_prime", "_TRIAL_BLOCK",
                 "_trial_blocks"):
        assert not hasattr(oddperfect.arith, name), name
    for name in ("CHECKPOINT_DIR_ENV", "_checkpoint_path"):
        assert not hasattr(oddperfect.cli, name), name


def test_checkpoint_functions_are_search_internals():
    for name in ("checkpoint_save", "checkpoint_resume"):
        assert name not in oddperfect.__all__
        assert callable(getattr(oddperfect.search, name))


def test_run_search_takes_only_a_config():
    assert list(inspect.signature(oddperfect.run_search).parameters) == ["cfg"]


def test_size_parameters_are_constants():
    for fn in (oddperfect.factorize, oddperfect.odd_multiperfect_upto):
        assert len(inspect.signature(fn).parameters) == 1, fn.__name__
    # a search block is one primes_between segment: one sieve call scans it whole
    assert oddperfect.search.BLOCK_WIDTH == oddperfect.arith._SIEVE_SEGMENT
    # the smallest-prime-factor table holds bound / 2 uint16 entries: 1 MB at 2^20
    bound = oddperfect.arith._TABLE_BOUND
    assert type(bound) is int and 0 < bound <= 1 << 20 and bound & (bound - 1) == 0


def test_oracles_load_without_the_package():
    # perfbench/refs.py loads _oracles.py by path before the set-up probe times
    # `import oddperfect`: a module-level import there would move it out of setup_s
    oracles = Path(__file__).resolve().parent / "_oracles.py"
    src = Path(oddperfect.__file__).resolve().parent.parent
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('_oracles', {str(oracles)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print('oddperfect' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_modules_import_no_private_names():
    # a fast path shared across modules is public in the module that owns it
    package = Path(oddperfect.__file__).resolve().parent
    found = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_probable_marker_has_one_literal():
    # every report marks a probable prime through arith.mark_primality; docstrings
    # that mention the marker are whole-docstring constants and do not count
    package = Path(oddperfect.__file__).resolve().parent
    found = [
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == "probable"
    ]
    assert found == ["arith.py"]


def test_every_report_marks_the_same_probable_prime():
    q = 10**25 + 13  # strong probable prime above DETERMINISTIC_PRIME_BOUND, 1 mod 4
    assert q % 4 == 1 and q >= oddperfect.DETERMINISTIC_PRIME_BOUND
    reports = (
        oddperfect.two_adic_certificate(q, 7),
        oddperfect.chenluo_check(3 * q),
        oddperfect.classify_report(3 * q),
    )
    for report in reports:
        data = report.as_dict()
        assert list(data)[-1] == "primality" and data["primality"] == "probable", report
    assert not reports[1].primality_proven and not reports[2].primality_proven
    unit = oddperfect.classify_report(1)  # the empty factorization rests on no prime
    assert unit.primality_proven and "primality" not in unit.as_dict()
