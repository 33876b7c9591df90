"""Acceptance suite: the ten headline checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -v via the
test name, or with -s via the print) and enforces the stated tolerance —
exact equality everywhere, plus wall-clock ceilings where one is given.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
import time

import oddperfect.search
from oddperfect.arith import primes_upto
from oddperfect.classify import chenluo_check, dhp_scan, omega_bound_product
from oddperfect.quadratic import identity_sweep, two_adic_certificate
from oddperfect.search import EQUATIONS, SearchConfig, run_search

from _oracles import search_solutions


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_main_theorem_emptiness():
    started = time.monotonic()
    report = run_search(
        SearchConfig(2, q_min=3, q_max=50_000,
                     alpha_min=3, alpha_max=25, residue_filter=1)
    )
    elapsed = time.monotonic() - started
    eligible = [p for p in primes_upto(50_000) if p >= 3 and p % 4 == 1]
    covered = (
        report.scanned_primes == len(eligible)
        # even alphas 4..24 are skipped-with-reason for every prime scanned
        and report.skipped_even_alpha == 11 * len(eligible)
    )
    _report(
        1,
        f"2n^2 = sigma(q^alpha) has no solutions for q = 1 mod 4 <= 50000, "
        f"3 <= alpha <= 25 ({report.scanned_primes} primes, {elapsed:.1f}s)",
        len(report.records) == 0 and covered and elapsed <= 300,
    )


def test_criterion_02_byproduct_theorem_emptiness():
    filtered = run_search(
        SearchConfig(1, q_min=3, q_max=50_000,
                     alpha_min=1, alpha_max=25, residue_filter=1)
    )
    contrast = run_search(
        SearchConfig(1, q_min=3, q_max=50_000,
                     alpha_min=1, alpha_max=25)
    )
    triples = {(r.q, r.alpha, r.n) for r in contrast.records}
    _report(
        2,
        "n^2 = sigma(q^beta) empty for q = 1 mod 4 <= 50000, beta <= 25; "
        "unfiltered contrast finds (3,1,2) and (7,3,20)",
        len(filtered.records) == 0
        and (3, 1, 2) in triples
        and (7, 3, 20) in triples,
    )


def test_criterion_03_alpha_one_contrast_hits():
    # frozen through the naive oracle: the primes of the form 2n^2 - 1
    # up to 200 are q = 7, 17, 31, 71, 97, 127, 199 (n = 2,3,4,6,7,8,10)
    expected = [(7, 2), (17, 3), (31, 4), (71, 6), (97, 7), (127, 8), (199, 10)]
    report = run_search(
        SearchConfig(2, q_min=3, q_max=200,
                     alpha_min=1, alpha_max=1)
    )
    got = [(r.q, r.n) for r in report.records]
    splits_ok = all(
        r.split == (1, r.n)
        and (r.q - 1) * 1**2 == r.q - 1
        and 2 * r.n**2 == r.q + 1
        for r in report.records
    )
    oracle = [(q, n) for q, _a, n in search_solutions("2nsq", 3, 200, 1, 1)]
    _report(
        3,
        "alpha = 1 hits over q <= 200 are exactly the primes 2n^2 - 1 "
        "with split (1, n)",
        got == expected == oracle and splits_ok,
    )


def test_criterion_04_dhp_reproduction():
    started = time.monotonic()
    scan = dhp_scan(10**6)
    elapsed = time.monotonic() - started
    _report(
        4,
        f"dhp_scan(10^6) = [6, 28, 496, 672, 8128] ({elapsed:.1f}s)",
        scan == [6, 28, 496, 672, 8128] and elapsed <= 60,
    )


def test_criterion_05_omega_bound_constant():
    _report(
        5,
        "product of sigma(p^2) over the first 8 odd primes",
        omega_bound_product(8) == 36163554870725919,
    )


def test_criterion_06_two_adic_certificate_suite():
    started = time.monotonic()
    failures = []
    count = 0
    for q in primes_upto(10_000):
        if q % 4 != 1:
            continue
        for alpha in range(3, 102, 2):
            report = two_adic_certificate(q, alpha)
            count += 1
            if not (report.passed and all(v2 >= 1 for _, v2 in report.summands)
                    and report.v2_total == 0):
                failures.append((q, alpha))
    elapsed = time.monotonic() - started
    _report(
        6,
        f"{count} certificates for q = 1 mod 4 < 10^4, odd alpha in [3, 101] "
        f"({elapsed:.1f}s)",
        not failures and elapsed <= 120,
    )


def test_criterion_07_algebraic_identity_suite():
    counts = identity_sweep(m_max=60, q_max=200, ratio_m_max=200)
    identities_ok = all(failed == 0 for _, failed in counts.values())
    gcd_ok = all(
        math.gcd(q**m - 1, q**m + 1) == 2
        for q in range(3, 1001, 2)
        for m in range(1, 51)
    )
    _report(
        7,
        "trace expansion (m <= 60, q <= 200), binomial ratio identity "
        "(m <= 200), gcd(q^m - 1, q^m + 1) = 2 (odd q <= 10^3, m <= 50)",
        identities_ok and gcd_ok,
    )


def test_criterion_08_chenluo_bookkeeping():
    # chenluo_check raises ConsistencyError on any bookkeeping mismatch,
    # so simply completing both sweeps is the assertion
    for n in range(3, 10**6 + 1, 2):
        chenluo_check(n)
    rng = random.Random(361635)
    for _ in range(10**5):
        chenluo_check(rng.randrange(1, 5 * 10**11) * 2 + 1)
    _report(
        8,
        "valuation ledger matches v2(sigma(n)) for all odd n <= 10^6 "
        "and 10^5 random odd n <= 10^12",
        True,
    )


def test_criterion_09_oracle_equivalence():
    ok = True
    for k in (2, 1):
        cfg = SearchConfig(k, q_min=3, q_max=500, alpha_min=1, alpha_max=8)
        got = [(r.q, r.alpha, r.n) for r in run_search(cfg).records]
        if got != search_solutions(EQUATIONS[k], 3, 500, 1, 8):
            ok = False
    _report(9, "both searches match the naive oracle on q <= 500, alpha <= 8", ok)


def test_criterion_10_determinism(tmp_path, monkeypatch):
    configs = [
        SearchConfig(2, q_min=3, q_max=50_000,
                     alpha_min=3, alpha_max=25, residue_filter=1),
        SearchConfig(1, q_min=3, q_max=50_000,
                     alpha_min=1, alpha_max=25, residue_filter=1),
        SearchConfig(1, q_min=3, q_max=50_000,
                     alpha_min=1, alpha_max=25),
        SearchConfig(2, q_min=3, q_max=200,
                     alpha_min=1, alpha_max=1),
    ]
    workers_ok = True
    baselines = []
    for cfg in configs:
        outputs = {
            run_search(
                SearchConfig(cfg.k, cfg.q_min, cfg.q_max, cfg.alpha_min,
                             cfg.alpha_max, cfg.residue_filter, worker_count=w)
            ).to_jsonl()
            for w in (1, 2, 8)
        }
        workers_ok = workers_ok and len(outputs) == 1
        baselines.append(outputs.pop())

    # one interrupt/resume cycle must reproduce the uninterrupted bytes: in blocks
    # of 2^14 numbers, taking the third raises KeyboardInterrupt, after two were merged
    cfg = SearchConfig(1, q_min=3, q_max=50_000,
                       alpha_min=1, alpha_max=25,
                       checkpoint_path=str(tmp_path / "resume.ckpt"))
    results = oddperfect.search._block_results

    def interrupting_results(cfg, lo):
        with contextlib.closing(results(cfg, lo)) as scan:
            yield from itertools.islice(scan, 2)
        raise KeyboardInterrupt

    monkeypatch.setattr(oddperfect.search, "BLOCK_WIDTH", 16384)
    monkeypatch.setattr(oddperfect.search, "_block_results", interrupting_results)
    try:
        run_search(cfg)
        interrupted = False
    except KeyboardInterrupt:
        interrupted = True
    monkeypatch.undo()
    # the two merged blocks were saved, so the resume starts at the third
    path = tmp_path / "resume.ckpt"
    saved = path.exists() and json.loads(path.read_text())["q_done"]
    resumed = run_search(cfg).to_jsonl()
    _report(
        10,
        "jsonl byte-identical across worker counts {1, 2, 8} and across "
        "an interrupt/resume cycle from the checkpoint the interrupt left",
        workers_ok and interrupted and saved == 3 + 2 * 16384 - 1
        and resumed == baselines[2],
    )
