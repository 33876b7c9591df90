"""The mutants of src/ that the tests must catch, one case per mutant.

A case holds the file (relative to the repository root), the old text, which
occurs exactly once in that file, the new text that replaces it, the pytest
node ids of which at least one must fail (or hang) on the mutant, and the
change that reported it: a short commit hash, or the lead words of its
CHANGES.md line when the case arrived with that change.  `python3
mutants/run.py` applies each one alone; mutants/test_cases.py checks that
every old text still occurs exactly once.  A refactor that moves the code
moves its mutants too, or lists them in RETIRED with the commit that retired
them.  EQUIVALENT mutants change no behaviour any test can see; they are
listed with the reason and not run.
"""
from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    catch: tuple[str, ...]
    reported: str


class Equivalent(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    reported: str


class Retired(NamedTuple):
    name: str
    reported: str
    retired_by: str
    reason: str


ARITH = "src/oddperfect/arith.py"
SEARCH = "src/oddperfect/search.py"
CLI = "src/oddperfect/cli.py"
QUADRATIC = "src/oddperfect/quadratic.py"
CLASSIFY = "src/oddperfect/classify.py"

T_ARITH = "tests/test_arith.py::"
T_SEARCH = "tests/test_search.py::"
T_CLI = "tests/test_cli.py::"
T_QUADRATIC = "tests/test_quadratic.py::"
T_CLASSIFY = "tests/test_classify.py::"
T_ACCEPTANCE = "tests/test_acceptance.py::"

#: The change that split the search kernel from its sieve and resumes through it.
HIT_TEST = "one hit test for the scan and the resume"
#: The change that starts the search helpers only when the shards left pay for them.
LATE_HELPERS = "Search helpers start only when the shards left pay for them"
#: The change that makes the search subcommand a thin shell over SearchConfig.
THIN_SEARCH = "`oddperfect search` restates nothing"
#: The change that decides the search helpers from the shards left and
#: requires SearchConfig's numbers to be ints.
ONE_DECISION = "One decision starts the search helpers"
#: The change that checkpoints once per CHECKPOINT_SHARDS merged shards and when
#: the scan stops, and recounts a resume CHECKPOINT_SHARDS shards per sieve call.
CADENCE = "Checkpoint once per 16 merged shards"
#: The change that times the parent's shards on one clock and stops every helper in one finally.
ONE_CLOCK = "One clock and one teardown for the search helpers"

_RESUMED = T_SEARCH + "TestCheckpointing::test_resumed_hits_are_verified"
_HELPER_START = T_SEARCH + "TestHelperStart::"
_CADENCE = T_SEARCH + "TestCheckpointCadence::"
_PRIMES_BETWEEN = T_ARITH + "TestPrimesBetween::"
_REDUCTION = T_SEARCH + "TestPredictedByTheReduction::"
_HUGE_N = T_CLI + "TestViolationDetector::test_huge_n_is_printed_and_judged_whole"
#: The fields SearchConfig requires to be of type int, in the order search.py lists them.
_INT_FIELDS = ("q_min", "q_max", "alpha_min", "alpha_max", "worker_count", "residue_filter")


def _listed(fields: tuple[str, ...]) -> str:
    """fields as search.py writes the tuple: ("q_min", "q_max", ...)."""
    return str(fields).replace("'", '"')


CASES: tuple[Mutant, ...] = (
    # factorize in one path
    Mutant("table-split-skipped", ARITH,
           "        while g > 1:", "        while False:",
           (T_ARITH + "TestFactorizeTrustedPath::test_group_gcd_at_or_above_the_table_bound",
            T_ARITH + "TestSmallestPrimeFactorTable::test_factorize_against_trial_division"),
           "92b798c"),
    Mutant("group-gcd-taken-as-prime", ARITH,
           "            p = spf[g >> 1] or g", "            p = g",
           (T_ARITH + "TestFactorizeOracle::test_carmichael_numbers",
            T_ARITH + "TestFactorizeTrustedPath::test_group_gcd_at_or_above_the_table_bound"),
           "92b798c"),
    Mutant("final-chain-skipped", ARITH,
           "    while 1 < c < _TABLE_BOUND:", "    while False:",
           (T_ARITH + "TestFactorize::test_spec_values",
            T_ARITH + "TestFactorizeTrustedPath::test_matches_oracle_below_10_8"),
           "92b798c"),
    Mutant("final-chain-one-step", ARITH,
           "    while 1 < c < _TABLE_BOUND:", "    if 1 < c < _TABLE_BOUND:",
           (T_ARITH + "TestSmallestPrimeFactorTable::test_factorize_against_trial_division",
            T_ARITH + "TestFactorizeOracle::test_carmichael_numbers"),
           "92b798c"),
    Mutant("group-scan-never-stops", ARITH,
           "            if g < _TABLE_BOUND:", "            if g < 1 << 62:",
           (T_ARITH + "TestFactorizeTrustedPath::test_group_gcd_at_or_above_the_table_bound",
            T_ARITH + "TestFactorizeProvesOnce::test_no_call_proves_a_trial_prime"),
           "92b798c"),
    Mutant("composite-flag-kept-after-a-hit", ARITH,
           "        composite = False\n    else:", "    else:",
           (T_ARITH + "TestFactorizeProvesOnce::test_a_prime_cofactor_ends_trial_before_rho",),
           "92b798c"),
    Mutant("trial-groups-below-the-table", ARITH,
           " if c >= _TABLE_BOUND else ():", " if c >= 3 else ():",
           (T_ARITH + "TestFactorizeIsLazy::test_import_builds_no_trial_table",),
           "92b798c"),
    Mutant("every-exponent-one", ARITH,
           "    e = 0\n    while c % p == 0:\n        c, e = c // p, e + 1",
           "    e = 1\n    c //= p",
           (T_ARITH + "TestFactorizeTrustedPath::test_cofactor_either_side_of_the_table_bound_after_a_hit",
            T_ARITH + "TestFactorizeTrustedPath::test_trial_bound_edge"),
           "92b798c"),
    Mutant("trial-group-of-128", ARITH,
           "_TRIAL_GROUP = 256", "_TRIAL_GROUP = 128",
           (T_ARITH + "TestFactorizeProvesOnce::test_no_call_for_a_cofactor_below_the_next_least_square",),
           "92b798c"),
    # SearchConfig carries k
    Mutant("exact-test-divides-by-two", SEARCH,
           "divmod(sigma_prime_power(q, alpha), k)", "divmod(sigma_prime_power(q, alpha), 2)",
           (T_SEARCH + "TestNSquared::test_small_range_hits",
            T_SEARCH + "TestOracleEquivalence::test_matches_naive_double_loop[nsq]",
            _REDUCTION + "test_kernel_over_every_integer[nsq-1e6]"),
           "03dbaad"),
    Mutant("nsq-alpha-one-not-forbidden", CLI,
           "r.alpha > 1 or r.k == 1", "r.alpha > 1",
           (T_CLI + "TestViolationDetector::test_injected_forbidden_nsq_hit_at_alpha_one",),
           "03dbaad"),
    Mutant("skipped-alphas-for-the-wrong-k", SEARCH,
           "cfg.k % 2 == 0", "cfg.k == 1",
           (T_SEARCH + "TestCoverageAccounting::test_scanned_and_skipped_counts",
            T_SEARCH + "TestCoverageAccounting::test_nsq_never_skips"),
           "03dbaad"),
    Mutant("k-type-unchecked", SEARCH,
           "type(self.k) is not int or self.k not in EQUATIONS", "self.k not in EQUATIONS",
           (T_SEARCH + "TestConfig::test_equation_must_be_a_member[True]",
            T_SEARCH + "TestConfig::test_equation_must_be_a_member[2.0]"),
           "03dbaad"),
    Mutant("base-primes-to-twice-the-root", ARITH,
           "_base_primes((root - 1).bit_length() + (root == 2))",
           "_base_primes(root.bit_length())",
           (T_ARITH + "TestPrimesBetween::test_base_primes_reach_the_root_and_no_further",),
           "03dbaad"),
    Mutant("base-primes-short-at-root-two", ARITH,
           "(root - 1).bit_length() + (root == 2)", "(root - 1).bit_length()",
           (T_ARITH + "TestPrimesBetween::test_base_primes_reach_the_root_and_no_further",),
           "03dbaad"),
    Mutant("identity-q-max-unbounded", QUADRATIC,
           "    if q_max > SWEEP_Q_BOUND:", "    if False:",
           (T_QUADRATIC + "TestIdentitySweep::test_q_max_past_its_bound_rejected_before_any_sieve",
            T_CLI + "TestIdentityQMaxBound::test_past_the_bound_exits_one_under_a_memory_limit[1_000_001]"),
           "03dbaad"),
    Mutant("no-split-for-2nsq", SEARCH,
           "split_solution(q, alpha, n) if k == 2 else None", "None",
           (T_SEARCH + "TestTwoNSquared::test_small_range_hits",),
           "03dbaad"),
    # streaming helpers
    Mutant("parent-takes-the-wrong-shards", SEARCH,
           "            if turn:\n", "            if turn != 1:\n",
           (T_SEARCH + "TestWorkerDeterminism::test_output_identical_for_1_2_8_workers",
            T_SEARCH + "TestWorkerCap::test_pool_never_exceeds_shards_or_cpus[4_shards]"),
           "a6a0667"),
    Mutant("helper-does-not-forward", SEARCH,
           "        with contextlib.suppress(OSError):  # the parent is gone: no one to tell\n"
           "            send.send(exc)",
           "        raise",
           (T_SEARCH + "TestHelperFailures::test_consistency_error_exits_two",
            T_SEARCH + "TestHelperFailures::test_keyboard_interrupt_stops_the_scan"),
           "a6a0667"),
    Mutant("parent-does-not-raise-forwarded", SEARCH,
           "    if isinstance(result, BaseException):\n        raise result\n", "",
           (T_SEARCH + "TestHelperFailures::test_consistency_error_exits_two",
            T_SEARCH + "TestHelperFailures::test_keyboard_interrupt_stops_the_scan"),
           "a6a0667"),
    # helpers that start before shard 0 then fork before the parent's first
    # shard builds the tables, and a first search times the build as shard time
    Mutant("tables-built-after-the-fork", SEARCH,
           "    _alpha_masks(cfg)\n", "",
           (T_SEARCH + "TestWorkerCap::test_tables_are_built_before_the_pool_starts",
            _HELPER_START + "test_the_table_build_is_no_shard_time"),
           "a6a0667"),
    # the parent keeps a send end open, so a dead helper's EOF never comes: the
    # test's child hangs until its own 60 s timeout
    Mutant("parent-keeps-the-send-end", SEARCH,
           "    send.close()", "    process.send_end = send",
           (T_SEARCH + "TestHelperFailures::test_dead_helper_is_a_one_line_io_error",),
           "a6a0667"),
    # one hit test for the scan and the resume
    Mutant("resume-skips-is-prime", SEARCH,
           "np.array([q for q in qs if is_prime(q)], dtype=np.int64)",
           "np.array(qs, dtype=np.int64)",
           (_RESUMED + "[q_not_prime]",),
           HIT_TEST),
    Mutant("resume-skips-the-q-filter", SEARCH,
           " and cfg.residue_filter in (None, q % 4)]", "]",
           (_RESUMED + "[q_not_eligible]",),
           HIT_TEST),
    Mutant("resume-skips-the-cursor", SEARCH,
           "cfg.q_min <= q <= done and", "cfg.q_min <= q and",
           (_RESUMED + "[q_above_q_max]", _RESUMED + "[q_beyond_cursor]"),
           HIT_TEST),
    Mutant("resume-skips-q-min", SEARCH,
           "cfg.q_min <= q <= done and", "q <= done and",
           (_RESUMED + "[q_below_q_min]",),
           HIT_TEST),
    Mutant("resume-compares-with-eq", SEARCH,
           "if canonical_json(found) != canonical_json(pairs):", "if found != pairs:",
           (_RESUMED + "[alpha_not_int]",),
           HIT_TEST),
    Mutant("resume-names-no-stray-pair", SEARCH,
           '{stray[0]}" if stray\n', '{stray[0]}" if not stray\n',
           (T_CLI + "test_golden_output[checkpoint_forged_hit]",
            T_SEARCH + "TestCheckpointing::test_a_stray_pair_is_named_and_a_missing_hit_is_not"),
           HIT_TEST),
    Mutant("trace-term-misses-a-factor", QUADRATIC,
           "term * d * (m - 2 * i + 2) * (m - 2 * i + 1)", "term * d * (m - 2 * i + 2) * (m - 2 * i)",
           (T_QUADRATIC + "TestTraceExpansion::test_matches_the_binomial_sum",
            T_QUADRATIC + "TestTraceExpansion::test_matches_power_trace_for_both_signs"),
           HIT_TEST),
    Mutant("trace-term-divides-by-too-little", QUADRATIC,
           "// ((2 * i - 1) * 2 * i)", "// ((2 * i - 1) * i)",
           (T_QUADRATIC + "TestTraceExpansion::test_matches_the_binomial_sum",),
           HIT_TEST),
    Mutant("jaeschke-rung-with-psw-witnesses", ARITH,
           "(9_080_191, (31, 73)),", "(9_080_191, (2, 3)),",
           (T_ARITH + "TestIsPrime::test_strong_pseudoprimes_are_rejected",
            T_ARITH + "TestIsPrime::test_either_side_of_the_deleted_rungs"),
           HIT_TEST),
    # search helpers start only when the shards left pay for them
    Mutant("identity-m-max-unbounded", QUADRATIC,
           "    if m_max > SWEEP_M_BOUND:", "    if False:",
           (T_QUADRATIC + "TestIdentitySweep::test_m_max_past_its_bound_rejected_before_any_trace",
            T_CLI + "TestIdentityMMaxBound::test_past_the_bound_exits_one_under_a_memory_limit[1_001]"),
           LATE_HELPERS),
    Mutant("helpers-start-only-past-break-even", SEARCH,
           "(shards - i) >= w * HELPER_START_S", "(shards - i) > w * HELPER_START_S",
           (_HELPER_START + "test_helpers_start_at_the_break_even_point[break_even]",
            T_SEARCH + "TestHelperFailures::test_abandoned_scan_stops_its_helpers"),
           LATE_HELPERS),
    Mutant("helpers-start-at-the-scan-start", SEARCH,
           "_start_helper(cfg, a, j, w)", "_start_helper(cfg, lo, j, w)",
           (_HELPER_START + "test_slow_shards_start_the_helpers_after_the_first",
            _HELPER_START + "test_interrupt_after_the_switch_resumes_to_the_same_bytes"),
           LATE_HELPERS),
    Mutant("turns-counted-from-the-scan-start", SEARCH,
           "(i - switch) % (len(helpers) + 1)", "i % (len(helpers) + 1)",
           (_HELPER_START + "test_slow_shards_start_the_helpers_after_the_first",
            _HELPER_START + "test_interrupt_after_the_switch_resumes_to_the_same_bytes"),
           LATE_HELPERS),
    # one decision starts the search helpers
    Mutant("helper-cap-from-all-shards", SEARCH,
           "min(cfg.worker_count, shards - i, _usable_cpus())",
           "min(cfg.worker_count, shards, _usable_cpus())",
           (_HELPER_START + "test_no_helper_for_a_shard_that_does_not_exist[2_shards]",),
           ONE_DECISION),
    *(Mutant(f"{name}-type-unchecked", SEARCH, _listed(_INT_FIELDS),
             _listed(tuple(field for field in _INT_FIELDS if field != name)),
             (T_SEARCH + f"TestConfig::test_numbers_must_be_ints[{name}-{value!r}]",),
             ONE_DECISION)
      for name, value in [("q_min", 3.5), ("q_max", 1e5), ("alpha_min", True),
                          ("alpha_max", 25.0), ("worker_count", 2.0), ("residue_filter", 1.0)]),
    # checkpoints every 16 merged shards and at the stop
    Mutant("stop-save-dropped", SEARCH,
           "# and raise what stopped the scan\n                checkpoint_save(cfg, done, records)\n",
           "# and raise what stopped the scan\n                pass\n",
           (_CADENCE + "test_an_interrupt_between_saves_keeps_every_merged_shard",
            T_SEARCH + "TestCheckpointing::test_fresh_interrupt_resume_cycle",
            T_ACCEPTANCE + "test_criterion_10_determinism"),
           CADENCE),
    Mutant("save-cadence-one-shard-late", SEARCH,
           "or not i % CHECKPOINT_SHARDS):", "or i % CHECKPOINT_SHARDS == 1):",
           (_CADENCE + "test_saves_every_16_merged_shards_and_at_the_end",
            _HELPER_START + "test_slow_shards_start_the_helpers_after_the_first"),
           CADENCE),
    Mutant("recount-one-short-of-the-cursor", SEARCH,
           "_intervals(cfg.q_min, done, CHECKPOINT_SHARDS)",
           "_intervals(cfg.q_min, done - 1, CHECKPOINT_SHARDS)",
           (_CADENCE + "test_a_resume_recounts_the_primes_before_the_cursor",),
           CADENCE),
    # one clock and one teardown for the search helpers
    Mutant("teardown-kills-no-helper", SEARCH,
           "            process.kill()\n", "",
           (T_SEARCH + "TestPoolLifetime::test_interrupt_does_not_wait_for_running_shards",
            T_SEARCH + "TestHelperFailures::test_abandoned_scan_stops_its_helpers",
            T_SEARCH + "TestHelperFailures::test_keyboard_interrupt_stops_the_scan",
            T_SEARCH + "TestHelperFailures::test_consistency_error_exits_two"),
           ONE_CLOCK),
    # a clock read before shard 0 counts the time since the read as a shard
    Mutant("clock-read-at-shard-0", SEARCH,
           "time.perf_counter() - start if i else 0.0", "time.perf_counter() - start",
           (_HELPER_START + "test_no_helper_for_a_shard_that_does_not_exist[3_shards]",
            _HELPER_START + "test_slow_shards_start_the_helpers_after_the_first"),
           ONE_CLOCK),
    # search kernel v3, reported in prose and written as cases here
    Mutant("alpha-window-ignored", SEARCH,
           "    bits = (1 << cfg.alpha_max + 1) - (1 << cfg.alpha_min)\n",
           "    bits = (1 << 64 * words) - 1\n",
           (T_SEARCH + "TestAlphaTables::test_alpha_window",
            T_SEARCH + "TestKernelAgainstOracle::test_edge_ranges",
            _REDUCTION + "test_kernel_over_every_integer[nsq-to_2e4]",
            _REDUCTION + "test_deep_window_to_the_prediction[1e9-nsq-all]"),
           "da9813d"),
    Mutant("last-modulus-skipped", SEARCH,
           "    for rows in primes % _SIEVE_M + _SIEVE_ROWS:",
           "    for rows in (primes % _SIEVE_M + _SIEVE_ROWS)[:-1]:",
           (T_SEARCH + "TestKernelAgainstOracle::test_large_q_and_alpha",),
           "da9813d"),
    Mutant("first-modulus-64", SEARCH,
           "_SIEVE_MODULI = (128, 9,", "_SIEVE_MODULI = (64, 9,",
           (T_SEARCH + "TestKernelAgainstOracle::test_sieve_moduli",
            T_SEARCH + "TestAlphaTables::test_two_nsq_mod_128_rows_clear_every_even_alpha"),
           "da9813d"),
    Mutant("table-bit-one-alpha-late", SEARCH,
           "        bits[alpha] = square[offset + sigma]\n"
           "        power = power * r % m\n        sigma = (sigma + power) % m\n",
           "        power = power * r % m\n        sigma = (sigma + power) % m\n"
           "        bits[alpha] = square[offset + sigma]\n",
           (T_SEARCH + "TestAlphaTables::test_every_bit_against_exact_sigma",
            _REDUCTION + "test_kernel_over_every_integer[2nsq-to_2e4]",
            _REDUCTION + "test_deep_window_to_the_prediction[1e10-2nsq-mod4_3]"),
           "da9813d"),
    Mutant("alpha-bound-times-ten", SEARCH,
           "ALPHA_MAX_BOUND = 10_000", "ALPHA_MAX_BOUND = 100_000",
           (T_SEARCH + "TestAlphaBound::test_bound_is_enforced",
            T_CLI + "TestAlphaMaxBound::test_past_the_bound_exits_one_under_a_memory_limit[10_001]"),
           "da9813d"),
    Mutant("scatter-one-multiple-short", ARITH,
           "np.maximum(size - first + large - 1, 0) // large",
           "np.maximum(size - first - 1, 0) // large",
           (_PRIMES_BETWEEN + "test_base_primes_either_side_of_256",
            _PRIMES_BETWEEN + "test_default_segment_boundary"),
           "da9813d"),
    Mutant("root-cut-one-prime-short", ARITH,
           'np.searchsorted(large, root, side="right")', 'np.searchsorted(large, root, side="left")',
           (_PRIMES_BETWEEN + "test_base_primes_either_side_of_256",),
           "da9813d"),
    Mutant("small-slices-one-stride-late", ARITH,
           "flags[max(p * p - start, -start % p) :: p] = False",
           "flags[max(p * p - start, -start % p) + p :: p] = False",
           (_PRIMES_BETWEEN + "test_empty_and_degenerate_intervals",
            _PRIMES_BETWEEN + "test_squares_and_segment_boundaries"),
           "da9813d"),
    # one-pass Chen-Luo ledger
    Mutant("ledger-a-and-b-swapped", CLASSIFY,
           "(p, e, v2(p + 1) - 1, v2(e + 1) - 1)", "(p, e, v2(e + 1) - 1, v2(p + 1) - 1)",
           (T_CLASSIFY + "TestChenLuo::test_terms_match_trial_division",),
           "a84601e"),
    # the search subcommand as a thin shell over SearchConfig
    Mutant("search-dest-names-no-field", CLI,
           'dest="worker_count"', 'dest="workers"',
           (T_CLI + "TestSearchFlags::test_every_flag_sets_its_field",),
           THIN_SEARCH),
    Mutant("search-text-prints-an-absent-split", CLI,
           "if value is not None and key not in", "if key not in",
           (T_CLI + "test_golden_output[search_nsq_jobs1]",),
           THIN_SEARCH),
    Mutant("violations-printed-after-the-limit-is-restored", CLI,
           "            violations = list(violations)\n"
           "            for line in violations:\n"
           "                print(f\"theorem violation: {line}\", file=sys.stderr)\n"
           "        finally:\n"
           "            sys.set_int_max_str_digits(limit)\n",
           "        finally:\n"
           "            sys.set_int_max_str_digits(limit)\n"
           "        violations = list(violations)\n"
           "        for line in violations:\n"
           "            print(f\"theorem violation: {line}\", file=sys.stderr)\n",
           (_HUGE_N + "[forbidden-text]", _HUGE_N + "[forbidden-jsonl]"),
           THIN_SEARCH),
)

EQUIVALENT: tuple[Equivalent, ...] = (
    Equivalent("gcd-screen-without-37", ARITH,
               "_SMALL_PRODUCT = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))",
               "_SMALL_PRODUCT = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))",
               "the proven witness ladder rejects every composite below its bound, "
               "multiples of 37 among them; the screen only saves their rounds",
               "ee2df68"),
    Equivalent("slice-primes-below-128", ARITH,
               "    k = np.searchsorted(base, 256)", "    k = np.searchsorted(base, 128)",
               "the slice and the scatter cross out the same multiples; the split "
               "point only moves work between them",
               "da9813d"),
    Equivalent("group-scan-stop-dropped", ARITH,
               "            if g < _TABLE_BOUND:", "            if g < 1:",
               "the scan then walks the whole group and leaves g = 1 for the table: "
               "the same factors and is_prime calls, only more % work",
               "92b798c"),
    Equivalent("send-end-not-closed", SEARCH,
               "    send.close()\n", "",
               "in CPython Process.start() drops its args, so the local's last reference "
               "closes the send end when _start_helper returns",
               "a6a0667"),
)

#: Reported mutants whose old text no longer exists, with the change that
#: removed it.
RETIRED: tuple[Retired, ...] = (
    Retired("odd-alpha-rule-dropped", "da9813d", "03dbaad",
            "the parity mask is gone: for k = 2 the mod-128 rows clear every even alpha, "
            "which TestAlphaTables::test_two_nsq_mod_128_rows_clear_every_even_alpha pins"),
    Retired("tables-built-after-the-pool-starts", "da9813d", "a6a0667",
            "the pool is gone; the same mutant on the helpers is the case "
            "tables-built-after-the-fork"),
    Retired("helpers-not-killed", "a6a0667", ONE_CLOCK,
            "the except block that killed the helpers is gone; the one kill left is in "
            "the finally, and dropping it is the case teardown-kills-no-helper"),
)
