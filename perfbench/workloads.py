"""The three workloads: timed loop, traced pass, set-up probes and checks.

Every call goes through a public entry point that the package keeps:
``cli.run`` for the search, ``chenluo_check`` for the ledger and
``two_adic_certificate`` for the certificates.  Results are checked against
the references in refs.py after the call's timer stops; a call that raises
or disagrees counts as failed and the run goes on.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from itertools import chain, islice
from pathlib import Path

import oddperfect

import inputs
import refs
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Checkpoints, temporary files and span dumps; removed or overwritten per run.
RUN_DIR = ROOT / ".perfbench_run"
#: Pool size for the search: two workers, never more than the CPUs we may use.
JOBS = min(2, os.cpu_count() or 1, len(os.sched_getaffinity(0)))
SETUP_PROBES = 7
LATENCY_SAMPLES = 1 << 16
#: call_tail_us is the highest of these percentiles with >= 10 samples beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
#: The traced batch is split into this many slices, each run untraced and
#: then traced, so that both see the same machine speed.
TRACE_SLICES = 4

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "call_p50_us": "us",
    "call_tail_us": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "arith.factorize.calls": "count",
    "arith.factorize.self_s": "s",
    "arith.factorize.us_per_call": "us",
    "arith.is_prime.calls": "count",
    "arith.is_prime.per_factorize": "ratio",
    "arith.vp.calls": "count",
    "arith.vp.busy_s": "s",
    "arith.sigma.busy_s": "s",
    "arith.binomial.calls": "count",
    "arith.binomial.busy_s": "s",
    "arith.isqrt_exact.calls": "count",
    "arith.isqrt_exact.busy_s": "s",
    "arith.primes_upto.busy_s": "s",
    "search.isqrt_per_pair": "ratio",
    "search.run_search.self_s": "s",
    "search.pairs": "count",
    "search.scanned_primes": "count",
    "search.hits": "count",
    "search.checkpoint_save.calls": "count",
    "search.checkpoint_save.busy_s": "s",
    "search.checkpoint_bytes": "bytes",
    "search.resume_s": "s",
    "search.pool_speedup": "ratio",
    "cli.run.self_s": "s",
    "cli.jsonl_bytes": "bytes",
    "classify.chenluo_check.calls": "count",
    "classify.chenluo_check.self_s": "s",
    "quadratic.two_adic_certificate.calls": "count",
    "quadratic.two_adic_certificate.self_s": "s",
    "quadratic.two_adic_certificate.us_per_call": "us",
    "quadratic.summands": "count",
    "setup.import_s": "s",
    "setup.first_call_s": "s",
    "trace.overhead_frac": "ratio",
}


class Latencies:
    """Call latencies in ns, at most LATENCY_SAMPLES of them.

    When the buffer is full every other sample is dropped, and from then on
    only every other call is kept, so that the benchmark's own memory, which
    peak_rss_mb includes, does not grow with the program's throughput.
    """

    def __init__(self) -> None:
        self.kept = array("q")
        self.calls = 0
        self._stride = 1

    def append(self, ns: int) -> None:
        if self.calls % self._stride == 0:
            self.kept.append(ns)
            if len(self.kept) == LATENCY_SAMPLES:
                self.kept = self.kept[::2]
                self._stride *= 2
        self.calls += 1


class Pass:
    """The calls made over one stretch of inputs and what became of them."""

    def __init__(self) -> None:
        self.latency = Latencies()
        self.items = 0
        self.wall_s = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def merge(self, other: Pass) -> None:
        for ns in other.latency.kept:
            self.latency.append(ns)
        self.items += other.items
        self.wall_s += other.wall_s
        self.failed += other.failed
        self.errors += other.errors[: max(0, 5 - len(self.errors))]
        for key, value in other.counts.items():
            self.add(key, value)


class CallWorkload:
    """One public call per input; every sample_every-th result is checked."""

    def __init__(self, name, call, span, check, sample_every, sample_cap,
                 trace_items_per_s, max_input, tally=None):
        self.name = name
        self.call = call
        self.span = span
        self.check = check
        self.sample_every = sample_every
        self.sample_cap = sample_cap
        self.trace_items_per_s = trace_items_per_s
        self.max_input = max_input
        self.tally = tally

    def first_call(self, item) -> None:
        self.call(item)

    def trace_batch(self, first, items, seconds: float) -> list:
        size = max(1, round(seconds * self.trace_items_per_s))
        return [first, *islice(items, size - 1)]

    def run_pass(self, items, deadline_ns=None, tracer=None) -> Pass:
        fn = self.call
        if tracer is not None:
            fn = tracer.wrap(self.span, fn)
        p = Pass()
        latency, samples, tally = p.latency, [], self.tally
        clock = time.perf_counter_ns
        start = clock()
        for i, x in enumerate(items):
            t0 = clock()
            try:
                result = fn(x)
            except Exception as exc:
                t1 = clock()
                p.fail(f"{self.name} {x}: {exc!r}")
            else:
                t1 = clock()
                if i % self.sample_every == 0 and len(samples) < self.sample_cap:
                    samples.append((x, result))
                if tally is not None:
                    tally(p, result)
            latency.append(t1 - t0)
            if deadline_ns is not None and t1 >= deadline_ns:
                break
        p.wall_s = (clock() - start) / 1e9
        p.items = latency.calls
        for x, result in samples:
            _check(p, f"{self.name} {x}", self.check, x, result)
        return p


def _check(p: Pass, label: str, check, *args) -> None:
    try:
        ok = check(*args)
    except Exception as exc:
        p.fail(f"{label}: reference check raised {exc!r}")
        return
    if not ok:
        p.fail(f"{label}: disagrees with the reference")


NSQ_ALPHA = (1, 25)
TWO_NSQ_ALPHA = (3, 25)
TWO_NSQ_EVEN_ALPHA = sum(1 for a in range(TWO_NSQ_ALPHA[0], TWO_NSQ_ALPHA[1] + 1) if a % 2 == 0)


class SearchWorkload:
    """Per q-interval, three cli.run calls in JSONL mode.

    nsq without a residue filter; the paper's empty 2nsq range with a
    checkpoint; and that 2nsq call again, resumed from its finished
    checkpoint.  An item is one (q, alpha) pair the first two cover; an input
    is a pass over several q-intervals.
    """

    name = "search"
    max_input = inputs.SEARCH_Q_MAX

    @staticmethod
    def trace_batch(first, items, seconds: float) -> list:
        """The first interval alone: a whole pass would make millions of spans."""
        return [first[:1]]

    @staticmethod
    def _argv(chunk, jobs, checkpoint):
        common = ["search", "--q-min", str(chunk.q_min), "--q-max", str(chunk.q_max),
                  "--format", "jsonl", "--jobs", str(jobs)]
        nsq = common + ["--equation", "nsq", "--alpha-min", str(NSQ_ALPHA[0]),
                        "--alpha-max", str(NSQ_ALPHA[1])]
        two = common + ["--equation", "2nsq", "--q-mod4", "1",
                        "--alpha-min", str(TWO_NSQ_ALPHA[0]),
                        "--alpha-max", str(TWO_NSQ_ALPHA[1]), "--checkpoint", checkpoint]
        return (("nsq", nsq), ("2nsq", two), ("resume", two))

    def first_call(self, chunks) -> None:
        import oddperfect.cli

        argv = self._argv(chunks[0], JOBS, "unused")[0][1]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = oddperfect.cli.run(argv)
        if rc != 0:
            raise RuntimeError(f"search exited {rc}")

    def run_pass(self, passes, deadline_ns=None, tracer=None, jobs=JOBS) -> Pass:
        import oddperfect.cli

        run = oddperfect.cli.run
        if tracer is not None:
            run = tracer.wrap("cli.run", run)
        p = Pass()
        clock = time.perf_counter_ns
        RUN_DIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=RUN_DIR)
        try:
            start = clock()
            for k, chunk in ((k, c) for chunks in passes for k, c in enumerate(chunks)):
                self._interval(p, run, chunk, jobs, os.path.join(workdir, f"{k}.ckpt"))
                if deadline_ns is not None and clock() >= deadline_ns:
                    break
            p.wall_s = (clock() - start) / 1e9
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        p.items = int(p.counts.get("pairs", 0))
        return p

    def _interval(self, p: Pass, run, chunk, jobs, checkpoint) -> None:
        clock = time.perf_counter_ns
        first_2nsq = None
        for kind, argv in self._argv(chunk, jobs, checkpoint):
            out = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out):
                    rc = run(argv)
            except Exception as exc:
                rc = exc
            t1 = clock()
            p.latency.append(t1 - t0)
            text = out.getvalue()
            p.add("jsonl_bytes", len(text.encode()))
            label = f"search {kind} q in [{chunk.q_min}, {chunk.q_max}]"
            if kind == "resume":
                p.add("resume_s", (t1 - t0) / 1e9)
                _check(p, label, lambda: rc == 0 and text == first_2nsq)
            else:
                if kind == "2nsq":
                    first_2nsq = text
                    if os.path.exists(checkpoint):
                        p.add("checkpoint_bytes", os.path.getsize(checkpoint))
                _check(p, label, self._check, kind, chunk, rc, text, p)
        if os.path.exists(checkpoint):
            os.remove(checkpoint)

    @staticmethod
    def _check(kind, chunk, rc, text, p: Pass) -> bool:
        if kind == "nsq":
            pairs, primes = chunk.primes * (NSQ_ALPHA[1] - NSQ_ALPHA[0] + 1), chunk.primes
        else:
            pairs = chunk.primes_1mod4 * (TWO_NSQ_ALPHA[1] - TWO_NSQ_ALPHA[0] + 1)
            primes = chunk.primes_1mod4
        p.add("pairs", pairs)
        if rc != 0:
            return False
        lines = [json.loads(line) for line in text.splitlines()]
        summary, records = lines[-1], lines[:-1]
        p.add("scanned_primes", summary["scanned_primes"])
        p.add("hits", len(records))
        if kind == "nsq":
            hits = {(r["q"], r["alpha"], r["n"]) for r in records}
            expected = {h for h in refs.NSQ_SOLUTIONS if chunk.q_min <= h[0] <= chunk.q_max}
            ok = hits == expected and all(refs.check_hit("nsq", *h) for h in hits)
        else:
            ok = not records and summary["skipped_even_alpha"] == TWO_NSQ_EVEN_ALPHA * primes
        return ok and summary["scanned_primes"] == primes and summary["hits"] == len(records)


def _count_summands(p: Pass, report) -> None:
    p.add("summands", len(report.summands))


WORKLOADS = {
    "search": SearchWorkload(),
    "ledger-random": CallWorkload(
        "ledger-random", oddperfect.chenluo_check, "classify.chenluo_check",
        refs.check_chenluo, sample_every=4099, sample_cap=8,
        trace_items_per_s=250, max_input=inputs.RANDOM_N_MAX,
    ),
    "certify": CallWorkload(
        "certify", lambda pair: oddperfect.two_adic_certificate(*pair),
        "quadratic.two_adic_certificate",
        lambda pair, report: refs.check_certificate(*pair, report),
        sample_every=13, sample_cap=1000, trace_items_per_s=100,
        max_input=inputs.CERT_Q_MAX, tally=_count_summands,
    ),
}


def run(name: str, seed: int, seconds: float, trace: bool,
        probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the run record."""
    workload = WORKLOADS[name]
    items = inputs.INPUTS[name](seed)
    first = next(items)
    is_search = name == "search"
    passes = [workload.run_pass([first[:1]] if is_search else [first])]
    if trace:
        batch = workload.trace_batch(first, items, seconds)
        # the wrappers do not reach pool workers, so the search runs serially
        serial = {"jobs": 1} if is_search else {}
        untraced, traced, tracer = Pass(), Pass(), Tracer()
        step = -(-len(batch) // TRACE_SLICES)
        for lo in range(0, len(batch), step):
            untraced.merge(workload.run_pass(batch[lo : lo + step], **serial))
            with tracer.installed():
                traced.merge(workload.run_pass(batch[lo : lo + step], tracer=tracer, **serial))
        passes += [untraced, traced]
        pooled = None
        if is_search:
            pooled = workload.run_pass(batch)
            passes.append(pooled)
        _reap_children()
        RUN_DIR.mkdir(exist_ok=True)
        tracer.write(RUN_DIR / f"spans-{name}.npz")
    else:
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        timed = workload.run_pass(chain([first], items), deadline_ns=deadline)
        passes.append(timed)
        _reap_children()
        peak_mb = _peak_rss_mb()
    setup = measure_setup(name, seed, probes)
    attempted = sum(p.latency.calls for p in passes) + probes
    failed = sum(p.failed for p in passes) + setup["errors"]

    record = environment(workload, seed)
    record.update(workload=name, seconds=seconds, trace=int(trace),
                  fail_frac=failed / attempted,
                  errors=[e for p in passes for e in p.errors][:5] + setup["messages"])
    if trace:
        metrics = layer_metrics(tracer.totals(), traced, untraced, pooled, setup)
        units = PER_LAYER
        record.update(traced_calls=traced.latency.calls, spans=len(tracer.start))
    else:
        p50, tail, pct, beyond = latency_summary(timed.latency.kept)
        metrics = {
            "setup_s": setup["total_s"],
            "items_per_s": timed.items / timed.wall_s,
            "call_p50_us": p50,
            "call_tail_us": tail,
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END
        record.update(calls=timed.latency.calls, latency_samples=len(timed.latency.kept),
                      items=timed.items, wall_s=timed.wall_s,
                      tail_percentile=pct, tail_samples_beyond=beyond)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, record


def latency_summary(latency_ns) -> tuple[float, float, float, int]:
    """(median, tail, tail percentile, samples beyond the tail), times in us."""
    xs = sorted(latency_ns)
    n = len(xs)
    for pct in TAIL_LADDER:
        idx = max(0, math.ceil(pct / 100 * n) - 1)
        if n - 1 - idx >= 10:
            break
    return statistics.median(xs) / 1e3, xs[idx] / 1e3, pct, n - 1 - idx


def layer_metrics(totals, traced: Pass, untraced: Pass, pooled: Pass | None, setup) -> dict:
    def calls(layer):
        return totals.get(layer, (0, 0.0, 0.0))[0]

    def busy(layer):
        return totals.get(layer, (0, 0.0, 0.0))[1]

    def own(layer):
        return totals.get(layer, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    counts = traced.counts
    return {
        "arith.factorize.calls": calls("arith.factorize"),
        "arith.factorize.self_s": own("arith.factorize"),
        "arith.factorize.us_per_call": ratio(busy("arith.factorize") * 1e6, calls("arith.factorize")),
        "arith.is_prime.calls": calls("arith.is_prime"),
        "arith.is_prime.per_factorize": ratio(calls("arith.is_prime"), calls("arith.factorize")),
        "arith.vp.calls": calls("arith.vp"),
        "arith.vp.busy_s": busy("arith.vp"),
        "arith.sigma.busy_s": busy("arith.sigma"),
        "arith.binomial.calls": calls("arith.binomial"),
        "arith.binomial.busy_s": busy("arith.binomial"),
        "arith.isqrt_exact.calls": calls("arith.isqrt_exact"),
        "arith.isqrt_exact.busy_s": busy("arith.isqrt_exact"),
        "arith.primes_upto.busy_s": busy("arith.primes_upto"),
        "search.isqrt_per_pair": ratio(calls("arith.isqrt_exact"), counts.get("pairs", 0)),
        "search.run_search.self_s": own("search.run_search"),
        "search.pairs": int(counts.get("pairs", 0)),
        "search.scanned_primes": int(counts.get("scanned_primes", 0)),
        "search.hits": int(counts.get("hits", 0)),
        "search.checkpoint_save.calls": calls("search.checkpoint_save"),
        "search.checkpoint_save.busy_s": busy("search.checkpoint_save"),
        "search.checkpoint_bytes": int(counts.get("checkpoint_bytes", 0)),
        "search.resume_s": counts.get("resume_s", 0.0),
        "search.pool_speedup": ratio(untraced.wall_s, pooled.wall_s) if pooled else 0.0,
        "cli.run.self_s": own("cli.run"),
        "cli.jsonl_bytes": int(counts.get("jsonl_bytes", 0)),
        "classify.chenluo_check.calls": calls("classify.chenluo_check"),
        "classify.chenluo_check.self_s": own("classify.chenluo_check"),
        "quadratic.two_adic_certificate.calls": calls("quadratic.two_adic_certificate"),
        "quadratic.two_adic_certificate.self_s": own("quadratic.two_adic_certificate"),
        "quadratic.two_adic_certificate.us_per_call": ratio(
            busy("quadratic.two_adic_certificate") * 1e6, calls("quadratic.two_adic_certificate")),
        "quadratic.summands": int(counts.get("summands", 0)),
        "setup.import_s": setup["import_s"],
        "setup.first_call_s": setup["first_call_s"],
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1,
    }


def measure_setup(name: str, seed: int, probes: int) -> dict:
    """Import plus first call, each time in a fresh interpreter; medians."""
    runs, messages = [], []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
        if runs[-1]["error"] and len(messages) < 5:
            messages.append(f"set-up probe: {runs[-1]['error']}")
    return {
        "import_s": statistics.median(r["import_s"] for r in runs),
        "first_call_s": statistics.median(r["first_call_s"] for r in runs),
        "total_s": statistics.median(r["import_s"] + r["first_call_s"] for r in runs),
        "errors": sum(1 for r in runs if r["error"]),
        "messages": messages,
    }


def _reap_children(timeout_s: float = 30.0) -> None:
    """Wait for pool workers to exit, so that their peak memory is counted."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024


def environment(workload, seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "max_input": workload.max_input,
        "proven_regime": workload.max_input < oddperfect.DETERMINISTIC_PRIME_BOUND,
    }
