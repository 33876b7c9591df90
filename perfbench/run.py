"""oddperfect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is search, ledger-random or certify (see BENCHMARK.json
for why each exists), or ``all`` to run each in a fresh process and print a
table of every metric by name and unit.  With --trace 0 the run measures the
end-to-end metrics for S seconds; with --trace 1 it runs a seeded batch
untraced and then traced, and reports the per-layer metrics.  The last line
of standard output is the result object; the line before it records the
seed, the environment and the failures.  Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("search", "ledger-random", "certify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in ("src/oddperfect/__init__.py", "tests/_oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of oddperfect, missing {missing}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import oddperfect

    if not Path(oddperfect.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {oddperfect.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import workloads

    result, record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table, then the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']} "
              f"(fail_frac {record['run']['fail_frac']:.3g})")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:45s} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
