"""Command-line front end: searches, certificates, and classification.

Exit codes are part of the contract:
  0  success (including searches that correctly come back empty)
  1  usage error: bad flags or bad parameter values, including an n with a
     composite cofactor that rho cannot split within its step cap
  2  theorem violation: a hit in a range a theorem proves empty, a failing
     certificate, or a tripped internal consistency check
  3  I/O error: an unwritable output, a checkpoint that is unreadable,
     belongs to another search, or holds a hit the search does not find,
     or a search helper process that died
  130  interrupted (Ctrl-C); a search resumes from its checkpoint, if it
       has one, when the same command is run again
"""
from __future__ import annotations

import argparse
import functools
import sys

from .classify import (
    classify_report,
    dhp_scan,
    enumerate_multiperfect,
    omega_bound_product,
)
from .errors import CheckpointError, ConsistencyError, FactorBoundError
from .quadratic import identity_sweep, two_adic_certificate
from .search import EQUATIONS, SearchConfig, canonical_json, digest, jsonl, run_search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# Each _cmd_* returns (params, records, summary, text, violations): the config
# to hash, the JSONL records and summary, the text lines, and one line per
# theorem violation.  run alone hashes, emits and judges them.
def _cmd_search(args):
    cfg = SearchConfig(
        k=next(k for k, name in EQUATIONS.items() if name == args.equation),
        q_min=args.q_min,
        q_max=args.q_max,
        alpha_min=args.alpha_min,
        alpha_max=args.alpha_max,
        residue_filter=args.q_mod4,
        worker_count=args.jobs,
        checkpoint_path=args.checkpoint,
    )
    report = run_search(cfg)
    text = [
        f"q={r.q} alpha={r.alpha} n={r.n}"
        + (f" n1={r.split[0]} n2={r.split[1]}" if r.split else "")
        for r in report.records
    ]
    summary = report.summary()
    text.append(
        f"scanned_primes={summary['scanned_primes']} "
        f"skipped_even_alpha={summary['skipped_even_alpha']} hits={summary['hits']}"
    )
    violations = [
        f"{EQUATIONS[r.k]} hit at q={r.q} alpha={r.alpha} n={r.n} with q = 1 mod 4"
        for r in report.records
        if r.q % 4 == 1 and (r.alpha > 1 or r.k == 1)
    ]
    return cfg.identity(), [r.as_dict() for r in report.records], summary, text, violations


def _cmd_certify(args):
    report = two_adic_certificate(args.q, args.alpha)
    params = {"command": "certify", "q": args.q, "alpha": args.alpha}
    text = [f"q={report.q} alpha={report.alpha}"]
    text += [f"summand i={i} v2={v2}" for i, v2 in report.summands]
    text.append(f"v2(S)={report.v2_total} passed={report.passed}")
    return params, [report.as_dict()], {"passed": report.passed}, text, []


def _cmd_classify(args):
    modes = (args.n is not None) + args.dhp_scan + args.multiperfect
    if modes != 1:
        raise ValueError("exactly one of --n, --dhp-scan, --multiperfect is required")
    if args.n is not None:
        if args.limit is not None:
            raise ValueError("--limit only applies to --dhp-scan / --multiperfect")
        d = classify_report(args.n).as_dict()
        # lazy: run formats each line with the digit limit lifted, as sigma can pass it
        text = (f"{key}={value}" for key, value in d.items())
        return {"command": "classify", "n": args.n}, [d], {}, text, []
    if args.limit is None:
        raise ValueError("--dhp-scan / --multiperfect require --limit")
    if args.dhp_scan:
        hits = dhp_scan(args.limit)
        params = {"command": "classify", "dhp_scan": args.limit}
        return params, [{"n": n} for n in hits], {"hits": len(hits)}, [canonical_json(hits)], []
    pairs = enumerate_multiperfect(args.limit)
    params = {"command": "classify", "multiperfect": args.limit}
    records = [{"n": n, "k": k} for n, k in pairs]
    return params, records, {"hits": len(pairs)}, [canonical_json(pairs)], []


def _cmd_identity(args):
    counts = identity_sweep(args.m_max, args.q_max, args.ratio_m_max)
    params = {
        "command": "identity",
        "m_max": args.m_max,
        "q_max": args.q_max,
        "ratio_m_max": args.ratio_m_max,
    }
    checked = sum(c for c, _ in counts.values())
    failed = sum(f for _, f in counts.values())
    records = [{"check": name, "checked": c, "failed": f} for name, (c, f) in counts.items()]
    text = [f"{name}: {c} pairs checked, {f} failed" for name, (c, f) in counts.items()]
    violations = ["algebraic identity failed"] if failed else []
    return params, records, {"checked": checked, "failed": failed}, text, violations


def _cmd_bound(args):
    value = omega_bound_product(args.count)
    params = {"command": "bound", "count": args.count}
    # the int itself, not str(value): run prints it with the digit limit lifted
    return params, [{"count": args.count, "value": value}], {"value": value}, [value], []


@functools.cache  # the parser holds no per-call state: build it once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="oddperfect", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "jsonl"), default="text",
                       help="text for humans, jsonl for machines")

    p = sub.add_parser("search", help="scan (q, alpha) ranges for equation solutions")
    p.add_argument("--equation", choices=("2nsq", "nsq"), required=True,
                   help="2nsq: 2n^2 = sigma(q^alpha); nsq: n^2 = sigma(q^alpha)")
    p.add_argument("--q-min", type=int, default=3)
    p.add_argument("--q-max", type=int, default=50_000)
    p.add_argument("--alpha-min", type=int, default=1)
    p.add_argument("--alpha-max", type=int, default=25)
    p.add_argument("--q-mod4", type=int, choices=(1, 3), default=None,
                   help="restrict q to this residue mod 4")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", default=None, help="checkpoint file")
    common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("certify", help="2-adic unit certificate for one (q, alpha)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("classify", help="abundancy / structure reports")
    p.add_argument("--n", type=int, default=None, help="classify one integer")
    p.add_argument("--dhp-scan", action="store_true",
                   help="list n <= --limit with the sigma(m) = q^alpha decomposition")
    p.add_argument("--multiperfect", action="store_true",
                   help="list (n, k) with sigma(n) = k*n up to --limit")
    p.add_argument("--limit", type=int, default=None,
                   help="scan bound for --dhp-scan / --multiperfect")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("identity", help="run the algebraic identity suites")
    p.add_argument("--m-max", type=int, default=60,
                   help="largest power in the trace comparison")
    p.add_argument("--q-max", type=int, default=200,
                   help="primes q feeding d = 1 - q in the trace comparison")
    p.add_argument("--ratio-m-max", type=int, default=200,
                   help="largest m in the binomial ratio identity sweep")
    common(p)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("bound", help="product of sigma(p^2) over the first odd primes")
    p.add_argument("--count", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_bound)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and map failures onto the exit-code contract."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        params, records, summary, text, violations = args.func(args)
        summary["config_hash"] = digest(params)
        # The int/str digit limit guards parsing outside text (argv, a
        # checkpoint), all read by now; the ints printed here were computed,
        # and bound --count 1000 prints 6819 digits.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if args.format == "jsonl":
                sys.stdout.write(jsonl(records, summary))
            else:
                for line in text:
                    print(line)
                print(f"config: {summary['config_hash']}")
        finally:
            sys.set_int_max_str_digits(limit)
        for line in violations:
            print(f"theorem violation: {line}", file=sys.stderr)
        return EXIT_VIOLATION if violations else EXIT_OK
    except ConsistencyError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, FactorBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        checkpoint = getattr(args, "checkpoint", None)
        resume = f"; rerun to resume from checkpoint {checkpoint}" if checkpoint else ""
        print(f"interrupted{resume}", file=sys.stderr)
        return EXIT_INTERRUPTED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
