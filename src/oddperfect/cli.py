"""Command-line front end: searches, certificates, and classification.

Exit codes are part of the contract:
  0  success (including searches that correctly come back empty)
  1  usage error: bad flags or bad parameter values
  2  theorem violation: a hit in a range a theorem proves empty, a failing
     certificate, or a tripped internal consistency check
  3  I/O error: an unwritable output, or a checkpoint that is unreadable,
     belongs to another search, or holds a hit the search does not find
  130  interrupted (Ctrl-C); a search resumes from its checkpoint, if it
       has one, when the same command is run again
"""
from __future__ import annotations

import argparse
import os
import sys

from .classify import (
    classify_report,
    dhp_scan,
    enumerate_multiperfect,
    omega_bound_product,
)
from .errors import CheckpointError, ConsistencyError
from .quadratic import identity_sweep, two_adic_certificate
from .search import Equation, SearchConfig, canonical_json, digest, jsonl, run_search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130

CHECKPOINT_DIR_ENV = "ODDPERFECT_CHECKPOINT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, records: list[dict], summary: dict, text_lines: list[str]) -> None:
    """Write either the jsonl contract or the human-readable text form."""
    if args.format == "jsonl":
        sys.stdout.write(jsonl(records, summary))
    else:
        for line in text_lines:
            print(line)
        print(f"config: {summary['config_hash']}")


def _checkpoint_path(raw: str | None) -> str | None:
    if raw is None:
        return None
    base = os.environ.get(CHECKPOINT_DIR_ENV)
    if base and not os.path.isabs(raw) and os.sep not in raw:
        return os.path.join(base, raw)
    return raw


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        equation=Equation(args.equation),
        q_min=args.q_min,
        q_max=args.q_max,
        alpha_min=args.alpha_min,
        alpha_max=args.alpha_max,
        residue_filter=args.q_mod4,
        worker_count=args.jobs,
        checkpoint_path=_checkpoint_path(args.checkpoint),
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
    _emit(args, [r.as_dict() for r in report.records], summary, text)
    forbidden = [
        r
        for r in report.records
        if r.q % 4 == 1
        and (r.alpha > 1 if r.equation is Equation.TWO_N_SQUARED else True)
    ]
    if forbidden:
        for r in forbidden:
            print(
                f"theorem violation: {r.equation.value} hit at q={r.q} "
                f"alpha={r.alpha} n={r.n} with q = 1 mod 4",
                file=sys.stderr,
            )
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_certify(args) -> int:
    report = two_adic_certificate(args.q, args.alpha)
    params = {"command": "certify", "q": args.q, "alpha": args.alpha}
    summary = {"passed": report.passed, "config_hash": digest(params)}
    text = [f"q={report.q} alpha={report.alpha}"]
    text += [f"summand i={i} v2={v2}" for i, v2 in report.summands]
    text.append(f"v2(S)={report.v2_total} passed={report.passed}")
    _emit(args, [report.as_dict()], summary, text)
    if not report.passed:
        print(
            f"theorem violation: certificate failed at q={args.q} alpha={args.alpha}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_classify(args) -> int:
    modes = (args.n is not None) + args.dhp_scan + args.multiperfect
    if modes != 1:
        raise ValueError("exactly one of --n, --dhp-scan, --multiperfect is required")
    if args.n is not None:
        if args.limit is not None:
            raise ValueError("--limit only applies to --dhp-scan / --multiperfect")
        report = classify_report(args.n)
        params = {"command": "classify", "n": args.n}
        d = report.as_dict()
        text = [f"{key}={d[key]}" for key in ("n", "sigma", "k", "euler_form", "dhp", "chenluo")]
        _emit(args, [d], {"config_hash": digest(params)}, text)
        return EXIT_OK
    if args.limit is None:
        raise ValueError("--dhp-scan / --multiperfect require --limit")
    if args.dhp_scan:
        hits = dhp_scan(args.limit)
        params = {"command": "classify", "dhp_scan": args.limit}
        summary = {"hits": len(hits), "config_hash": digest(params)}
        _emit(args, [{"n": n} for n in hits], summary, [canonical_json(hits)])
        return EXIT_OK
    pairs = enumerate_multiperfect(args.limit)
    params = {"command": "classify", "multiperfect": args.limit}
    summary = {"hits": len(pairs), "config_hash": digest(params)}
    _emit(
        args,
        [{"n": n, "k": k} for n, k in pairs],
        summary,
        [canonical_json([list(p) for p in pairs])],
    )
    return EXIT_OK


def _cmd_identity(args) -> int:
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
    summary = {"checked": checked, "failed": failed, "config_hash": digest(params)}
    text = [f"{name}: {c} pairs checked, {f} failed" for name, (c, f) in counts.items()]
    _emit(args, records, summary, text)
    if failed:
        print("theorem violation: algebraic identity failed", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_bound(args) -> int:
    value = omega_bound_product(args.count)
    params = {"command": "bound", "count": args.count}
    summary = {"value": value, "config_hash": digest(params)}
    _emit(args, [{"count": args.count, "value": value}], summary, [str(value)])
    return EXIT_OK


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
    p.add_argument("--checkpoint", default=None,
                   help=f"checkpoint file; bare names resolve under ${CHECKPOINT_DIR_ENV}")
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
        return args.func(args)
    except ConsistencyError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        checkpoint = _checkpoint_path(getattr(args, "checkpoint", None))
        resume = f"; rerun to resume from checkpoint {checkpoint}" if checkpoint else ""
        print(f"interrupted{resume}", file=sys.stderr)
        return EXIT_INTERRUPTED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
