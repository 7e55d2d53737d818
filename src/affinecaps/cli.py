"""Command-line interface with persistent, independently verifiable outputs.

Exit codes: 0 success / admissible / verified, 1 inadmissible / violation /
failed certificate or report, 2 usage or input error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .capset import (
    bound_table,
    build_cap,
    eg_constant,
    read_points,
    verify_cap,
    write_points,
)
from .equivalence import classification_to_jsonable, classify
from .progressions import enumerate_progressions, table_to_jsonable
from .reducibility import ReductionTrace, render_trace
from .search import (
    certificate_payload,
    check_pair,
    max_admissible_size,
    outcome_to_jsonable,
    render_report,
    replace_file,
    store_certificate,
    verify_certificate_payload,
    verify_report_payload,
)
from .zp import digit_pair, equation_str, make_line_equation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


class CliError(Exception):
    pass


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise CliError(f"cannot parse digit list {text!r}") from exc


def _fmt_digits(digits) -> str:
    return "{" + ", ".join(str(d) for d in sorted(digits)) + "}"


def _outdir(args) -> Path:
    out = Path(args.out or os.environ.get("AFFINECAPS_OUT", "affinecaps-out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def cmd_progressions(args) -> int:
    pair = digit_pair(args.p, _parse_digits(args.digits))
    eq = make_line_equation(args.p, args.b)
    table = enumerate_progressions(pair, eq)
    lines = [
        f"{len(table.rows)} non-trivial weighted progressions for "
        f"{equation_str(eq)} over Z_{args.p}, digits {_fmt_digits(pair.digits)}:"
    ]
    lines += [f"  {t}" for t in table.rows]
    _emit(args, table_to_jsonable(table), "\n".join(lines))
    return EXIT_OK


def cmd_check(args) -> int:
    digits = _parse_digits(args.digits)
    fixed = None if args.dprime is None else _parse_digits(args.dprime)
    pair = digit_pair(args.p, digits, fixed)
    verdict = check_pair(pair)
    out = _outdir(args)
    cert_dir = out / "certs"
    hashes = []
    for outcome in verdict.outcomes:
        hashes.append(store_certificate(certificate_payload(pair, outcome), cert_dir))
    summary = {
        "p": int(pair.p),
        "digits": list(pair.digits),
        "fixed": list(pair.fixed),
        "admissible": verdict.admissible,
        "outcomes": [outcome_to_jsonable(o) for o in verdict.outcomes],
        "certificates": hashes,
    }
    lines = [f"(D, D') = ({_fmt_digits(pair.digits)}, {_fmt_digits(pair.fixed)}) mod {int(pair.p)}"]
    for outcome, digest in zip(verdict.outcomes, hashes):
        eq = make_line_equation(pair.p, outcome.b)
        state = "closed" if outcome.trivial else "REFUTED"
        lines.append(f"b = {outcome.b} ({equation_str(eq)}): {state} by {outcome.method}"
                     f"  [cert {digest[:12]}]")
        if isinstance(outcome.proof, ReductionTrace):
            lines.append(render_trace(outcome.proof))
    lines.append("admissible" if verdict.admissible else "inadmissible")
    lines.append(f"certificates written to {cert_dir}")
    _emit(args, summary, "\n".join(lines))
    return EXIT_OK if verdict.admissible else EXIT_NEGATIVE


def cmd_search(args) -> int:
    out = _outdir(args)
    report = max_admissible_size(
        args.p,
        checkpoint_path=out / f"search_p{args.p}.checkpoint.jsonl",
        cert_dir=out / "certs",
        min_size=args.lmin,
        max_size=args.lmax,
        max_seconds=args.budget_seconds,
        max_candidates=args.budget_candidates,
    )
    report_path = out / f"search_p{args.p}.json"
    replace_file(report_path, render_report(report).encode())
    status = "budget exhausted, partial" if report.budget_exhausted else report.maximality
    print(f"p={args.p}: max admissible size {report.max_size} ({status}); "
          f"{report.candidates_examined} candidates examined")
    if report.witness is not None:
        print(f"witness digits {list(report.witness.pair.digits)} with fixed "
              f"{list(report.witness.pair.fixed)}")
    print(f"report written to {report_path}")
    return EXIT_BUDGET if report.budget_exhausted else EXIT_OK


def cmd_verify(args) -> int:
    if args.points_file:
        if {args.digits, args.dprime, args.n, args.save_points} != {None}:
            raise CliError("--points-file takes none of -D, --Dprime, -n and --save-points")
        points = read_points(args.points_file)
        check = verify_cap(points, args.p)
        count = len(set(points))
    else:
        if not args.digits or args.n is None:
            raise CliError("need either --points-file or -D ... -n N")
        digits = _parse_digits(args.digits)
        fixed = None if args.dprime is None else _parse_digits(args.dprime)
        pair = digit_pair(args.p, digits, fixed)
        cap = build_cap(pair, args.n)
        if args.save_points:
            write_points(cap, args.save_points)
        check = verify_cap(cap)
        count = len(cap)
    if check.ok:
        _emit(args, {"ok": True, "points": count}, f"ok, {count} points, no collinear triple")
        return EXIT_OK
    x, y, z = check.violation
    _emit(args, {"ok": False, "points": count,
                 "violation": [list(x), list(y), list(z)]},
          f"violation: {x}, {y}, {z} are collinear")
    return EXIT_NEGATIVE


def _truncate5(v: float) -> str:
    return f"{math.floor(v * 1e5) / 1e5:.5f}"


def cmd_table(args) -> int:
    primes = [int(v) for v in args.p.replace(",", " ").split()]
    if not primes:
        raise CliError("need at least one prime")
    rows = [bound_table(p) for p in primes]
    upper = [p * eg_constant(p) for p in primes]
    header = (f"{'p':>4} {'p^(2/3)':>12} {'(p^4+p^2-1)^(1/6)':>18} {'new':>4} {'mu':>9}"
              f" {'p*J(p)':>10}")
    lines = [header]
    for row, up in zip(rows, upper):
        lines.append(
            f"{row.p:>4} {_truncate5(row.bose_bound):>12} "
            f"{_truncate5(row.product_bound):>18} {row.new_bound:>4} "
            f"{_truncate5(row.mu):>9} {_truncate5(up):>10}"
        )
    payload = {
        "rows": [
            {"p": r.p, "bose_bound": r.bose_bound, "product_bound": r.product_bound,
             "new_bound": r.new_bound, "mu": r.mu, "upper_bound": up}
            for r, up in zip(rows, upper)
        ]
    }
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_classify(args) -> int:
    sets = []
    for line in Path(args.sets_file).read_text().splitlines():
        line = line.strip()
        if line:
            sets.append(_parse_digits(line))
    result = classify(sets, args.p)
    lines = [f"{len(result.classes)} affine classes among {len(sets)} digit sets mod {args.p}"]
    for i, cls in enumerate(result.classes):
        members = "; ".join(_fmt_digits(m) for m in cls.members)
        lines.append(f"  class {i}: representative {_fmt_digits(cls.representative)} <- {members}")
    _emit(args, classification_to_jsonable(result), "\n".join(lines))
    return EXIT_OK


def cmd_cert_verify(args) -> int:
    data = json.loads(Path(args.certificate).read_text())
    if isinstance(data, dict) and "maximality" in data:
        kind, ok = "report", verify_report_payload(data)
    else:
        kind, ok = "certificate", verify_certificate_payload(data)
    print(f"{kind} ok" if ok else f"{kind} FAILED")
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinecaps",
        description="Construct, certify and search digit-set caps in AG(n, p).",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", help="output directory (default $AFFINECAPS_OUT or ./affinecaps-out)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("progressions", help="list the weighted progressions for one equation")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-D", dest="digits", required=True, help="comma-separated digit set")
    sp.add_argument("-b", type=int, required=True)
    sp.set_defaults(func=cmd_progressions)

    sp = sub.add_parser("check", help="decide admissibility of a digit-set pair")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-D", dest="digits", required=True)
    sp.add_argument("--Dprime", dest="dprime", help="fixed digits (default: all of D)")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("search", help="find the maximal admissible digit-set size")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--lmin", type=int, default=2, help="smallest digit-set size to try")
    sp.add_argument("--lmax", type=int, default=math.inf, help="largest digit-set size to try")
    sp.add_argument("--budget-seconds", type=float, default=math.inf)
    sp.add_argument("--budget-candidates", type=int, default=math.inf)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("verify", help="build and/or verify a cap point set")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-D", dest="digits")
    sp.add_argument("--Dprime", dest="dprime")
    sp.add_argument("-n", type=int)
    sp.add_argument("--points-file")
    sp.add_argument("--save-points")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("table", help="lower- and upper-bound table rows for a list of primes")
    sp.add_argument("-p", required=True, help="comma-separated primes")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("classify", help="affine classification of digit sets from a file")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--sets-file", required=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("cert-verify",
                        help="re-check a stored certificate file or a search report")
    sp.add_argument("certificate")
    sp.set_defaults(func=cmd_cert_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, KeyError, RecursionError) as exc:
        missing = "missing field " if isinstance(exc, KeyError) else ""  # from a JSON document
        print(f"error: {missing}{exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
