"""Command-line front door.

Subcommands: field-info, construct, verify, census.  Output is deterministic
JSON on stdout (or --out); human-readable diagnostics go to stderr.

Exit codes: 0 success, 2 invalid parameters or malformed input, 3 the
parameters are valid but cannot be carried out (a build, field-table,
validation or census budget refuses them, or a construction step fails), 4 a
verification check failed.  Each error class carries its code
(`MdssdError.exit_code`), and `main` applies it in one handler; only
`verify` adds rules of its own, for its two phases.  An output that cannot
be written, such as an --out in a missing directory, is an invalid
parameter: `main` reports it on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .census import CENSUS_BUDGET, census_report
from .constructions import ODD_Q_CLAUSE, THEOREMS, build
from .errors import HypothesisViolated, MdssdError
from .field import make_field, odd_prime_power
from .grs import artifact_from_json, artifact_record, to_json
from .verify import verify_artifact

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFICATION = 4


def _emit(doc: dict, out_path: str | None) -> None:
    text = to_json(doc)
    # two writes: text + "\n" would copy an artifact's text once more
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


def _fail(code: int, message: str, out_path: str | None = None) -> int:
    print(message, file=sys.stderr)
    _emit({"error": message}, out_path)
    return code


def _verdict(report) -> int:
    """Exit 0 for a self-dual code whose MDS checks did not fail and whose
    stored a and v agree with G; otherwise name the nonzero Gram entry, the
    disagreeing column or the singular minor, where found, and exit 4.  A
    report is self-dual only at rank k."""
    if report.self_dual and report.mds_ok is not False and report.stored_mismatch is None:
        return EXIT_OK
    if report.nonzero_gram is not None:
        i, j = report.nonzero_gram
        print(f"nonzero Gram entry at ({i}, {j})", file=sys.stderr)
    if report.stored_mismatch is not None:
        which, column = report.stored_mismatch
        print(f"stored {which} disagrees with G at column {column}", file=sys.stderr)
    if report.singular_minor is not None:
        columns = ", ".join(map(str, report.singular_minor))
        print(f"singular minor at columns ({columns})", file=sys.stderr)
    print("verification failed", file=sys.stderr)
    return EXIT_VERIFICATION


def _resolve_pd(args) -> tuple[int, int]:
    """Accept either --p/--deg or a (possibly composite) --q."""
    if args.q is not None:
        pd = odd_prime_power(args.q)
        if pd is None:
            raise HypothesisViolated(ODD_Q_CLAUSE)
        return pd
    if args.p is None:
        raise HypothesisViolated("either --q or --p/--deg is required")
    return args.p, args.deg


def cmd_field_info(args) -> int:
    ctx = make_field(*_resolve_pd(args))
    doc = {
        "p": ctx.p,
        "d": ctx.d,
        "q": ctx.q,
        "modulus": list(ctx.modulus),
        "modulus_str": ctx.modulus_str(),
        "generator": ctx.g_val,
        "generator_str": ctx.format_v(ctx.g_val),
        "q1_prime_factors": list(ctx.q1_factors),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_construct(args) -> int:
    p, d = _resolve_pd(args)
    kw = {key: getattr(args, key) for key in ("m", "t", "s", "e", "k_sub")
          if getattr(args, key) is not None}
    art, trace = build(args.theorem, p, d, **kw)
    report = verify_artifact(art, mds=not args.no_mds)
    _emit(artifact_record(art, trace.to_dict(), report.to_dict()), args.out)
    return _verdict(report)


def cmd_verify(args) -> int:
    try:
        with open(getattr(args, "in"), "r", encoding="utf-8") as fh:
            art = artifact_from_json(fh.read())
    except MdssdError as ex:  # first: MalformedArtifact is also a ValueError
        return _fail(ex.exit_code, f"cannot load artifact: {ex}", args.out)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as ex:
        return _fail(EXIT_INVALID, f"cannot load artifact: {ex}", args.out)
    try:
        report = verify_artifact(art, mds=args.mds)
    except MdssdError as ex:  # e.g. n != 2k: the artifact fails verification
        return _fail(EXIT_VERIFICATION, str(ex), args.out)
    _emit(report.to_dict(), args.out)
    return _verdict(report)


def cmd_census(args) -> int:
    if args.spot_check_bound < 0:
        return _fail(EXIT_INVALID, "the spot-check bound is at least 0", args.out)
    rep = census_report(args.q, args.spot_check_bound)
    chosen = {"prior": rep.lengths_prior, "new": rep.lengths_new,
              "all": rep.lengths_union}[args.rows]
    full = rep.to_dict()
    doc = {"q": args.q, "rows": args.rows, "count": len(chosen),
           **{key: full[key] for key in ("prior_count", "new_count", "union_count")}}
    if rep.spot_checks:
        doc["spot_checks"] = full["spot_checks"]
    if args.list:
        doc["lengths"] = list(chosen)
    _emit(doc, args.out)
    return EXIT_OK


def _add_pd_flags(sub) -> None:
    sub.add_argument("--q", type=int, help="field size (odd prime power)")
    sub.add_argument("--p", type=int, help="characteristic")
    sub.add_argument("--deg", type=int, default=1, help="extension degree")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mdssd",
        description="Construct, verify and census MDS self-dual codes from "
                    "(extended) generalized Reed-Solomon codes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fi = subs.add_parser("field-info", help="deterministic field data for F_q")
    _add_pd_flags(fi)
    fi.add_argument("--out", help="write JSON here instead of stdout")
    fi.set_defaults(func=cmd_field_info)

    co = subs.add_parser("construct", help="build a self-dual code artifact")
    _add_pd_flags(co)
    co.add_argument("--theorem", required=True, choices=THEOREMS)
    co.add_argument("--m", type=int)
    co.add_argument("--t", type=int)
    co.add_argument("--s", type=int)
    co.add_argument("--e", type=int)
    co.add_argument("--k", type=int, dest="k_sub", metavar="K",
                    help="subfield degree (family 5)")
    co.add_argument("--no-mds", action="store_true",
                    help="skip the MDS checks in the embedded report")
    co.add_argument("--out", help="write the artifact here instead of stdout")
    co.set_defaults(func=cmd_construct)

    ve = subs.add_parser("verify", help="re-verify a stored artifact")
    ve.add_argument("--in", required=True, help="artifact JSON path")
    ve.add_argument("--mds", action=argparse.BooleanOptionalAction, default=True)
    ve.add_argument("--out", help="write the report here instead of stdout")
    ve.set_defaults(func=cmd_verify)

    ce = subs.add_parser("census", help="achievable-length census for F_q")
    ce.add_argument("--q", type=int, required=True,
                    help=f"odd prime power, at most {CENSUS_BUDGET}")
    ce.add_argument("--rows", choices=("prior", "new", "all"), default="all")
    ce.add_argument("--list", action="store_true", help="include the lengths")
    ce.add_argument("--spot-check-bound", type=int, default=0,
                    help="construct and verify every new length up to this bound")
    ce.add_argument("--out", help="write JSON here instead of stdout")
    ce.set_defaults(func=cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except MdssdError as ex:
            return _fail(ex.exit_code, str(ex), args.out)
    except OSError as ex:  # the output cannot be written; no second attempt
        print(f"cannot write the output: {ex}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
