"""Command-line front end.

Subcommands: tables (mod-p census rows), bounds (certified lower bounds as
JSON), densities (closed-form local densities), survey (height census with
empirical-vs-theoretical blocks), verify (self-check suites).  Exit codes:
0 success, 1 verification/compare failure, 2 usage or domain error (any
errors.DomainError, reported in one line, as is an --out or --csv path that
cannot be opened for writing, before any pass; other exceptions keep their
traceback).  Each subcommand imports the modules it runs, so --version, --help
and a usage error load no math module, and no command loads dataclasses or
inspect: the records are NamedTuples.  The one that validates does so on
construction: a QInterval's endpoints are Fractions with 0 <= lo <= hi.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .errors import DomainError

# Nothing here calls BLAS, yet an idle OpenBLAS thread pool costs the one command
# that loads numpy (survey) about 0.13 s of CPU on two cores; set before that
# import, and a value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def __getattr__(name: str):  # bench/record_reference.py reads cli.bounds: load it then
    if name == "bounds":
        from . import bounds
        return bounds
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _open_out(path: str, newline: str | None = None, mode: str = "w"):
    """`path` opened for writing; an unwritable path is a DomainError."""
    try:
        return open(path, mode, newline=newline)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc


def _check_writable(path: str) -> None:
    """Refuse an unwritable output path before the command's first pass.  Appending
    truncates nothing, and a file made here is removed, so a refusal leaves none."""
    made = not os.path.lexists(path)
    _open_out(path, mode="a").close()
    if made:
        os.remove(path)


def _emit(text, out_path: str | None) -> None:
    """Write `text`, or a JSON document indented by 2, to `out_path` or stdout."""
    if not isinstance(text, str):
        import json
        text = json.dumps(text, indent=2)
    if out_path:
        with _open_out(out_path) as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_tables(args) -> int:
    from . import arith, ffcurve, intervals
    if args.pmax < args.pmin:
        raise DomainError("--pmax must be >= --pmin")
    if args.pmin < 5:
        raise DomainError("--pmin must be >= 5")
    if args.pmax >= ffcurve.MAX_FIELD_PRIME:  # checked before the sieve allocates pmax bytes
        raise DomainError("--pmax must be below 2^20")
    header = ["p", "n_ordinary", "n_anomalous", "ordinary_density", "anomalous_density"]
    if args.compare_reference:
        from . import reference_tables
        header += ["ordinary_diff", "anomalous_diff"]
    failures, rows = 0, []
    for counts in map(ffcurve.residue_class_counts, arith.primes_in(args.pmin, args.pmax)):
        row = {"p": counts.p, "n_ordinary": counts.ordinary, "n_anomalous": counts.anomalous,
               "ordinary_density": intervals.fraction_to_decimal(counts.ordinary_density),
               "anomalous_density": intervals.fraction_to_decimal(counts.anomalous_density)}
        if args.compare_reference:
            diffs = reference_tables.reference_diffs(counts)
            if diffs is None:
                row["ordinary_diff"] = row["anomalous_diff"] = "no-reference"
            else:
                failures += max(map(abs, diffs)) > reference_tables.COMPARISON_TOLERANCE
                row["ordinary_diff"], row["anomalous_diff"] = (f"{float(d):.3e}" for d in diffs)
        rows.append(row)

    if args.format == "json":
        _emit({"schema_version": 1, "version": __version__, "rows": rows}, args.out)
    else:
        lines = [header] + [[str(row[k]) for k in header] for row in rows]
        _emit("\n".join(map(",".join, lines)), args.out)
    if failures:
        print(f"{failures} row(s) off reference by more than 1e-12", file=sys.stderr)
        return 1
    return 0


def _cmd_bounds(args) -> int:
    from . import bounds
    maker = {
        "growth": bounds.selmer_growth_bound,
        "euler": bounds.euler_divisibility_bound,
        "mu-lambda": bounds.mu_lambda_bound,
    }[args.kind]
    report = maker(args.p, args.n, truncation=args.trunc, zeta_terms=args.zeta_terms)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_densities(args) -> int:
    from . import density
    from .arith import check_prime
    from .intervals import check_printable, fraction_to_decimal
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # densities alone prints exact values
    exponent = {"In": args.n + 2, "Igeq": args.n + 1}.get(args.type, 0)  # of ell in the denominator
    if limit and exponent * (args.ell.bit_length() - 1) >= 4 * limit:  # ell^e >= 16^limit: refused unbuilt
        check_prime(args.ell, 5)  # a bad ell is reported first, as when the value is built
        check_printable(1 << 4 * limit)  # 2^(4 limit) <= ell^e stands in for the value
    if args.type == "I0":
        value = density.density_good(args.ell)
    elif args.type == "In":
        value = density.density_In(args.ell, args.n)
    elif args.type == "Igeq":
        value = density.density_In_at_least(args.ell, args.n)
    else:  # minimal
        value = density.minimal_density(args.ell)
    _emit(f"{check_printable(value)} = {fraction_to_decimal(value)}", args.out)
    return 0


def _cmd_survey(args) -> int:
    from . import survey  # survey alone loads numpy; no other command needs it

    survey._check_view_n(args.n)  # before the one pass over the height box
    if args.csv:
        survey._check_csv_height(args.x)
    census = survey._growth_census(args.p, args.x)
    blocks = {
        "minimal": survey.empirical_minimal_density(census).to_json(),
        "selmer_growth": survey.empirical_selmer_growth(census, args.n).to_json(),
        "euler_divisibility": survey.empirical_euler_divisibility(census, args.n).to_json(),
    }
    for ell in census.valuation_hists:
        blocks[f"kodaira_I1_at_{ell}"] = survey.empirical_kodaira_density(census, ell, 1).to_json()
    doc = {"schema_version": 3, "version": __version__, "x": args.x,
           "p": args.p, "n": args.n, "blocks": blocks}
    if args.csv:
        with _open_out(args.csv, newline="") as handle:
            rows = survey.write_survey_csv(args.x, args.p, handle)
        doc["csv"] = {"path": args.csv, "rows": rows}
    _emit(doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    results = verify.run_suite(args.suite)
    for res in results:
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}{detail}")
    failures = sum(not res.passed for res in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecstats",
        description="Census tables, exact densities and certified lower bounds "
                    "for elliptic curves ordered by naive height.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="mod-p census rows")
    tables.add_argument("--pmin", type=int, default=7)
    tables.add_argument("--pmax", type=int, default=149)
    tables.add_argument("--format", choices=("csv", "json"), default="csv")
    tables.add_argument("--compare-reference", action="store_true",
                        help="diff against the embedded reference decimals; "
                             "exit 1 on any mismatch beyond 1e-12")
    tables.add_argument("--out")
    tables.set_defaults(func=_cmd_tables)

    bnd = sub.add_parser("bounds", help="certified lower bound report (JSON)")
    bnd.add_argument("--p", type=int, required=True)
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--kind", choices=("growth", "euler", "mu-lambda"), default="growth")
    bnd.add_argument("--trunc", type=int, default=None)
    bnd.add_argument("--zeta-terms", type=int)  # None: bounds.DEFAULT_ZETA_TERMS
    bnd.add_argument("--out")
    bnd.set_defaults(func=_cmd_bounds)

    dens = sub.add_parser("densities", help="closed-form local densities")
    dens.add_argument("--ell", type=int, required=True)
    dens.add_argument("--type", choices=("I0", "In", "Igeq", "minimal"), required=True)
    dens.add_argument("--n", type=int, default=1)
    dens.add_argument("--out")
    dens.set_defaults(func=_cmd_densities)

    srv = sub.add_parser("survey", help="height census with comparisons (JSON)")
    srv.add_argument("--x", type=int, required=True)
    srv.add_argument("--p", type=int, required=True)
    srv.add_argument("--n", type=int, default=1)
    srv.add_argument("--csv", help="also write one row of local data per pair")
    srv.add_argument("--out")
    srv.set_defaults(func=_cmd_survey)

    ver = sub.add_parser("verify", help="run self-check suites")
    ver.add_argument("--suite", choices=("all", "tables", "oracles", "bounds"),
                     default="all")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in filter(None, (vars(args).get("out"), vars(args).get("csv"))):
            _check_writable(path)
        return args.func(args)
    except DomainError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
