"""Command-line front end.

Subcommands::

    fit          fit one or more links to a CSV and print coefficients
    structural   nested R x S probit-on-logit slope experiment
    predictive   paired test-error replication study on a CSV
    concordance  sign-disagreement grid between links
    ic           AIC/BIC replication study on a CSV
    gen          write a synthetic dataset CSV
    cdfgrid      write plot-ready CDF/density curves

``predictive`` and ``ic`` read their data only from a CSV; for simulated
data, ``gen`` writes one first.  Every subcommand is a pure function of
its arguments, its seed and its input files: reruns produce
byte-identical output, including under different ``--jobs`` values.  CSV
input needs a header row, "."-decimal numeric cells and a 0/1 response
column (``--response``, default "y"); missing and non-finite values
abort ingestion.  Exit status is 0 when the computation completed with
at most ``--max-invalid-frac`` failed replicates, 3 when more replicates
failed, and 1 on any error.
"""

from __future__ import annotations

import argparse
import csv
import math
import numbers
import os
import sys

import numpy as np

from .concord import ConcordanceMatrix, SplitPlan, sign_disagreement_grid
from .equiv import (
    Equispaced,
    Gaussian,
    GenConfig,
    STAT_ORDER,
    SummaryStats,
    generate_dataset,
    ic_compare,
    predictive_sim,
    structural_sim,
)
from .errors import ArgumentError, LinkEquivError
from .fit import Dataset, ModelSpec, fit_mle
from .links import LinkKind, cdf, density

ALL_LINKS = tuple(LinkKind)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TOO_MANY_INVALID = 3


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _full(x: float) -> str:
    """Full-precision, round-trippable decimal text; an integer stays an
    integer and NaN becomes empty."""
    if isinstance(x, numbers.Integral):
        return str(int(x))
    if math.isnan(x):
        return ""
    return repr(float(x))


def read_dataset_csv(path: str, response: str) -> Dataset:
    """Load a dataset from a headed CSV file.

    All non-response columns become predictors in file order.  Column
    names must be distinct and cells must parse as finite numbers; the
    response column must be 0/1.  A leading UTF-8 byte-order mark, as
    spreadsheet exports often write, is skipped.  Text that is not UTF-8
    and records the CSV reader rejects raise ``ArgumentError`` too.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ArgumentError(f"{path}: empty file (header row required)") from None
            header = [h.strip() for h in header]
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise ArgumentError(f"{path}: column {name!r} is named more than once")
            if response not in header:
                raise ArgumentError(f"{path}: no column named {response!r}")
            y_col = header.index(response)
            names = tuple(h for i, h in enumerate(header) if i != y_col)
            rows = []
            ys = []
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num
                if len(row) != len(header):
                    raise ArgumentError(f"{path}:{lineno}: expected {len(header)} cells")
                values = []
                for cell, name in zip(row, header):
                    text = cell.strip()
                    if text == "":
                        raise ArgumentError(
                            f"{path}:{lineno}: missing value in column {name!r}"
                        )
                    try:
                        value = float(text)
                    except ValueError:
                        raise ArgumentError(
                            f"{path}:{lineno}: non-numeric cell {text!r} in column {name!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise ArgumentError(
                            f"{path}:{lineno}: non-finite cell {text!r} in column {name!r}"
                        )
                    values.append(value)
                ys.append(values.pop(y_col))
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ArgumentError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ArgumentError(f"{path}: no data rows")
    try:
        return Dataset(np.asarray(rows, dtype=float), np.asarray(ys), names)
    except ArgumentError as exc:
        raise ArgumentError(f"{path}: {exc}") from None


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_replicate_csv(path: str, columns: dict) -> None:
    """One row per replicate: its index, then its value in each named
    column at full precision."""
    values = zip(*([_full(v) for v in column] for column in columns.values()))
    _write_csv(path, ["replicate", *columns],
               ([str(r), *row] for r, row in enumerate(values)))


# ---------------------------------------------------------------------------
# printing helpers
# ---------------------------------------------------------------------------


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    for row in rows:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip())


def _stats_table(columns: dict[object, SummaryStats], decimals: int) -> None:
    """Print one row per statistic and one column per key, headed by the
    key's ``str``; NaN prints as an empty cell."""
    headers = ["statistic"] + [str(key) for key in columns]
    rows = []
    for stat in STAT_ORDER:
        row = [stat]
        for summary in columns.values():
            value = getattr(summary, stat)
            row.append("" if math.isnan(value) else f"{value:.{decimals}f}")
        rows.append(row)
    _print_table(headers, rows)


def _parse_links(text: str) -> tuple[LinkKind, ...]:
    if text.strip().lower() == "all":
        return ALL_LINKS
    links = []
    for part in text.split(","):
        name = part.strip().lower()
        try:
            links.append(LinkKind(name))
        except ValueError:
            raise ArgumentError(
                f"unknown link {name!r}; choose from "
                + ", ".join(k.value for k in LinkKind)
            ) from None
    if len(set(links)) != len(links):
        raise ArgumentError("each link may be named only once in --links")
    return tuple(links)


def _check_replication_flags(args) -> None:
    """Reject --jobs below 1 and --max-invalid-frac outside [0, 1], and
    cap --jobs at the number of CPUs."""
    if args.jobs < 1:
        raise ArgumentError("--jobs must be at least 1")
    if not 0.0 <= args.max_invalid_frac <= 1.0:
        raise ArgumentError("--max-invalid-frac must lie in [0, 1]")
    args.jobs = min(args.jobs, os.cpu_count() or 1)


def _paired_setup(args) -> tuple[tuple[LinkKind, ...], SplitPlan]:
    """Check the replication flags of a paired-split study and return its
    links and split plan."""
    _check_replication_flags(args)
    return _parse_links(args.links), SplitPlan(replications=args.reps, seed=args.seed)


def _invalid_exit(n_failed: int, total: int, max_frac: float) -> int:
    if total > 0 and n_failed > max_frac * total:
        print(
            f"warning: {n_failed} of {total} replicates failed "
            f"(threshold {max_frac:.0%})",
            file=sys.stderr,
        )
        return EXIT_TOO_MANY_INVALID
    return EXIT_OK


def _paired_exit(args, reports) -> int:
    """Report where a paired-split study's CSV went and how many replicates
    its worst link lost; return the exit status that count gives."""
    n_failed = max(report.n_failed for report in reports.values())
    print(f"wrote {args.out}; worst-link failed replicates: {n_failed}")
    return _invalid_exit(n_failed, args.reps, args.max_invalid_frac)


def _gen_config(args) -> GenConfig:
    if args.design == "equispaced":
        design = Equispaced(args.interval[0], args.interval[1])
    else:
        design = Gaussian(args.mean, args.sd)
    return GenConfig(
        design=design,
        truth_link=LinkKind(args.truth_link),
        beta0=args.beta0,
        beta1=args.beta1,
        n=args.n,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    data = read_dataset_csv(args.csv, args.response)
    links = _parse_links(args.links)
    results = {}
    for link in links:
        spec = ModelSpec(link, intercept=not args.no_intercept)
        results[link] = (spec, fit_mle(spec, data))
    coef_names = results[links[0]][0].coefficient_names(data)
    headers = ["coefficient"] + [str(link) for link in links]
    ratio = len(links) == 2
    if ratio:
        headers.append(f"ratio {links[0]}/{links[1]}")
    rows = []
    for i, name in enumerate(coef_names):
        row = [name] + [f"{results[link][1].coefficients[i]:.4f}" for link in links]
        if ratio:
            top = results[links[0]][1].coefficients[i]
            bottom = results[links[1]][1].coefficients[i]
            row.append(f"{top / bottom:.4f}" if bottom != 0.0 else "")
        rows.append(row)
    _print_table(headers, rows)
    print()
    summary_rows = [
        [label] + [f"{getattr(results[link][1], label):.4f}" for link in links]
        for label in ("loglik", "aic", "bic")
    ]
    _print_table(["measure"] + [str(link) for link in links], summary_rows)
    for link in links:
        fitted = results[link][1]
        for warning in fitted.warnings:
            print(f"note: {link}: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_structural(args) -> int:
    _check_replication_flags(args)
    cfg = _gen_config(args)
    report = structural_sim(cfg, args.reps, args.inner, args.seed, jobs=args.jobs)
    _write_replicate_csv(args.out, {
        "theta": report.theta_hats,
        "tau": report.tau_hats,
        "rho": report.rho_hats,
        "r_squared": report.r_squared,
        "dropped": report.dropped,
    })
    invalid = int(np.sum(~np.isfinite(report.theta_hats)))
    print(f"structural run: R={args.reps} S={args.inner} n={cfg.n} "
          f"truth={cfg.truth_link} seed={args.seed}")
    print(f"wrote {args.out}; invalid replicates: {invalid}")
    if report.theta_summary is not None:
        valid_r2 = report.r_squared[np.isfinite(report.r_squared)]
        print(f"median r_squared: {np.median(valid_r2):.4f}")
        print("theta summary:")
        _stats_table({"theta": report.theta_summary}, decimals=4)
    return _invalid_exit(invalid, args.reps, args.max_invalid_frac)


def cmd_predictive(args) -> int:
    links, plan = _paired_setup(args)
    data = read_dataset_csv(args.csv, args.response)
    reports = predictive_sim(data, links, plan, jobs=args.jobs)
    _write_replicate_csv(args.out, {str(link): reports[link].values for link in links})
    print(f"test errors over R={args.reps} splits "
          f"(train fraction 2/3, seed {args.seed}):")
    _stats_table({link: reports[link].stats for link in links}, decimals=2)
    return _paired_exit(args, reports)


def cmd_concordance(args) -> int:
    links = _parse_links(args.links)
    matrix = sign_disagreement_grid(
        links, args.interval[0], args.interval[1], args.s,
        mode=args.mode, seed=args.seed,
    )
    rows = []
    for i, li in enumerate(links):
        for j, lj in enumerate(links):
            if j < i:
                continue
            rows.append([args.mode, str(li), str(lj), _full(matrix.rates[i, j])])
    _write_csv(args.out, ["mode", "link_a", "link_b", "rate"], rows)
    print(f"sign disagreement over {args.s} {args.mode} points of "
          f"[{args.interval[0]:g}, {args.interval[1]:g}]"
          + (f" (seed {args.seed})" if args.mode == "uniform_random" else "") + ":")
    _print_matrix(matrix)
    print(f"wrote {args.out}")
    return EXIT_OK


def _print_matrix(matrix: ConcordanceMatrix) -> None:
    headers = [""] + [str(link) for link in matrix.links]
    rows = [
        [str(li)] + [f"{matrix.rates[i, j]:.4f}" for j in range(len(matrix.links))]
        for i, li in enumerate(matrix.links)
    ]
    _print_table(headers, rows)


def cmd_ic(args) -> int:
    links, plan = _paired_setup(args)
    data = read_dataset_csv(args.csv, args.response)
    reports = ic_compare(data, links, plan, jobs=args.jobs)
    _write_replicate_csv(args.out, {
        f"{link}_{ic}": getattr(reports[link], ic) for link in links for ic in ("aic", "bic")
    })
    print(f"AIC over R={args.reps} training fits (seed {args.seed}):")
    _stats_table({link: reports[link].aic_stats for link in links}, decimals=2)
    print("BIC:")
    _stats_table({link: reports[link].bic_stats for link in links}, decimals=2)
    return _paired_exit(args, reports)


def cmd_gen(args) -> int:
    cfg = _gen_config(args)
    data = generate_dataset(cfg, args.seed, 0)
    rows = [
        [_full(data.predictors[i, 0]), str(int(data.response[i]))]
        for i in range(data.n)
    ]
    _write_csv(args.out, ["x", "y"], rows)
    print(f"wrote {args.out}: n={cfg.n}, truth={cfg.truth_link}, "
          f"beta0={cfg.beta0:g}, beta1={cfg.beta1:g}, seed={args.seed}")
    return EXIT_OK


def cmd_cdfgrid(args) -> int:
    links = _parse_links(args.links)
    a, b = args.interval
    if not a < b:
        raise ArgumentError("interval must satisfy a < b")
    if not math.isfinite(b - a):
        raise ArgumentError("interval width must be finite")
    if args.s < 2:
        raise ArgumentError("need at least 2 grid points")
    grid = np.linspace(a, b, args.s)
    header = ["u"]
    columns = [grid]
    for link in links:
        header += [f"{link}_density", f"{link}_cdf"]
        columns.append(density(link, grid))
        columns.append(cdf(link, grid))
    rows = [[_full(col[i]) for col in columns] for i in range(args.s)]
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}: {args.s} points of [{a:g}, {b:g}] "
          f"for {', '.join(str(k) for k in links)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_generator_flags(p):
    p.add_argument("--design", choices=["equispaced", "gaussian"], default="equispaced",
                   help="x design (default %(default)s)")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                   default=[0.0, 1.0], help="equispaced bounds (default %(default)s)")
    p.add_argument("--mean", type=float, default=0.0,
                   help="gaussian design mean (default %(default)s)")
    p.add_argument("--sd", type=float, default=1.0,
                   help="gaussian design sd (default %(default)s)")
    p.add_argument("--truth-link", default="cauchit",
                   choices=[k.value for k in LinkKind],
                   help="data-generating link (default %(default)s)")
    p.add_argument("--beta0", type=float, default=0.0,
                   help="true intercept (default %(default)s)")
    p.add_argument("--beta1", type=float, default=0.5,
                   help="true slope (default %(default)s)")
    p.add_argument("--n", type=int, default=199,
                   help="sample size (default %(default)s)")


def _add_replication_flags(p, *, reps, out):
    p.add_argument("--reps", "-R", type=int, default=reps,
                   help="number of replications (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="stream seed (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, capped at the CPU count "
                        "(default %(default)s)")
    p.add_argument("--max-invalid-frac", type=float, default=0.01,
                   help="failed-replicate fraction in [0, 1] tolerated "
                        "before a nonzero exit (default %(default)s)")
    p.add_argument("--out", default=out,
                   help="output CSV path (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ArgumentError``, so
    that ``main`` reports them like any other bad input, with exit status
    1.  Subcommand parsers are of this class too."""

    def error(self, message):
        raise ArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linkequiv",
        description="Binary-regression link functions: fitting, closed-form "
                    "estimators and equivalence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit links to a CSV dataset")
    p.add_argument("csv", help="input CSV with a header row")
    p.add_argument("--response", default="y", help="response column (default %(default)s)")
    p.add_argument("--links", default="probit,logit",
                   help="comma list or 'all' (default %(default)s)")
    p.add_argument("--no-intercept", action="store_true", help="drop the intercept")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("structural", help="nested R x S slope experiment")
    _add_generator_flags(p)
    p.add_argument("--inner", "-S", type=int, default=199,
                   help="datasets per replicate (default %(default)s)")
    _add_replication_flags(p, reps=99, out="theta.csv")
    p.set_defaults(handler=cmd_structural)

    p = sub.add_parser("predictive", help="paired test-error study")
    p.add_argument("--csv", required=True, help="input CSV with a header row")
    p.add_argument("--response", default="y", help="response column (default %(default)s)")
    p.add_argument("--links", default="all", help="comma list or 'all' (default)")
    _add_replication_flags(p, reps=1000, out="te.csv")
    p.set_defaults(handler=cmd_predictive)

    p = sub.add_parser("concordance", help="sign-disagreement grid")
    p.add_argument("--links", default="all", help="comma list or 'all' (default)")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                   default=[-15.0, 15.0], help="grid bounds (default %(default)s)")
    p.add_argument("--s", type=int, default=10000,
                   help="number of points (default %(default)s)")
    p.add_argument("--mode", choices=["equispaced", "uniform_random"],
                   default="equispaced", help="point layout (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for uniform_random mode (default %(default)s)")
    p.add_argument("--out", default="concordance.csv",
                   help="output CSV path (default %(default)s)")
    p.set_defaults(handler=cmd_concordance)

    p = sub.add_parser("ic", help="AIC/BIC replication study")
    p.add_argument("csv", help="input CSV with a header row")
    p.add_argument("--response", default="y", help="response column (default %(default)s)")
    p.add_argument("--links", default="all", help="comma list or 'all' (default)")
    _add_replication_flags(p, reps=1000, out="ic.csv")
    p.set_defaults(handler=cmd_ic)

    p = sub.add_parser("gen", help="write a synthetic dataset CSV")
    _add_generator_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="stream seed (default %(default)s)")
    p.add_argument("--out", default="dataset.csv",
                   help="output CSV path (default %(default)s)")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("cdfgrid", help="write CDF/density plot data")
    p.add_argument("--links", default="all", help="comma list or 'all' (default)")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                   default=[-5.0, 5.0], help="grid bounds (default %(default)s)")
    p.add_argument("--s", type=int, default=1001,
                   help="number of grid points (default %(default)s)")
    p.add_argument("--out", default="cdfgrid.csv",
                   help="output CSV path (default %(default)s)")
    p.set_defaults(handler=cmd_cdfgrid)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (LinkEquivError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
